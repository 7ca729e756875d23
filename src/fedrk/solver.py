"""Dense linear systems and the randomized Kaczmarz kernels that run on them."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
# the gufunc (LAPACK gesv) that np.linalg.solve calls, without its wrapper
from numpy.linalg._umath_linalg import solve1 as _solve1

from .core import (
    as_matrix,
    as_vector,
    row_norms_sq,
    sample_rows,
)
from .errors import AllRowsZero, DimensionMismatch, ZeroRow

__all__ = [
    "LinearSystem",
    "rk_iterate",
]


@dataclass(frozen=True)
class LinearSystem:
    """A dense system A x = b (rows of A paired with entries of b, their squared
    norms kept in ``row_sq``)."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, name="A")
        b = as_vector(self.b, name="b")
        if A.shape[0] != b.size:
            raise DimensionMismatch(
                f"A has {A.shape[0]} rows but b has {b.size} entries"
            )
        row_sq = row_norms_sq(A)
        overflow = ~np.isfinite(row_sq)
        if overflow.any():
            raise ValueError(
                f"row {int(overflow.argmax())} of A has a squared norm that overflows"
            )
        if not np.any(row_sq > 0.0):
            raise AllRowsZero("system needs at least one row with positive norm")
        # a row is zero relative to the largest row of its block, so scaling
        # the block does not change which rows are zero
        zero_rows = row_sq <= 1e-24 * row_sq.max()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "row_sq", row_sq)
        object.__setattr__(self, "zero_rows", zero_rows if zero_rows.any() else None)
        object.__setattr__(self, "_setups", {})

    def kaczmarz_setup(self, scheme):
        """``(rows, b list, row_sq list, CDF, zero-row mask or None)`` for
        :func:`rk_iterate`, once per scheme."""
        if scheme not in self._setups:
            lists = list(self.A), self.b.tolist(), self.row_sq.tolist()
            self._setups[scheme] = (*lists, scheme.cdf(self.row_sq), self.zero_rows)
        return self._setups[scheme]

    @cached_property
    def gram(self):
        """:func:`gram_matrix` of the rows, built on first use."""
        return gram_matrix(self.A, self.row_sq)

    def dual_setup(self):
        """``(A, b, Gram matrix)`` for the dual kernel of :func:`rk_iterate`."""
        return self.A, self.b, self.gram

    @property
    def rows(self):
        return self.A.shape[0]

    @property
    def cols(self):
        return self.A.shape[1]

    def residual_norm(self, x):
        return float(np.linalg.norm(self.A @ x - self.b))


def _as_point(system, x, name):
    """Validate ``x`` as a finite vector with one entry per column of ``system``."""
    x = as_vector(x, name=name)
    if x.size != system.cols:
        raise DimensionMismatch(f"{name} has dim {x.size}, system has {system.cols} columns")
    return x


def gram_matrix(A, row_sq):
    """``A Aᵀ`` with the rows' squared norms ``row_sq`` on its diagonal."""
    G = A @ A.T
    np.fill_diagonal(G, row_sq)
    return G


# sampled rows per triangular solve in the dual kernel
_CHUNK = 32
_LOWER = np.tri(_CHUNK)


def _sampled_rows(setup, iters, rng):
    """A run's row indices: one draw of ``iters`` uniforms on ``rng``.

    Raises ZeroRow naming the first sampled row that the set-up's mask
    marks as zero.
    """
    if len(setup[0]) == 1:
        # every draw lands on row 0; skip the stream entirely
        return np.zeros(iters, dtype=np.intp)
    indices = sample_rows(setup[3], rng, iters)
    if setup[4] is not None:
        zero = setup[4][indices]
        if zero.any():
            raise ZeroRow(f"sampled row {indices[zero.argmax()]} is numerically zero")
    return indices


def _rk_sequential(setup, x, indices):
    """One projection per sampled row, in order: the reference kernel."""
    rows, b_list, sq_list, *_ = setup
    tmp = np.empty_like(x)
    mul, add = np.multiply, np.add
    for j in indices.tolist():
        aj = rows[j]
        mul(aj, (b_list[j] - aj.dot(x)) / sq_list[j], out=tmp)
        add(x, tmp, out=x)
    return x


def _rk_dual(system, x, indices):
    """The same projections as coordinate descent on x = x0 + Aᵀc.

    Keeps the residual r = b - A x. The steps of a chunk J of sampled rows
    solve the lower triangle of G[J, J] against r[J]; then r -= G[:, J]
    steps, and x takes Aᵀc once at the end. A run that overflows, in a
    solve or elsewhere, leaves x non-finite without a warning.
    """
    A, b, G = system.dual_setup()
    steps = np.empty(indices.size)
    with np.errstate(over="ignore", invalid="ignore"):
        r = b - A @ x
        for k in range(0, indices.size, _CHUNK):
            J = indices[k:k + _CHUNK]
            GJ = G.take(J, 0)
            t = J.size
            s = _solve1(GJ.take(J, 1) * _LOWER[:t, :t], r.take(J), signature="dd->d")
            r -= s @ GJ
            steps[k:k + t] = s
        x += np.bincount(indices, weights=steps, minlength=b.size) @ A
    return x


def rk_iterate(system, x, *, iters, scheme, rng):
    """Unvalidated RK run on ``system``; mutates and returns ``x``.

    All of the run's row indices are drawn up front, in one call on
    ``rng``; a sampled row that the set-up marks as zero raises ZeroRow. A
    run of at least 32 steps on a block with no more rows than steps or
    columns goes to the dual kernel, whose Gram matrix is then no larger
    than the block and paid for by the run; it agrees with the sequential
    kernel, one projection per sampled row, to rounding. Every other run is
    that sequential kernel.
    """
    setup = system.kaczmarz_setup(scheme)
    indices = _sampled_rows(setup, iters, rng)
    if iters >= _CHUNK and len(setup[0]) <= min(iters, x.size):
        return _rk_dual(system, x, indices)
    return _rk_sequential(setup, x, indices)
