"""References the tests check the iterative code against.

The direct methods may be O(n^3): exact subspace projections and the exact
one-round expected update obtained by enumerating every client subset. The
classic randomized Kaczmarz references follow them: one projection step,
a traced run on the sequential kernel, the exact contraction factor, the
decay functional and the fitted decay rate.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from fedrk.core import as_matrix, as_vector, row_norms_sq
from fedrk.errors import DimensionMismatch, ZeroRow
from fedrk.solver import _as_point, _rk_sequential, _sampled_rows

# singular values below RCOND * largest are treated as zero in direct solves
RCOND = 1e-10

_MAX_SUBSETS = 10**6


class InconsistentBlock(Exception):
    pass


class TooManySubsets(Exception):
    pass


class WeightError(Exception):
    pass


def project_onto_solution_set(block, x):
    """Orthogonal projection of ``x`` onto {z : A z = b} for a consistent block.

    Computed as x - pinv(A) (A x - b) via a rank-revealing least-squares
    solve. Raises InconsistentBlock when the projected point cannot satisfy
    the equations (the block has no solution).
    """
    x = as_vector(x, name="x")
    A, b = block.A, block.b
    if x.size != A.shape[1]:
        raise InconsistentBlock(f"x has dim {x.size}, block has {A.shape[1]} columns")
    correction, *_ = np.linalg.lstsq(A, A @ x - b, rcond=RCOND)
    proj = x - correction
    residual = float(np.linalg.norm(A @ proj - b))
    if residual > 1e-10 * (1.0 + float(np.linalg.norm(b))):
        raise InconsistentBlock(
            f"block is inconsistent: projection residual {residual:.3e}"
        )
    return proj


def expected_update(blocks, x, participants):
    """Exact expectation of one federated round's update at ``x``.

    Averages over every size-``participants`` client subset; within a subset
    the clients whose solution set already contains ``x`` are skipped, and a
    subset with no active client leaves ``x`` unchanged. Feasible for small
    client counts only (the subset count is capped at 10^6).
    """
    blocks = list(blocks)
    x = as_vector(x, name="x")
    m_clients = len(blocks)
    n_subsets = comb(m_clients, participants)
    if n_subsets > _MAX_SUBSETS:
        raise TooManySubsets(f"{n_subsets} subsets exceed the enumeration cap")

    tol = 1e-12 * (1.0 + float(np.linalg.norm(x)))  # a block already holding x is skipped
    active = []
    projected = []
    for blk in blocks:
        n_vec = x - project_onto_solution_set(blk, x)
        dist = float(np.linalg.norm(n_vec))
        active.append(dist > tol)
        if dist > tol:
            unit = n_vec / dist
            projected.append(x - unit * float(np.dot(unit, x)))
        else:
            projected.append(x.copy())

    acc = np.zeros_like(x)
    for subset in combinations(range(m_clients), participants):
        live = [s for s in subset if active[s]]
        if not live:
            acc += x
        else:
            term = np.zeros_like(x)
            for s in live:
                term += projected[s]
            acc += term / len(live)
    return acc / n_subsets


def rounds_to_threshold(curve, tol):
    """First round index at which the curve drops below tol; inf if never."""
    below = np.flatnonzero(np.asarray(curve) < tol)
    return int(below[0]) if below.size else float("inf")


def rk_step(a, b_j, x):
    """One Kaczmarz projection of ``x`` onto the hyperplane <a, .> = b_j."""
    a = as_vector(a, name="row")
    x = as_vector(x, name="x")
    if a.size != x.size:
        raise DimensionMismatch(f"row has dim {a.size}, x has dim {x.size}")
    norm_sq = float(np.dot(a, a))
    if norm_sq == 0.0:  # a single row is its own block: only exact zero is zero
        raise ZeroRow("cannot project onto a numerically zero row")
    return x + ((float(b_j) - float(np.dot(a, x))) / norm_sq) * a


def rk_run(system, x0, iters, scheme, rng, x_ref=None):
    """Run ``iters`` randomized Kaczmarz steps on ``system`` from ``x0``.

    Rows are drawn i.i.d. under ``scheme`` from ``rng``. Returns the final
    iterate and the array of ``||x_k - x_ref||`` for k = 0..iters, or of
    the residual norms when no reference is given.
    """
    x = _as_point(system, x0, "x0").copy()
    iters = int(iters)
    if iters < 0:
        raise ValueError("iters must be non-negative")
    if x_ref is not None:
        x_ref = _as_point(system, x_ref, "x_ref")

    setup = system.kaczmarz_setup(scheme)
    indices = _sampled_rows(setup, iters, rng)

    def current_value(point):
        if x_ref is not None:
            return float(np.linalg.norm(point - x_ref))
        return system.residual_norm(point)

    values = [current_value(x)]
    for k in range(iters):
        _rk_sequential(setup, x, indices[k:k + 1])
        values.append(current_value(x))
    return x, np.array(values)


def contraction_factor(A, scheme):
    """Largest eigenvalue of sum_s p(s) (I - a_s a_s^T) over normalized rows.

    Governs the expected squared-error decay of one RK step. Computed
    exactly, by one symmetric eigensolve.
    """
    A = as_matrix(A, name="A")
    row_sq = row_norms_sq(A)
    probs = scheme.probabilities(row_sq)
    if np.any(row_sq == 0.0):
        raise ZeroRow("contraction factor needs every row to have positive norm")
    unit = A / np.sqrt(row_sq)[:, None]
    # Q = I - U^T diag(p) U, symmetric PSD with spectrum in [0, 1]
    Q = np.eye(A.shape[1]) - (unit * probs[:, None]).T @ unit
    return min(max(float(np.linalg.eigvalsh(Q)[-1]), 0.0), 1.0)


def decay_functional(normals, p, y):
    """Average squared norm left after projecting ``y`` off random normals.

    Returns sum_s p(s) ||(I - n_s n_s^T / ||n_s||^2) y||^2, the quantity
    whose maximum over unit ``y`` is the contraction factor.
    """
    y = as_vector(y, name="y")
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size != len(normals):
        raise WeightError("p must assign one weight per normal")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise WeightError("p must be non-negative and sum to 1")
    total = 0.0
    y_sq = float(np.dot(y, y))
    for weight, normal in zip(p, normals):
        n_vec = as_vector(normal, name="normal")
        if n_vec.size != y.size:
            raise DimensionMismatch("normal dimension mismatch")
        n_sq = float(np.dot(n_vec, n_vec))
        if n_sq <= 1e-24:
            raise ZeroRow("decay functional given a zero normal")
        total += float(weight) * (float(np.dot(n_vec, y)) ** 2) / n_sq
    return max(y_sq - total, 0.0)


@dataclass(frozen=True)
class DecayFit:
    """Geometric decay rate fitted to a trace, with the fit's R^2."""

    rate: float
    r_squared: float
    degenerate: bool = False


def fit_decay_rate(values):
    """Least-squares fit of log(error) vs. step, exponentiated.

    ``values`` holds one finite, non-negative error per step from step 0.
    Errors at exact zero mean the run has converged past floating point;
    that reports rate 0 with the degenerate flag rather than failing.
    Entries below 1e-14 times the initial error are rounding noise and are
    dropped before fitting.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise ValueError("decay values must be finite and non-negative")
    steps = np.arange(values.size, dtype=np.float64)
    if np.any(values == 0.0):
        return DecayFit(rate=0.0, r_squared=1.0, degenerate=True)
    if values.size:
        mask = values >= 1e-14 * values[0]
        values, steps = values[mask], steps[mask]
    if values.size < 3:
        raise ValueError("need at least 3 positive error values to fit a rate")
    logs = np.log(values)
    slope, intercept = np.polyfit(steps, logs, 1)
    fitted = slope * steps + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot <= 1e-30:
        r_sq = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r_sq = 1.0 - ss_res / ss_tot
    return DecayFit(rate=float(np.exp(slope)), r_squared=r_sq)
