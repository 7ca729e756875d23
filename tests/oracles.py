"""Direct-method references the tests check the iterative code against.

Everything here may be O(n^3): exact subspace projections and the exact
one-round expected update obtained by enumerating every client subset.
"""

from itertools import combinations
from math import comb

import numpy as np

from fedrk.core import as_vector

# singular values below RCOND * largest are treated as zero in direct solves
RCOND = 1e-10

_MAX_SUBSETS = 10**6


class InconsistentBlock(Exception):
    pass


class TooManySubsets(Exception):
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
