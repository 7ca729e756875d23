"""Tests for the direct-method references in ``tests/oracles.py`` and the
lsq runner's least-squares solve."""

import numpy as np
import pytest

from fedrk.core import RngStream
from fedrk.errors import RankDeficient
from fedrk.experiments import least_squares_solution
from fedrk.federation import RoundStreams, RunConfig, fed_round
from fedrk.solver import LinearSystem
from oracles import (
    InconsistentBlock,
    TooManySubsets,
    expected_update,
    project_onto_solution_set,
)


def consistent_block(m, n, seed):
    g = np.random.default_rng(seed)
    A = g.standard_normal((m, n))
    z = g.standard_normal(n)
    return LinearSystem(A, A @ z)


# ---------------------------------------------------------------------------
# project_onto_solution_set
# ---------------------------------------------------------------------------

def test_projection_examples():
    blk = LinearSystem(np.array([[1.0, 0.0]]), np.array([0.0]))
    assert np.allclose(project_onto_solution_set(blk, np.array([1.0, 1.0])), [0.0, 1.0])
    line = LinearSystem(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(project_onto_solution_set(line, np.zeros(2)), [1.0, 1.0])


def test_projection_fixed_on_members():
    blk = consistent_block(3, 7, 1)
    g = np.random.default_rng(2)
    inside = np.linalg.lstsq(blk.A, blk.b, rcond=None)[0]
    out = project_onto_solution_set(blk, inside)
    assert np.allclose(out, inside, atol=1e-10)


def test_projection_idempotent():
    g = np.random.default_rng(3)
    for seed in range(5):
        blk = consistent_block(4, 9, 10 + seed)
        x = g.standard_normal(9)
        once = project_onto_solution_set(blk, x)
        twice = project_onto_solution_set(blk, once)
        assert np.allclose(once, twice, atol=1e-12)


def test_projection_orthogonality_pythagoras():
    # x - Px is orthogonal to any direction within the solution set
    g = np.random.default_rng(4)
    for seed in range(5):
        blk = consistent_block(3, 8, 20 + seed)
        x = g.standard_normal(8)
        px = project_onto_solution_set(blk, x)
        for _ in range(10):
            z = project_onto_solution_set(blk, g.standard_normal(8))
            assert abs(np.dot(x - px, px - z)) <= 1e-10 * (
                1 + np.linalg.norm(x) * np.linalg.norm(px - z)
            )


def test_projection_residual_bound():
    g = np.random.default_rng(5)
    for seed in range(10):
        blk = consistent_block(6, 15, 30 + seed)
        x = g.standard_normal(15)
        out = project_onto_solution_set(blk, x)
        assert np.linalg.norm(blk.A @ out - blk.b) <= 1e-10 * (1 + np.linalg.norm(blk.b))


def test_projection_inconsistent_block_raises():
    blk = LinearSystem(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
    with pytest.raises(InconsistentBlock):
        project_onto_solution_set(blk, np.zeros(2))


# ---------------------------------------------------------------------------
# the intersection of blocks' solution sets: the stacked system's solution set
# ---------------------------------------------------------------------------

def test_intersection_examples():
    # the two axes' lines {x1 = 0} and {x2 = 0} meet at the origin
    stacked = LinearSystem(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    assert np.allclose(project_onto_solution_set(stacked, np.array([3.0, 4.0])), [0.0, 0.0])


def test_intersection_orthogonal_to_null_space():
    g = np.random.default_rng(8)
    # consistent underdetermined stack: 3 blocks of 4 rows in R^20
    z = g.standard_normal(20)
    stacked = np.vstack([g.standard_normal((4, 20)) for _ in range(3)])
    rhs = stacked @ z
    x = g.standard_normal(20)
    out = project_onto_solution_set(LinearSystem(stacked, rhs), x)
    assert np.linalg.norm(stacked @ out - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))
    # x - out lies in the row space: orthogonal to null-space samples
    _, _, vt = np.linalg.svd(stacked)
    null_basis = vt[np.linalg.matrix_rank(stacked):]
    for _ in range(20):
        direction = null_basis.T @ g.standard_normal(null_basis.shape[0])
        assert abs(np.dot(x - out, direction)) <= 1e-8 * (
            1 + np.linalg.norm(x) * np.linalg.norm(direction)
        )


# ---------------------------------------------------------------------------
# least_squares_solution
# ---------------------------------------------------------------------------

def test_least_squares_consistent_recovers_solution():
    g = np.random.default_rng(9)
    A = g.standard_normal((12, 5))
    x_star = g.standard_normal(5)
    out = least_squares_solution(LinearSystem(A, A @ x_star))
    assert np.allclose(out, x_star, atol=1e-10)


def test_least_squares_mean_example():
    system = LinearSystem(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert least_squares_solution(system) == pytest.approx([1.0])


def test_least_squares_normal_equations():
    g = np.random.default_rng(10)
    A = g.standard_normal((50, 10))
    b = g.standard_normal(50)
    system = LinearSystem(A, b)
    x = least_squares_solution(system)
    gradient = A.T @ (A @ x - b)
    assert np.linalg.norm(gradient) <= 1e-8 * np.linalg.norm(A.T @ b)


def test_least_squares_rank_deficient():
    A = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficient):
        least_squares_solution(LinearSystem(A, np.array([1.0, 2.0, 3.0])))


# ---------------------------------------------------------------------------
# expected_update
# ---------------------------------------------------------------------------

def subspace_blocks(rows):
    return [LinearSystem(np.atleast_2d(row), np.zeros(1)) for row in rows]


def test_expected_update_axes_example():
    blocks = subspace_blocks([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    out = expected_update(blocks, np.array([1.0, 1.0]), 1)
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_expected_update_fixed_point():
    blocks = subspace_blocks([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    out = expected_update(blocks, np.zeros(2), 1)
    assert np.array_equal(out, np.zeros(2))


def test_expected_update_non_expansive():
    g = np.random.default_rng(11)
    for m_clients, participants in [(3, 1), (4, 2), (5, 5)]:
        rows = [g.standard_normal(4) for _ in range(m_clients)]
        blocks = subspace_blocks(rows)
        x = g.standard_normal(4)
        out = expected_update(blocks, x, participants)
        assert np.linalg.norm(out) <= np.linalg.norm(x) + 1e-12


def test_expected_update_subset_cap():
    g = np.random.default_rng(12)
    blocks = subspace_blocks([g.standard_normal(3) for _ in range(30)])
    with pytest.raises(TooManySubsets):
        expected_update(blocks, np.ones(3), 15)


def test_expected_update_matches_monte_carlo_rounds():
    # simulated single rounds (tau exact for one-row blocks, tau_g = 1)
    g = np.random.default_rng(13)
    rows = [g.standard_normal(3) for _ in range(3)]
    blocks = subspace_blocks(rows)
    x = g.standard_normal(3)
    exact = expected_update(blocks, x, 2)

    cfg = RunConfig(
        clients=3, participants=2, local_iters=2, global_iters=1, rounds=1,
    )
    trials = 200_000
    stream = RngStream(999)
    streams = RoundStreams(select=stream, server=stream, local_stream=lambda cid: stream)
    total = np.zeros(3)
    total_sq = np.zeros(3)
    for _ in range(trials):
        x_next, _, _ = fed_round(blocks, x, cfg, streams)
        total += x_next
        total_sq += x_next * x_next
    mean = total / trials
    variance = total_sq / trials - mean * mean
    stderr = np.sqrt(np.maximum(variance, 0.0) / trials)
    assert np.all(np.abs(mean - exact) <= 3 * stderr + 1e-12)
