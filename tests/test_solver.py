"""Tests for classic RK runs, the contraction factor, and decay diagnostics."""

import numpy as np
import pytest

from fedrk.core import RngStream, SamplingScheme, rk_step, row_norms_sq
from fedrk.errors import DimensionMismatch, WeightError, ZeroRow
from fedrk.solver import (
    IterateTrace,
    LinearSystem,
    contraction_factor,
    decay_functional,
    fit_decay_rate,
    rk_run,
)

UNIFORM = SamplingScheme.uniform()
SQNORM = SamplingScheme.squared_row_norm()


def gaussian_consistent(m, n, seed):
    g = np.random.default_rng(seed)
    A = g.standard_normal((m, n))
    x_star = g.standard_normal(n)
    return LinearSystem(A, A @ x_star), x_star


# ---------------------------------------------------------------------------
# LinearSystem / IterateTrace
# ---------------------------------------------------------------------------

def test_linear_system_validation():
    with pytest.raises(DimensionMismatch):
        LinearSystem(np.eye(2), np.zeros(3))
    with pytest.raises(ZeroRow):
        LinearSystem(np.zeros((2, 2)), np.zeros(2))
    system = LinearSystem([[0.0, 0.0], [1.0, 2.0]], [0.0, 1.0])
    assert system.rows == 2 and system.cols == 2


def test_iterate_trace_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        IterateTrace([1, 2], [0.5, 0.25])
    with pytest.raises(ValueError):
        IterateTrace([0, 1], [0.5, -0.1])
    trace = IterateTrace([0, 1, 2], [1.0, 0.25, 0.0625])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = IterateTrace.from_csv(path)
    assert np.array_equal(back.steps, trace.steps)
    assert np.array_equal(back.values, trace.values)


# ---------------------------------------------------------------------------
# rk_run
# ---------------------------------------------------------------------------

def test_rk_run_identity_system_converges():
    system = LinearSystem(np.eye(2), np.array([1.0, 2.0]))
    x, trace = rk_run(system, np.zeros(2), 200, UNIFORM, RngStream(1))
    assert np.linalg.norm(x - np.array([1.0, 2.0])) < 1e-8
    assert trace.values[-1] < 1e-8


def test_rk_run_from_exact_solution_stays():
    system, x_star = gaussian_consistent(12, 4, 2)
    x, trace = rk_run(system, x_star, 100, SQNORM, RngStream(3), x_ref=x_star)
    assert np.all(trace.values <= 1e-12)
    assert np.allclose(x, x_star, atol=1e-12)


def test_rk_run_zero_iters_returns_x0():
    system, _ = gaussian_consistent(6, 3, 4)
    x0 = np.array([1.0, -2.0, 0.5])
    x, trace = rk_run(system, x0, 0, SQNORM, RngStream(5))
    assert np.array_equal(x, x0)
    assert trace.steps.tolist() == [0]


def test_rk_run_matches_repeated_rk_step():
    system, _ = gaussian_consistent(8, 3, 6)
    iters = 25
    x, _ = rk_run(system, np.zeros(3), iters, SQNORM, RngStream(7), record=False)
    from fedrk.core import sample_rows

    idx = sample_rows(SQNORM, RngStream(7), system.A, iters)
    y = np.zeros(3)
    for j in idx:
        y = rk_step(system.A[j], system.b[j], y)
    assert np.allclose(x, y, atol=1e-14, rtol=0)


def test_rk_run_continuation_equals_single_run():
    system, _ = gaussian_consistent(10, 4, 8)
    whole, _ = rk_run(system, np.zeros(4), 30, SQNORM, RngStream(11, (2,)), record=False)
    stream = RngStream(11, (2,))
    part, _ = rk_run(system, np.zeros(4), 12, SQNORM, stream, record=False)
    rest, _ = rk_run(system, part, 18, SQNORM, stream, record=False)
    assert np.array_equal(whole, rest)


def test_rk_run_monte_carlo_contraction():
    # mean one-step squared-norm decay stays below the variational bound
    runs, steps = 100, 40
    system, _ = gaussian_consistent(200, 50, 9)
    zero_sys = LinearSystem(system.A, np.zeros(200))
    alpha = contraction_factor(system.A, SQNORM)
    ratios = []
    for run in range(runs):
        rng = RngStream(1000 + run)
        y = rng.generator.standard_normal(50)
        y /= np.linalg.norm(y)
        from fedrk.core import sample_rows

        idx = sample_rows(SQNORM, rng, zero_sys.A, steps)
        for j in idx:
            y_next = rk_step(zero_sys.A[j], 0.0, y)
            ratios.append(float(np.dot(y_next, y_next)))
            nrm = np.linalg.norm(y_next)
            y = y_next / nrm
    assert np.mean(ratios) <= alpha + 0.05


def test_rk_run_propagates_zero_row():
    system = LinearSystem([[0.0, 0.0], [1.0, 1.0]], [0.0, 2.0])
    with pytest.raises(ZeroRow):
        rk_run(system, np.zeros(2), 50, UNIFORM, RngStream(1))


def test_rk_run_dimension_mismatch():
    system, _ = gaussian_consistent(5, 3, 10)
    with pytest.raises(DimensionMismatch):
        rk_run(system, np.zeros(4), 5, SQNORM, RngStream(0))


# ---------------------------------------------------------------------------
# contraction_factor
# ---------------------------------------------------------------------------

def test_contraction_factor_examples():
    assert contraction_factor(np.eye(2), UNIFORM) == pytest.approx(0.5, abs=1e-9)
    assert contraction_factor(np.array([[1.0, 0.0]]), UNIFORM) == pytest.approx(1.0, abs=1e-9)
    assert contraction_factor(np.array([[3.0]]), UNIFORM) == pytest.approx(0.0, abs=1e-12)


def test_contraction_factor_orthogonal_start_pathology():
    # all-ones start vector is exactly orthogonal to the top eigenvector here
    assert contraction_factor(np.array([[1.0, 1.0]]), UNIFORM) == pytest.approx(1.0, abs=1e-9)


def test_contraction_factor_zero_row():
    with pytest.raises(ZeroRow):
        contraction_factor(np.array([[1.0, 0.0], [0.0, 0.0]]), UNIFORM)


def test_contraction_factor_matches_grid_maximum():
    angles = np.linspace(0.0, 2 * np.pi, 3601)
    ys = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for seed, scheme in [(0, UNIFORM), (1, SQNORM), (2, UNIFORM)]:
        A = np.random.default_rng(seed).standard_normal((4, 2))
        probs = scheme.probabilities(row_norms_sq(A))
        rows = [A[j] for j in range(4)]
        alpha = contraction_factor(A, scheme)
        grid_max = max(decay_functional(rows, probs, y) for y in ys)
        assert abs(alpha - grid_max) < 1e-3


def test_expected_step_decay_identity():
    # E||x_1||^2 enumerated over rows equals ||x||^2 f(rows, p, x/||x||)
    g = np.random.default_rng(14)
    for _ in range(5):
        A = g.standard_normal((5, 3))
        x = g.standard_normal(3)
        for scheme in (UNIFORM, SQNORM):
            probs = scheme.probabilities(row_norms_sq(A))
            expected = 0.0
            for j in range(5):
                step = rk_step(A[j], 0.0, x)
                expected += probs[j] * float(np.dot(step, step))
            rows = [A[j] for j in range(5)]
            f_val = decay_functional(rows, probs, x / np.linalg.norm(x))
            assert expected == pytest.approx(float(np.dot(x, x)) * f_val, rel=1e-12)


# ---------------------------------------------------------------------------
# decay_functional
# ---------------------------------------------------------------------------

def test_decay_functional_examples():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert decay_functional([e2], [1.0], e1) == pytest.approx(1.0, abs=1e-15)
    assert decay_functional([e2], [1.0], e2) == pytest.approx(0.0, abs=1e-15)
    assert decay_functional([e1, e2], [0.5, 0.5], e1) == pytest.approx(0.5, abs=1e-15)


def test_decay_functional_range_and_errors():
    g = np.random.default_rng(15)
    normals = [g.standard_normal(4) for _ in range(3)]
    y = g.standard_normal(4)
    value = decay_functional(normals, np.full(3, 1 / 3), y)
    assert 0.0 <= value <= float(np.dot(y, y))
    with pytest.raises(WeightError):
        decay_functional(normals, [0.5, 0.5], y)
    with pytest.raises(WeightError):
        decay_functional(normals, [0.9, 0.2, -0.1], y)
    with pytest.raises(ZeroRow):
        decay_functional([np.zeros(4)], [1.0], y)
    with pytest.raises(DimensionMismatch):
        decay_functional([np.ones(3)], [1.0], y)


# ---------------------------------------------------------------------------
# fit_decay_rate
# ---------------------------------------------------------------------------

def test_fit_decay_rate_geometric():
    trace = IterateTrace([0, 1, 2, 3], [1.0, 0.5, 0.25, 0.125])
    fit = fit_decay_rate(trace)
    assert fit.rate == pytest.approx(0.5, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.degenerate


def test_fit_decay_rate_constant():
    fit = fit_decay_rate(IterateTrace([0, 1, 2], [1.0, 1.0, 1.0]))
    assert fit.rate == pytest.approx(1.0, rel=1e-12)


def test_fit_decay_rate_noisy_regression():
    fit = fit_decay_rate(IterateTrace([0, 1, 2], [1.0, 0.51, 0.24]))
    assert 0.45 <= fit.rate <= 0.55


def test_fit_decay_rate_degenerate_zero():
    fit = fit_decay_rate(IterateTrace([0, 1, 2], [1.0, 0.5, 0.0]))
    assert fit.degenerate
    assert fit.rate == 0.0


def test_fit_decay_rate_drops_noise_floor():
    values = [1.0, 0.1, 0.01, 1e-16, 2e-16]
    fit = fit_decay_rate(IterateTrace(range(5), values))
    assert fit.rate == pytest.approx(0.1, rel=1e-6)


def test_fit_decay_rate_needs_three_points():
    with pytest.raises(ValueError):
        fit_decay_rate(IterateTrace([0, 1], [1.0, 0.5]))
