"""Tests for classic RK runs, the contraction factor, and decay diagnostics."""

import numpy as np
import pytest

import fedrk.solver as solver
from fedrk.core import RngStream, SamplingScheme, row_norms_sq
from fedrk.errors import DimensionMismatch, ZeroRow
from fedrk.federation import build_server_system
from fedrk.solver import LinearSystem, rk_iterate
from harness import gaussian_consistent
from oracles import (
    WeightError,
    contraction_factor,
    decay_functional,
    fit_decay_rate,
    rk_run,
    rk_step,
)

UNIFORM = SamplingScheme.uniform()
SQNORM = SamplingScheme.squared_row_norm()


# ---------------------------------------------------------------------------
# LinearSystem
# ---------------------------------------------------------------------------

def test_linear_system_validation():
    with pytest.raises(DimensionMismatch):
        LinearSystem(np.eye(2), np.zeros(3))
    with pytest.raises(ZeroRow):
        LinearSystem(np.zeros((2, 2)), np.zeros(2))
    system = LinearSystem([[0.0, 0.0], [1.0, 2.0]], [0.0, 1.0])
    assert system.rows == 2 and system.cols == 2


def test_linear_system_rejects_overflowing_row_norm():
    # entries near 1e160 are finite, but their squared norms are not
    A = np.ones((12, 4))
    A[3] = 1e160
    A[7, 0] = -1e160
    with pytest.raises(ValueError, match="row 3 of A has a squared norm that overflows"):
        LinearSystem(A, np.ones(12))
    LinearSystem(1e150 * A[:3], np.ones(3))  # squares near 1e300 still fit


# ---------------------------------------------------------------------------
# rk_run
# ---------------------------------------------------------------------------

def test_rk_run_identity_system_converges():
    system = LinearSystem(np.eye(2), np.array([1.0, 2.0]))
    x, residuals = rk_run(system, np.zeros(2), 200, UNIFORM, RngStream(1))
    assert np.linalg.norm(x - np.array([1.0, 2.0])) < 1e-8
    assert residuals.shape == (201,)
    assert residuals[0] == pytest.approx(np.sqrt(5.0)) and residuals[-1] < 1e-8


def test_rk_run_from_exact_solution_stays():
    system, x_star = gaussian_consistent(12, 4, 2)
    x, errors = rk_run(system, x_star, 100, SQNORM, RngStream(3), x_ref=x_star)
    assert errors.shape == (101,) and np.all(errors <= 1e-12)
    assert np.allclose(x, x_star, atol=1e-12)


def test_rk_run_zero_iters_returns_x0():
    system, _ = gaussian_consistent(6, 3, 4)
    x0 = np.array([1.0, -2.0, 0.5])
    x, residuals = rk_run(system, x0, 0, SQNORM, RngStream(5))
    assert np.array_equal(x, x0)
    assert residuals.tolist() == [system.residual_norm(x0)]


def test_rk_run_matches_repeated_rk_step():
    system, _ = gaussian_consistent(8, 3, 6)
    iters = 25
    x, _ = rk_run(system, np.zeros(3), iters, SQNORM, RngStream(7))
    from fedrk.core import sample_rows

    idx = sample_rows(SQNORM.cdf(row_norms_sq(system.A)), RngStream(7), iters)
    y = np.zeros(3)
    for j in idx:
        y = rk_step(system.A[j], system.b[j], y)
    assert np.allclose(x, y, atol=1e-14, rtol=0)


def test_rk_run_continuation_equals_single_run():
    system, _ = gaussian_consistent(10, 4, 8)
    whole, _ = rk_run(system, np.zeros(4), 30, SQNORM, RngStream(11, (2,)))
    stream = RngStream(11, (2,))
    part, _ = rk_run(system, np.zeros(4), 12, SQNORM, stream)
    rest, _ = rk_run(system, part, 18, SQNORM, stream)
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

        idx = sample_rows(SQNORM.cdf(row_norms_sq(zero_sys.A)), rng, steps)
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
# rk_iterate: the dual kernel against the sequential one
# ---------------------------------------------------------------------------

def sequential_kernel(system, x, *, iters, scheme, rng):
    """rk_iterate without its choice of kernel: always the sequential one."""
    setup = system.kaczmarz_setup(scheme)
    indices = solver._sampled_rows(setup, iters, rng)
    return solver._rk_sequential(setup, x, indices)


def both_kernels(system, x0, iters, scheme, seed):
    """rk_iterate's own choice of kernel, and its sequential kernel, on the
    same stream."""
    chosen = rk_iterate(system, x0.copy(), iters=iters, scheme=scheme, rng=RngStream(seed))
    sequential = sequential_kernel(
        system, x0.copy(), iters=iters, scheme=scheme, rng=RngStream(seed)
    )
    return chosen, sequential


def derived_system(rows, cols, seed):
    # the server's derived system from ``rows`` random model changes
    g = np.random.default_rng(seed)
    x = g.standard_normal(cols)
    deltas = [(cid, g.standard_normal(cols)) for cid in range(rows)]
    return build_server_system(deltas, x, 0.0), x


def dual_cases():
    g = np.random.default_rng(2024)
    for _ in range(40):
        rows = int(g.integers(1, 12))
        cols = int(g.integers(rows, 60))
        iters = int(g.integers(max(32, rows), 300))
        A = g.standard_normal((rows, cols)) * float(g.choice([1e-3, 1.0, 1e4]))
        consistent = g.random() < 0.5
        b = A @ g.standard_normal(cols) if consistent else g.standard_normal(rows)
        scheme = UNIFORM if g.random() < 0.5 else SQNORM
        yield LinearSystem(A, b), g.standard_normal(cols), iters, scheme
    # repeated rows in every chunk; tau not a multiple of 32
    A = np.random.default_rng(1).standard_normal((2, 5))
    yield LinearSystem(A, np.array([1.0, -2.0])), np.zeros(5), 77, UNIFORM
    # a single row sampled uniformly: no draw at all
    yield LinearSystem(A[:1], np.array([3.0])), np.ones(5), 40, UNIFORM
    # the server's derived system, sampled uniformly
    for rows, cols, iters in ((4, 100, 2000), (5, 5, 33), (1, 8, 64)):
        srs, x = derived_system(rows, cols, rows + cols)
        yield srs, x, iters, UNIFORM


def test_dual_kernel_matches_sequential(monkeypatch):
    calls = []
    dual = solver._rk_dual
    monkeypatch.setattr(solver, "_rk_dual", lambda *args: calls.append(1) or dual(*args))
    cases = list(dual_cases())
    for system, x0, iters, scheme in cases:
        chosen, sequential = both_kernels(system, x0, iters, scheme, iters)
        tol = 1e-12 * (1.0 + np.linalg.norm(sequential))
        assert np.max(np.abs(chosen - sequential)) <= tol
    assert len(calls) == len(cases)


@pytest.mark.parametrize("rows, cols, iters", [(6, 20, 31), (30, 20, 64), (21, 20, 40)])
def test_outside_the_dual_rule_runs_are_bit_identical(rows, cols, iters):
    # fewer than 32 steps, or more rows than columns: the sequential kernel
    g = np.random.default_rng(rows + cols + iters)
    A = g.standard_normal((rows, cols))
    system = LinearSystem(A, A @ g.standard_normal(cols))
    x0 = g.standard_normal(cols)
    chosen, sequential = both_kernels(system, x0, iters, SQNORM, 5)
    assert np.array_equal(chosen, sequential)


@pytest.mark.parametrize("with_ref", [True, False])
def test_rk_run_is_the_sequential_kernel_on_dual_shapes(with_ref):
    system, x_star = gaussian_consistent(10, 100, 12)
    x0 = np.ones(100)
    x_ref = x_star if with_ref else None
    x, _ = rk_run(system, x0, 2000, SQNORM, RngStream(4), x_ref=x_ref)
    _, sequential = both_kernels(system, x0, 2000, SQNORM, 4)
    assert np.array_equal(x, sequential)


def test_dual_kernel_consumes_the_same_draws():
    # shared-stream rounds depend on the next draw after a local run
    system, _ = gaussian_consistent(10, 100, 13)
    nexts = []
    for kernel in (rk_iterate, sequential_kernel):
        stream = RngStream(99)
        kernel(system, np.zeros(100), iters=70, scheme=SQNORM, rng=stream)
        nexts.append(stream.generator.random())
    assert nexts[0] == nexts[1]


def test_zero_row_has_the_same_message_in_both_kernels():
    # two zero rows: the error names whichever is sampled first
    A = np.zeros((3, 4))
    A[0, 0] = 1.0
    system = LinearSystem(A, np.array([1.0, 0.0, 0.0]))
    named = set()
    for seed in range(6):
        messages = []
        for kernel in (rk_iterate, sequential_kernel):
            with pytest.raises(ZeroRow) as err:
                kernel(system, np.zeros(4), iters=64, scheme=UNIFORM, rng=RngStream(seed))
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        named.add(messages[0])
    assert named == {"sampled row 1 is numerically zero", "sampled row 2 is numerically zero"}


def chunk_solves():
    """``(lower triangle of G[J, J], r[J])`` pairs as the dual kernel builds them."""
    g = np.random.default_rng(31)
    A = g.standard_normal((40, 60))
    A[::2] *= 1e6  # row norms that differ by 1e6
    r = g.standard_normal(40) * 1e3
    G = solver.gram_matrix(A, row_norms_sq(A))
    for J in (
        g.integers(0, 40, 32),  # a full chunk
        g.integers(0, 40, 13),  # a partial chunk
        np.repeat(g.integers(0, 40, 8), 4),  # repeated rows
        g.integers(0, 2, 32),  # two rows of norms 1e6 apart, repeated
    ):
        t = J.size
        yield G[J][:, J] * solver._LOWER[:t, :t], r[J]


def test_unwrapped_solve_is_bit_identical_to_np_linalg_solve():
    # the dual kernel calls np.linalg.solve's gufunc directly; the digests
    # of its runs rest on the two giving the same bits
    for L, rJ in chunk_solves():
        direct = solver._solve1(L, rJ, signature="dd->d")
        assert np.all(np.isfinite(direct))
        assert np.array_equal(direct, np.linalg.solve(L, rJ))


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


@pytest.mark.parametrize("scheme", [UNIFORM, SQNORM], ids=["uniform", "sqnorm"])
def test_contraction_factor_is_the_decay_at_the_top_eigenvector(scheme):
    # alpha is the maximum of the decay functional over unit vectors, so it
    # equals the decay at the top eigenvector of sum_s p_s (I - n_s n_s^T)
    # and, up to rounding, is never below it
    A = np.random.default_rng(7).standard_normal((400, 200))
    probs = scheme.probabilities(row_norms_sq(A))
    rows = list(A)
    expected = np.zeros((200, 200))
    for p_s, row in zip(probs, rows):
        unit = row / np.linalg.norm(row)
        expected += p_s * (np.eye(200) - np.outer(unit, unit))
    top = np.linalg.eigh(expected)[1][:, -1]
    value = decay_functional(rows, probs, top)
    alpha = contraction_factor(A, scheme)
    assert abs(alpha - value) <= 1e-10
    assert alpha >= value - 1e-12


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
    fit = fit_decay_rate([1.0, 0.5, 0.25, 0.125])
    assert fit.rate == pytest.approx(0.5, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.degenerate


def test_fit_decay_rate_constant():
    fit = fit_decay_rate([1.0, 1.0, 1.0])
    assert fit.rate == pytest.approx(1.0, rel=1e-12)


def test_fit_decay_rate_noisy_regression():
    fit = fit_decay_rate([1.0, 0.51, 0.24])
    assert 0.45 <= fit.rate <= 0.55


def test_fit_decay_rate_degenerate_zero():
    fit = fit_decay_rate(np.array([1.0, 0.5, 0.0]))
    assert fit.degenerate
    assert fit.rate == 0.0


def test_fit_decay_rate_drops_noise_floor():
    values = [1.0, 0.1, 0.01, 1e-16, 2e-16]
    fit = fit_decay_rate(values)
    assert fit.rate == pytest.approx(0.1, rel=1e-6)


def test_fit_decay_rate_needs_three_points():
    with pytest.raises(ValueError):
        fit_decay_rate([1.0, 0.5])


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
def test_fit_decay_rate_rejects_negative_or_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite and non-negative"):
        fit_decay_rate([1.0, 0.5, bad, 0.125])
