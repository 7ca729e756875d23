"""Tests for round orchestration: partitioning, local updates, server solve."""

from dataclasses import replace

import numpy as np
import pytest

from fedrk.core import RngStream, SamplingScheme, derive_seed
from fedrk.errors import DimensionMismatch, NumericalError, RoundError, TooManyClients, ZeroRow
from fedrk.federation import (
    CHUNK_ROUNDS,
    TAG_SELECT,
    TAG_SERVER,
    RoundStreams,
    RunConfig,
    StreamTable,
    apply_server_round,
    build_server_system,
    client_blocks,
    client_local_update,
    fed_round,
    fed_run,
    run_rounds,
    sample_clients,
    trace_writer,
)
from fedrk.solver import LinearSystem
from harness import gaussian_consistent
from oracles import project_onto_solution_set

SQNORM = SamplingScheme.squared_row_norm()
UNIFORM = SamplingScheme.uniform()


def axes_system():
    # client 0 owns {x1 = 0}, client 1 owns {x2 = 0}
    return LinearSystem(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))


def config(**kwargs):
    defaults = dict(
        clients=2, participants=2, local_iters=10, global_iters=10,
        rounds=1, master_seed=0,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def test_partition_even_split():
    system, _ = gaussian_consistent(6, 2, 0)
    blocks = client_blocks(system, 3)
    assert [blk.rows for blk in blocks] == [2, 2, 2]


def test_partition_remainder_to_early_clients():
    system, _ = gaussian_consistent(7, 2, 1)
    assert [blk.rows for blk in client_blocks(system, 3)] == [3, 2, 2]


def test_partition_too_many_clients():
    system, _ = gaussian_consistent(3, 2, 2)
    with pytest.raises(TooManyClients):
        client_blocks(system, 4)
    with pytest.raises(ValueError):
        client_blocks(system, 0)


def test_partition_names_the_client_of_an_all_zero_block():
    A = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ZeroRow) as err:
        client_blocks(LinearSystem(A, np.ones(5)), 3)
    assert str(err.value) == "client 1's rows 2 to 3 are all zero"
    assert isinstance(err.value, ValueError)


def test_client_blocks_slicing():
    system, _ = gaussian_consistent(7, 3, 3)
    blocks = client_blocks(system, 2)
    assert blocks[0].rows == 4 and blocks[1].rows == 3
    assert np.array_equal(blocks[1].A, system.A[4:])


def test_client_blocks_tile_the_system_in_order():
    system, _ = gaussian_consistent(11, 3, 4)
    for clients in range(1, 12):
        blocks = client_blocks(system, clients)
        assert len(blocks) == clients
        assert all(blk.rows >= 1 for blk in blocks)
        assert np.array_equal(np.vstack([blk.A for blk in blocks]), system.A)
        assert np.array_equal(np.concatenate([blk.b for blk in blocks]), system.b)


# ---------------------------------------------------------------------------
# client sampling
# ---------------------------------------------------------------------------

def test_sample_clients_full_participation():
    for seed in range(5):
        assert sample_clients(5, 5, RngStream(seed)) == [0, 1, 2, 3, 4]


def test_sample_clients_sorted_and_valid():
    rng = RngStream(17)
    for _ in range(100):
        picked = sample_clients(16, 5, rng)
        assert picked == sorted(set(picked))
        assert all(0 <= cid < 16 for cid in picked)


def test_sample_clients_frequencies():
    rng = RngStream(23)
    counts = np.zeros(16)
    rounds = 100_000
    for _ in range(rounds):
        counts[sample_clients(16, 5, rng)] += 1
    freqs = counts / rounds
    assert np.all(np.abs(freqs - 5 / 16) < 0.01)


def test_sample_clients_singleton_frequencies():
    rng = RngStream(29)
    counts = np.zeros(3)
    rounds = 100_000
    for _ in range(rounds):
        counts[sample_clients(3, 1, rng)] += 1
    assert np.all(np.abs(counts / rounds - 1 / 3) < 0.01)


def test_sample_clients_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_clients(4, 0, RngStream(0))
    with pytest.raises(ValueError):
        sample_clients(4, 5, RngStream(0))


# ---------------------------------------------------------------------------
# client local update
# ---------------------------------------------------------------------------

def test_local_update_zero_when_block_solved():
    block, x_star = gaussian_consistent(4, 6, 5)
    delta = client_local_update(block, x_star, 50, SQNORM, RngStream(1))
    assert np.all(np.abs(delta) <= 1e-12)


def test_local_update_single_row_projection():
    block = LinearSystem(np.array([[1.0, 0.0]]), np.array([0.0]))
    for tau in (1, 3, 10):
        delta = client_local_update(block, np.array([1.0, 0.0]), tau, SQNORM, RngStream(2))
        assert np.allclose(delta, [-1.0, 0.0], atol=1e-15)


def test_local_update_converges_to_projection_oracle():
    g = np.random.default_rng(31)
    for seed in range(3):
        A = g.standard_normal((5, 20))
        z = g.standard_normal(20)
        block = LinearSystem(A, A @ z)
        x = g.standard_normal(20)
        delta = client_local_update(block, x, 10_000, SQNORM, RngStream(seed))
        target = project_onto_solution_set(block, x)
        assert np.linalg.norm((x + delta) - target) < 1e-6


# ---------------------------------------------------------------------------
# server system construction
# ---------------------------------------------------------------------------

def test_build_server_system_drops_zero_deltas():
    x = np.array([1.0, 2.0])
    srs = build_server_system([(0, np.zeros(2)), (1, np.zeros(2))], x, 1e-12)
    assert srs.is_empty
    assert srs.kept_client_ids == ()


def test_build_server_system_d_examples():
    x = np.array([1.0, 0.0])
    srs = build_server_system([(0, np.array([-1.0, 0.0]))], x, 1e-12)
    assert srs.d[0] == 0.0  # <(-1,0), (0,0)>
    srs = build_server_system([(0, np.array([0.0, 1.0]))], np.zeros(2), 1e-12)
    assert srs.d[0] == 1.0  # <(0,1), (0,1)>


def test_build_server_system_sorts_by_client_id():
    x = np.zeros(2)
    deltas = [(2, np.array([0.0, 1.0])), (0, np.array([1.0, 0.0]))]
    srs = build_server_system(deltas, x, 1e-12)
    assert srs.kept_client_ids == (0, 2)
    assert np.array_equal(srs.delta_rows, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_build_server_system_dimension_check():
    with pytest.raises(DimensionMismatch):
        build_server_system([(0, np.ones(3))], np.zeros(2), 1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_server_system_non_finite_delta_names_client(bad):
    deltas = [(0, np.ones(2)), (3, np.array([1.0, bad]))]
    with pytest.raises(RoundError) as err:
        build_server_system(deltas, np.zeros(2), 1e-12)
    assert err.value.client_id == 3


def test_build_server_system_overflowing_d_names_client():
    # ||delta||^2 is finite but <delta, delta + x> overflows; called outside
    # a run, numpy warns of the overflow before the typed error
    deltas = [(0, np.ones(2)), (5, np.array([1e154, 0.0]))]
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericalError) as err:
        build_server_system(deltas, np.array([1e155, 0.0]), 1e-12)
    assert err.value.client_id == 5


def test_apply_server_round_rejects_non_finite_iterate(monkeypatch):
    import fedrk.federation as federation

    monkeypatch.setattr(federation, "_server_rk", lambda *args: np.array([np.inf, 0.0]))
    x = np.array([1.0, 2.0])
    with pytest.raises(NumericalError) as err:
        federation.apply_server_round([(0, np.ones(2))], x, config(sparsity=1), RngStream(0))
    assert err.value.client_id is None


def test_overflowing_client_is_named_with_its_round():
    # client 2's right-hand side drives its local iterate to ~1e300, whose
    # squared norm overflows; the run skips the residual, so the round's
    # server half is the first to see it
    g = np.random.default_rng(5)
    A = g.standard_normal((6, 2))
    b = A @ g.standard_normal(2)
    b[4:] = 1e300
    cfg = config(clients=3, participants=3, local_iters=5, global_iters=2, rounds=3)
    with pytest.raises(NumericalError) as err:
        run_rounds(LinearSystem(A, b), cfg, np.zeros(2), lambda *args: None)
    assert (err.value.client_id, err.value.round_index) == (2, 1)
    assert str(err.value).startswith("round 1: client 2")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("run", ["run_rounds", "loopback"])
def test_overflowing_round_tolerance_is_a_numerical_error(run):
    # ||x||^2 overflows, so the round's zero tolerance would be inf and
    # every row would count as zero; rows that sum to zero keep the
    # loopback run's round-0 residual finite
    A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
    system, x0 = LinearSystem(A, np.ones(3)), np.full(3, 1e200)
    cfg = config(clients=1, participants=1, local_iters=4, rounds=2)
    with pytest.raises(NumericalError) as err:
        if run == "loopback":
            _run_server_loopback(system, cfg, x0)
        else:
            run_rounds(system, cfg, x0, lambda *args: None)
    assert (err.value.client_id, err.value.round_index) == (None, 1)
    assert str(err.value) == "round 1: the iterate's squared norm overflows"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_dual_run_names_the_client(monkeypatch):
    # client 1's rows are nearly parallel, with right-hand sides of +-big:
    # its dual run overflows (at 1e307 in the final A^T c, at 1e308 inside
    # chunk solves), and the round's build names the client's delta
    import fedrk.solver as solver

    solves = []
    solve1 = solver._solve1
    monkeypatch.setattr(
        solver, "_solve1", lambda *args, **kw: solves.append(solve1(*args, **kw)) or solves[-1]
    )
    A = np.zeros((4, 40))
    A[0, 0] = A[1, 1] = A[2, 0] = A[3, 0] = 1.0
    A[3, 1] = 1e-3
    cfg = config(local_iters=40, global_iters=2, rounds=3)
    for big in (1e307, 1e308):
        system = LinearSystem(A, np.array([1.0, 1.0, big, -big]))
        with pytest.raises(NumericalError) as err:
            run_rounds(system, cfg, np.zeros(40), lambda *args: None)
        assert (err.value.client_id, err.value.round_index) == (1, 1)
        assert str(err.value) == "round 1: client 1 sent a non-finite delta"
    assert any(not np.isfinite(s).all() for s in solves)


def test_apply_server_round_arrival_order_independent():
    g = np.random.default_rng(73)
    x = g.standard_normal(4)
    deltas = [(cid, g.standard_normal(4)) for cid in range(3)]
    cfg = config(clients=3, participants=3, global_iters=6)
    forward, kept_a = apply_server_round(list(deltas), x, cfg, RngStream(1, (0,)))
    backward, kept_b = apply_server_round(deltas[::-1], x, cfg, RngStream(1, (0,)))
    assert np.array_equal(forward, backward)
    assert kept_a == kept_b


# ---------------------------------------------------------------------------
# server solve
# ---------------------------------------------------------------------------

def test_server_solve_empty_is_identity():
    x = np.array([3.0, -1.0])
    out, kept = apply_server_round([], x, config(global_iters=10), RngStream(0))
    assert kept == ()
    assert np.array_equal(out, x)
    assert out is not x


def test_server_keeps_a_small_change_against_a_small_iterate():
    # a change is zero only against the iterate it was made from: at
    # ||x|| = 1e-3 a change of norm 1e-14 is kept, and the derived system
    # marks no row as zero although its rows' squared norms differ by 1e28
    x = np.array([1e-3, 0.0])
    deltas = [(0, np.array([0.0, 1.0])), (1, np.array([0.0, 1e-14]))]
    out, kept = apply_server_round(deltas, x, config(global_iters=40), RngStream(3))
    assert kept == (0, 1)
    assert np.isfinite(out).all()


def test_server_solve_single_row_one_step_recovers_delta():
    # d_i - <delta, x> = ||delta||^2, so one step jumps exactly to x + delta
    g = np.random.default_rng(37)
    for _ in range(200):
        n = int(g.integers(2, 12))
        x = g.standard_normal(n) * g.choice([0.1, 1.0, 100.0])
        delta = g.standard_normal(n)
        out, _ = apply_server_round([(0, delta)], x, config(global_iters=1), RngStream(1))
        tol = 1e-12 * (1.0 + np.linalg.norm(x))
        assert np.max(np.abs(out - (x + delta))) <= tol


def test_server_solve_orthogonal_rows_reach_intersection():
    x = np.array([5.0, -3.0])
    deltas = [(0, np.array([2.0, 0.0])), (1, np.array([0.0, 1.5]))]
    srs = build_server_system(deltas, x, 1e-12)
    out, kept = apply_server_round(deltas, x, config(global_iters=60), RngStream(5))
    assert kept == (0, 1)
    # hyperplanes 2 x1 = d0 and 1.5 x2 = d1 intersect at the joint solution
    expected = np.array([srs.d[0] / 2.0, srs.d[1] / 1.5])
    assert np.linalg.norm(out - expected) < 1e-8


# ---------------------------------------------------------------------------
# fed_round / fed_run
# ---------------------------------------------------------------------------

# shape = (rows, cols, tau = Gamma). Each *_dual_kernel variant has tau >= 32
# and no more rows per block than min(tau, cols), so rk_iterate takes its
# dual kernel there.
def test_fed_round_fixed_point_at_solution(shape=(8, 3, 10)):
    rows, cols, iters = shape
    system, x_star = gaussian_consistent(rows, cols, 41)
    blocks = client_blocks(system, 2)
    cfg = config(rounds=1, local_iters=iters, global_iters=iters)
    streams = RoundStreams.derive(cfg.master_seed, 0)
    x_next, participants, dropped = fed_round(blocks, x_star, cfg, streams)
    assert np.array_equal(x_next, x_star)
    assert participants == [0, 1]
    assert dropped == 2  # both deltas were zero and dropped


def test_fed_round_fixed_point_at_solution_dual_kernel():
    test_fed_round_fixed_point_at_solution((8, 40, 40))


def test_fed_round_axes_contract_to_origin():
    system = axes_system()
    blocks = client_blocks(system, 2)
    cfg = config(local_iters=30, global_iters=30, rounds=1)
    x = np.array([1.0, 1.0])
    streams = RoundStreams.derive(7, 0)
    x1, _, _ = fed_round(blocks, x, cfg, streams)
    assert np.linalg.norm(x1) < np.linalg.norm(x)
    for t in range(1, 40):
        x1, _, _ = fed_round(blocks, x1, cfg, RoundStreams.derive(7, t))
    assert np.linalg.norm(x1) < 1e-10


def test_fed_round_threshold_noop_on_support():
    # at a 1-sparse solution, thresholding after the round changes nothing
    system = LinearSystem(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([3.0, 6.0]))
    blocks = client_blocks(system, 2)
    cfg = config(sparsity=1, rounds=1)
    x_star = np.array([3.0, 0.0])
    x_next, _, _ = fed_round(blocks, x_star, cfg, RoundStreams.derive(0, 0))
    assert np.array_equal(x_next, x_star)


def test_fed_round_names_failing_client():
    # client 1's block contains a zero row; uniform local sampling hits it
    A = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    system = LinearSystem(A, np.array([1.0, 2.0, 2.0, 0.0]))
    blocks = client_blocks(system, 2)
    cfg = config(local_iters=50, local_scheme=UNIFORM, rounds=1)
    with pytest.raises(RoundError) as err:
        fed_round(blocks, np.ones(2), cfg, RoundStreams.derive(3, 0))
    assert err.value.client_id == 1


@pytest.mark.parametrize("run", ["fed_run", "loopback"])
def test_failed_client_is_named_alike_in_process_and_over_loopback(run):
    # the system of test_fed_round_names_failing_client: client 1 samples its zero row
    A = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    system = LinearSystem(A, np.array([1.0, 2.0, 2.0, 0.0]))
    cfg = config(local_iters=50, local_scheme=UNIFORM, rounds=2, master_seed=3)
    runner = fed_run if run == "fed_run" else _run_server_loopback
    with pytest.raises(RoundError) as err:
        runner(system, cfg, np.ones(2))
    assert type(err.value) is RoundError
    assert isinstance(err.value.__cause__, ZeroRow)
    assert (err.value.client_id, err.value.round_index) == (1, 1)
    assert str(err.value) == "round 1: client 1 failed: sampled row 1 is numerically zero"


def test_fed_run_zero_rounds_returns_x0():
    system, _ = gaussian_consistent(6, 3, 43)
    cfg = config(rounds=0)
    x0 = np.array([1.0, 2.0, 3.0])
    x, trace = fed_run(system, cfg, x0)
    assert np.array_equal(x, x0)
    assert trace.rounds == [0]


def _run_server_loopback(system, cfg, x0, x_ref=None):
    from fedrk.transport import Endpoint, run_server

    return run_server(Endpoint.loopback(), system, cfg, x0=x0, x_ref=x_ref)


@pytest.mark.parametrize("run", [fed_run, _run_server_loopback], ids=["fed_run", "loopback"])
def test_run_rejects_wrong_dimensions(run):
    system, x_star = gaussian_consistent(6, 3, 44)
    cfg = config(rounds=2)
    with pytest.raises(DimensionMismatch):
        run(system, cfg, np.zeros(4))
    with pytest.raises(DimensionMismatch):
        run(system, cfg, np.zeros(3), x_ref=np.zeros(2))
    x, _ = run(system, cfg, np.zeros(3), x_ref=x_star)
    assert x.shape == (3,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("run", [fed_run, _run_server_loopback], ids=["fed_run", "loopback"])
def test_overflowing_distance_to_x_ref_is_a_numerical_error(run):
    # rows that sum to zero keep the residual at 1e160·1 finite; the
    # distance from there to -1e160·1 overflows
    A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
    x0 = np.full(3, 1e160)
    with pytest.raises(NumericalError) as err:
        run(LinearSystem(A, np.ones(3)), config(), x0, x_ref=-x0)
    assert err.value.round_index == 0
    assert str(err.value) == "round 0: the distance to x_ref is not finite"


def test_fed_run_deterministic():
    system, x_star = gaussian_consistent(16, 4, 47)
    cfg = config(clients=4, participants=2, rounds=12, master_seed=99)
    x1, t1 = fed_run(system, cfg, np.zeros(4), x_ref=x_star)
    x2, t2 = fed_run(system, cfg, np.zeros(4), x_ref=x_star)
    assert np.array_equal(x1, x2)
    assert t1.csv_text() == t2.csv_text()


def test_fed_run_gaussian_surrogate_converges():
    # 128x32, 8 clients, 3 participants: near-total convergence across seeds
    hits = 0
    seeds = 100
    for seed in range(seeds):
        g = np.random.default_rng(1_000 + seed)
        A = g.standard_normal((128, 32))
        x_star = g.standard_normal(32)
        system = LinearSystem(A, A @ x_star)
        cfg = RunConfig(
            clients=8, participants=3, local_iters=20, global_iters=20,
            rounds=200, master_seed=seed,
        )
        x, trace = fed_run(system, cfg, np.zeros(32), x_ref=x_star)
        rel = trace.errors[-1] / trace.errors[0]
        hits += rel < 1e-6
    assert hits >= 95


def test_fed_run_monotone_contraction_in_expectation():
    # consistent systems translated so x* = 0: mean squared-norm ratio of
    # successive global iterates stays below 1 at every round
    seeds = 100
    rounds = 12
    ratios = np.empty((seeds, rounds))
    for seed in range(seeds):
        g = np.random.default_rng(7_000 + seed)
        A = g.standard_normal((24, 6))
        system = LinearSystem(A, np.zeros(24))  # x* = 0
        cfg = RunConfig(
            clients=4, participants=2, local_iters=5, global_iters=5,
            rounds=rounds, master_seed=seed,
        )
        x0 = g.standard_normal(6)
        _, trace = fed_run(system, cfg, x0, x_ref=np.zeros(6))
        errs = np.array(trace.errors)
        ratios[seed] = (errs[1:] / errs[:-1]) ** 2
    assert np.all(ratios.mean(axis=0) < 1.0)


def test_fed_run_zero_delta_round_is_fixed_point(shape=(10, 4, 10)):
    rows, cols, iters = shape
    system, x_star = gaussian_consistent(rows, cols, 53)
    cfg = config(clients=2, participants=2, rounds=5, local_iters=iters, global_iters=iters)
    x, trace = fed_run(system, cfg, x_star, x_ref=x_star)
    assert np.array_equal(x, x_star)
    assert all(err == 0.0 for err in trace.errors)
    assert all(drop == 2 for drop in trace.dropped[1:])


def test_fed_run_zero_delta_round_is_fixed_point_dual_kernel():
    test_fed_run_zero_delta_round_is_fixed_point((10, 40, 40))


# (k, mode, start): "b" scales b and x0 by 2^k, so the iterate scales too.
# "Ab" scales A and b and leaves x0 and the iterate unscaled; it runs for
# k <= 1 only, since scaling rows up cannot make a row or a change look zero
power_of_two_scalings = pytest.mark.parametrize("k, mode, start", [
    (k, mode, start)
    for k in (1, -60, -44, -40, 40, 60)
    for mode in ("b", "Ab")
    for start in ("ramp", "zero")
    if mode == "b" or k < 40
])


@power_of_two_scalings
def test_fed_run_scale_equivariance_exact_power_of_two(k, mode, start, shape=(12, 4, 10)):
    rows, cols, iters = shape
    system, _ = gaussian_consistent(rows, cols, 59)
    c = 2.0 ** k
    a_scale, x_scale = (1.0, c) if mode == "b" else (c, 1.0)
    scaled = LinearSystem(a_scale * system.A, c * system.b)
    cfg = config(
        clients=3, participants=2, rounds=8, master_seed=5,
        local_iters=iters, global_iters=iters,
    )
    x0 = np.arange(1.0, cols + 1.0) if start == "ramp" else np.zeros(cols)
    x1, t1 = fed_run(system, cfg, x0)
    x2, t2 = fed_run(scaled, cfg, x_scale * x0)
    assert np.array_equal(x_scale * x1, x2)
    assert np.array_equal(c * np.array(t1.residuals), np.array(t2.residuals))
    assert t1.dropped == t2.dropped


@power_of_two_scalings
def test_fed_run_scale_equivariance_exact_power_of_two_dual_kernel(k, mode, start):
    test_fed_run_scale_equivariance_exact_power_of_two(k, mode, start, (12, 40, 40))


def test_fed_run_scale_equivariance_general():
    system, _ = gaussian_consistent(12, 4, 61)
    c = 3.0
    scaled = LinearSystem(system.A, c * system.b)
    cfg = config(clients=3, participants=2, rounds=8, master_seed=6)
    x0 = np.arange(1.0, 5.0)
    x1, t1 = fed_run(system, cfg, x0)
    x2, t2 = fed_run(scaled, cfg, c * x0)
    assert np.allclose(c * x1, x2, rtol=1e-12, atol=1e-12)
    assert np.allclose(c * np.array(t1.residuals), np.array(t2.residuals), rtol=1e-12)


def test_fed_run_residual_tol_stops_early():
    system, x_star = gaussian_consistent(32, 8, 67)
    cfg = config(
        clients=4, participants=4, local_iters=30, global_iters=30,
        rounds=500, master_seed=8, residual_tol=1e-8,
    )
    x, trace = fed_run(system, cfg, np.zeros(8))
    assert trace.stopped_early
    assert trace.rounds[-1] < 500
    assert trace.residuals[-1] <= 1e-8


def test_fed_run_with_sparsity_matches_thresholded_dynamics():
    # sparsity >= n makes the threshold a no-op: identical to the plain run
    system, _ = gaussian_consistent(12, 4, 71)
    cfg_plain = config(clients=3, participants=2, rounds=6, master_seed=11)
    cfg_thresh = config(clients=3, participants=2, rounds=6, master_seed=11, sparsity=4)
    x1, t1 = fed_run(system, cfg_plain, np.zeros(4))
    x2, t2 = fed_run(system, cfg_thresh, np.zeros(4))
    assert np.array_equal(x1, x2)
    assert t1.csv_text() == t2.csv_text()


# ---------------------------------------------------------------------------
# stream table
# ---------------------------------------------------------------------------

def _numpy_key(entropy, spawn_key=()):
    """The Philox key numpy's own SeedSequence gives ``RngStream(entropy, spawn_key)``."""
    seq = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return seq.generate_state(2, np.uint64).tolist()


def _key(stream):
    return stream.generator.bit_generator.state["state"]["key"].tolist()


@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_stream_table_equals_numpy_seed_sequence(master_seed):
    # one-word and two-word master seeds; the last round index u32 holds
    table = StreamTable(config(clients=16, participants=5, rounds=2**32, master_seed=master_seed))
    for t in (0, 1, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, 2**32 - 1):
        streams = table.round(t)
        assert _key(streams.select) == _numpy_key(master_seed, (t, TAG_SELECT))
        assert _key(streams.server) == _numpy_key(master_seed, (t, TAG_SERVER))
        keys = table.stream_keys(t)
        assert list(keys) == sample_clients(16, 5, RngStream(master_seed, (t, TAG_SELECT)))
        for cid, key in keys.items():
            seq = np.random.SeedSequence(master_seed, spawn_key=(t, cid))
            seed = derive_seed(master_seed, t, cid)
            assert seed == int(seq.generate_state(1, np.uint64)[0])
            philox = np.random.Philox(np.random.SeedSequence(seed))
            assert list(key) == philox.state["state"]["key"].tolist()
            assert _key(streams.local_stream(cid)) == list(key)


def test_stream_table_generators_draw_what_fresh_streams_draw():
    cfg = config(clients=16, participants=5, rounds=3, master_seed=2**64 - 1)
    table = StreamTable(cfg)
    for draw in (lambda g: g.random(7), lambda g: g.choice(16, 5, replace=False)):
        streams = table.round(2)
        fresh = RoundStreams.derive(cfg.master_seed, 2)
        for cid in table.stream_keys(2):
            assert np.array_equal(draw(streams.local_stream(cid).generator),
                                  draw(fresh.local_stream(cid).generator))
        assert np.array_equal(draw(streams.select.generator), draw(fresh.select.generator))
        assert np.array_equal(draw(streams.server.generator), draw(fresh.server.generator))


def _derived_run(system, cfg, x0):
    """A run whose every round takes its streams from RoundStreams.derive."""
    blocks = client_blocks(system, cfg.clients)
    trace, on_round = trace_writer(system, cfg)

    def step(t, x):
        return fed_round(blocks, x, cfg, RoundStreams.derive(cfg.master_seed, t))

    return run_rounds(system, cfg, x0, on_round, step), trace


@pytest.mark.parametrize("clients, participants, master_seed, stop_mid_chunk", [
    (4, 2, 5, False),
    (4, 2, 6, True),
    (4, 4, 7, False),
    (4, 1, 8, False),
    (1, 1, 9, False),
    (4, 2, 2**64 - 1, False),
])
@pytest.mark.parametrize("run", [fed_run, _run_server_loopback], ids=["fed_run", "loopback"])
def test_stream_table_keeps_the_bits_across_chunks_and_early_stops(
    run, clients, participants, master_seed, stop_mid_chunk
):
    system, _ = gaussian_consistent(16, 6, 73)
    cfg = config(
        clients=clients, participants=participants, local_iters=3, global_iters=3,
        rounds=2 * CHUNK_ROUNDS + 3, master_seed=master_seed,
    )
    x0 = np.ones(6)
    if stop_mid_chunk:
        _, full = _derived_run(system, cfg, x0)
        stop = CHUNK_ROUNDS + CHUNK_ROUNDS // 2
        cfg = replace(cfg, residual_tol=full.residuals[stop])
    expected_x, expected = _derived_run(system, cfg, x0)
    x, trace = run(system, cfg, x0)
    assert np.array_equal(x, expected_x)
    assert trace.csv_text() == expected.csv_text()
    rounds_run = trace.rounds[-1]
    if stop_mid_chunk:
        assert trace.stopped_early and CHUNK_ROUNDS < rounds_run <= stop
        assert rounds_run % CHUNK_ROUNDS != 0
    else:
        assert rounds_run == 2 * CHUNK_ROUNDS + 3


# ---------------------------------------------------------------------------
# RunConfig validation
# ---------------------------------------------------------------------------

def test_run_config_refuses_client_ids_at_the_stream_tags():
    RunConfig(clients=TAG_SERVER, participants=1, local_iters=1, global_iters=1, rounds=1)
    with pytest.raises(ValueError, match="clients must be <= 4294967294"):
        RunConfig(clients=TAG_SERVER + 1, participants=1, local_iters=1, global_iters=1, rounds=1)


def test_run_config_refuses_round_indices_beyond_u32():
    RunConfig(clients=1, participants=1, local_iters=1, global_iters=1, rounds=2**32)
    with pytest.raises(ValueError, match=r"rounds must satisfy 0 <= rounds <= 2\*\*32"):
        RunConfig(clients=1, participants=1, local_iters=1, global_iters=1, rounds=2**32 + 1)


def test_run_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(clients=2, participants=3, local_iters=1, global_iters=1, rounds=1)
    with pytest.raises(ValueError):
        RunConfig(clients=2, participants=1, local_iters=0, global_iters=1, rounds=1)
    with pytest.raises(ValueError):
        RunConfig(clients=2, participants=1, local_iters=1, global_iters=1, rounds=-1)
