"""Each workload check accepts the program's answer and rejects a wrong one.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import numpy as np

import checks
from fedrk import Endpoint, LinearSystem, RunConfig, fed_run, run_server

TAUS = (10, 20, 40)


def _curves(rates=(0.99, 0.985, 0.977), rounds=200):
    t = np.arange(rounds + 1)
    wobble = 1.0 + 0.02 * np.sin(t)
    wobble[0] = 1.0
    return {tau: rate ** t * wobble for tau, rate in zip(TAUS, rates)}


def test_convergence_accepts_geometric_curves():
    assert checks.check_convergence(_curves(), TAUS) == []


def test_convergence_rejects_swapped_tau_order():
    curves = _curves()
    curves[20], curves[40] = curves[40], curves[20]
    problems = checks.check_convergence(curves, TAUS)
    assert any("does not fall from tau=20" in p for p in problems)


def test_convergence_rejects_curve_not_starting_at_one():
    curves = _curves()
    curves[10] = curves[10] * 1.5
    assert any("starts at" in p for p in checks.check_convergence(curves, TAUS))


def test_convergence_rejects_final_error_above_bound():
    curves = _curves(rates=(0.999, 0.985, 0.977))
    assert any("final error" in p for p in checks.check_convergence(curves, TAUS))


def test_convergence_rejects_curve_without_linear_rate():
    curves = _curves()
    t = np.arange(201)
    curves[10] = np.where(t < 100, 1.0, 0.1)
    curves[10][0] = 1.0
    problems = checks.check_convergence(curves, TAUS)
    assert any("R^2" in p for p in problems)


def _underdetermined_run():
    g = np.random.default_rng(5)
    A = g.standard_normal((12, 30))
    b = A @ g.standard_normal(30)
    x0 = g.standard_normal(30)
    tol = 1e-8 * float(np.linalg.norm(b))
    config = RunConfig(clients=3, participants=3, local_iters=300, global_iters=300,
                       rounds=1000, master_seed=3, residual_tol=tol)
    x, trace = fed_run(LinearSystem(A, b), config, x0)
    return A, b, x0, x, tol, trace, config


def test_underdetermined_accepts_program_output():
    A, b, x0, x, tol, trace, config = _underdetermined_run()
    assert checks.check_underdetermined(
        A, b, x0, x, tol, trace.rounds[-1], config.rounds, trace.stopped_early) == []


def test_underdetermined_rejects_perturbed_iterate():
    A, b, x0, x, tol, trace, config = _underdetermined_run()
    # a null-space step keeps Ax = b but leaves the projection of x0
    null_dir = np.linalg.svd(A)[2][-1]
    wrong = x + 1e-4 * np.linalg.norm(x0) * null_dir
    problems = checks.check_underdetermined(
        A, b, x0, wrong, tol, trace.rounds[-1], config.rounds, trace.stopped_early)
    assert len(problems) == 1 and "from the projection" in problems[0]


def test_underdetermined_rejects_residual_above_tolerance():
    A, b, x0, x, tol, trace, config = _underdetermined_run()
    problems = checks.check_underdetermined(
        A, b, x0, x, tol / 1e6, trace.rounds[-1], config.rounds, trace.stopped_early)
    assert any("residual" in p for p in problems)


def test_underdetermined_rejects_run_that_did_not_stop_early():
    A, b, x0, x, tol, trace, config = _underdetermined_run()
    problems = checks.check_underdetermined(
        A, b, x0, x, tol, config.rounds, config.rounds, False)
    assert any("did not stop early" in p for p in problems)


def _transport_run():
    g = np.random.default_rng(8)
    A = g.standard_normal((8, 64))
    b = A @ g.standard_normal(64)
    tol = 1e-8 * float(np.linalg.norm(b))
    config = RunConfig(clients=2, participants=2, local_iters=4, global_iters=4,
                       rounds=5000, master_seed=11, residual_tol=tol)
    system = LinearSystem(A, b)
    x, trace = run_server(Endpoint.loopback(), system, config)
    rounds = trace.rounds[-1]
    _, ref = fed_run(system, RunConfig(clients=2, participants=2, local_iters=4,
                                       global_iters=4, rounds=rounds, master_seed=11),
                     np.zeros(64))
    return A, b, x, tol, trace.csv_text().encode(), ref.csv_text().encode()


def test_tcp_accepts_program_output():
    A, b, x, tol, got, ref = _transport_run()
    assert checks.check_tcp(A, b, x, tol, got, ref) == []


def test_tcp_rejects_trace_with_one_changed_residual():
    A, b, x, tol, got, ref = _transport_run()
    rows = got.splitlines(keepends=True)
    fields = rows[3].split(b",")
    fields[2] = repr(float(fields[2]) * 1.5).encode()
    rows[3] = b",".join(fields)
    problems = checks.check_tcp(A, b, x, tol, b"".join(rows), ref)
    assert problems == ["trace differs from the in-process run at row 3"]


def test_tcp_rejects_iterate_off_the_minimum_norm_solution():
    A, b, x, tol, got, ref = _transport_run()
    null_dir = np.linalg.svd(A)[2][-1]
    problems = checks.check_tcp(A, b, x + 1e-3 * null_dir, tol, got, ref)
    assert len(problems) == 1 and "pinv(A) b" in problems[0]


def test_tcp_rejects_trace_shorter_than_the_reference():
    A, b, x, tol, got, ref = _transport_run()
    rows = got.splitlines(keepends=True)
    assert checks.check_tcp(A, b, x, tol, b"".join(rows[:-1]), ref)
