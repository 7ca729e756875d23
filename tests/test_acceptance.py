"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance and runtime budget is pinned here.
"""

import os
import time
from itertools import combinations

import numpy as np
import pytest

from fedrk.core import (
    RngStream,
    SamplingScheme,
    derive_seed,
    hard_threshold,
    row_norms_sq,
    sample_rows,
)
from fedrk.datasets import default_prostate_path
from fedrk.errors import CodecError
from fedrk.experiments import (
    ExperimentSpec,
    run_convergence_experiment,
    run_lsq_experiment,
    run_prostate_experiment,
    run_sparse_experiment,
)
from fedrk.federation import (
    RoundStreams,
    RunConfig,
    build_server_system,
    client_local_update,
    fed_round,
    fed_run,
)
from fedrk.solver import LinearSystem
from fedrk.transport import Endpoint, decode, encode, run_server
from harness import run_socket
from oracles import (
    contraction_factor,
    expected_update,
    fit_decay_rate,
    project_onto_solution_set,
    rk_step,
    rounds_to_threshold,
)

UNIFORM = SamplingScheme.uniform()
SQNORM = SamplingScheme.squared_row_norm()


def report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_01_server_step_identity():
    start = time.time()
    g = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        n = int(g.integers(2, 24))
        rows = int(g.integers(1, 9))
        A = g.standard_normal((rows, n))
        z = g.standard_normal(n)
        block = LinearSystem(A, A @ z)
        x = g.standard_normal(n) * float(g.choice([0.01, 1.0, 50.0]))
        tau = int(g.integers(1, 51))
        rng = RngStream(int(g.integers(0, 2**63)))
        delta = client_local_update(block, x, tau, SQNORM, rng)
        tol = 1e-12 * (1.0 + float(np.linalg.norm(x)))
        srs = build_server_system([(0, delta)], x, tol)
        if srs.is_empty:
            continue
        stepped = rk_step(srs.delta_rows[0], srs.d[0], x)
        err = float(np.max(np.abs(stepped - (x + delta))))
        worst = max(worst, err / tol)
        assert err <= tol
        checked += 1
    elapsed = time.time() - start
    report(
        1, "server-step identity", checked >= 900 and worst <= 1.0,
        f"{checked} kept rounds, worst error {worst:.3f}x tolerance", elapsed, 10.0,
    )


def test_criterion_02_classic_rk_rate_bound():
    start = time.time()
    g = np.random.default_rng(202)
    steps = 10_000
    margins = []
    for sys_idx in range(20):
        A = g.standard_normal((100, 20))
        for scheme in (UNIFORM, SQNORM):
            alpha = contraction_factor(A, scheme)
            rng = RngStream(derive_seed(202, "rk-rate", sys_idx, scheme.kind))
            y = rng.generator.standard_normal(20)
            y /= np.linalg.norm(y)
            idx = sample_rows(scheme.cdf(row_norms_sq(A)), rng, steps)
            total = 0.0
            for j in idx:
                y_next = rk_step(A[j], 0.0, y)
                ratio = float(np.dot(y_next, y_next))
                total += ratio
                y = y_next / np.sqrt(ratio)
            mean_ratio = total / steps
            margins.append(alpha + 0.02 - mean_ratio)
            assert mean_ratio <= alpha + 0.02, (sys_idx, scheme.kind, mean_ratio, alpha)
    elapsed = time.time() - start
    report(
        2, "classic RK rate bound", min(margins) >= 0.0,
        f"40 scheme/system pairs, min margin {min(margins):.4f}", elapsed, 30.0,
    )


def test_criterion_03_expected_update_oracle():
    start = time.time()
    g = np.random.default_rng(303)
    m_clients, participants = 5, 3
    rows = [g.standard_normal(3) for _ in range(m_clients)]
    blocks = [LinearSystem(np.atleast_2d(r), np.zeros(1)) for r in rows]
    x = g.standard_normal(3)
    exact = expected_update(blocks, x, participants)

    cfg = RunConfig(
        clients=m_clients, participants=participants,
        local_iters=2, global_iters=1, rounds=1,
    )
    trials = 1_000_000
    stream = RngStream(30303)
    streams = RoundStreams(select=stream, server=stream, local_stream=lambda cid: stream)
    total = np.zeros(3)
    total_sq = np.zeros(3)
    for _ in range(trials):
        x_next, _, _ = fed_round(blocks, x, cfg, streams)
        total += x_next
        total_sq += x_next * x_next
    mean = total / trials
    stderr = np.sqrt(np.maximum(total_sq / trials - mean * mean, 0.0) / trials)
    deviation = np.abs(mean - exact)
    sigmas = float(np.max(deviation / np.maximum(stderr, 1e-300)))
    elapsed = time.time() - start
    report(
        3, "expected-update oracle", bool(np.all(deviation <= 3.0 * stderr)),
        f"M=5 N=3, 1e6 rounds, worst deviation {sigmas:.2f} standard errors",
        elapsed, 120.0,
    )


def test_criterion_04_fedrk_linear_convergence():
    start = time.time()
    spec = ExperimentSpec.convergence(m=512, n=128, trials=50, rounds=200, seed=314)
    result = run_convergence_experiment(spec)
    fits = {}
    thresholds = {}
    ok = True
    details = []
    for tau in spec.tau_list:
        curve = result.curves[tau]
        fit = fit_decay_rate(curve)
        fits[tau] = fit
        thresholds[tau] = rounds_to_threshold(curve, 1e-6)
        ok &= fit.rate < 1.0 and fit.r_squared > 0.9
        details.append(f"tau={tau}: rate {fit.rate:.3f}, R2 {fit.r_squared:.3f}, to-1e-6 {thresholds[tau]}")
    ordered = [thresholds[tau] for tau in sorted(spec.tau_list)]
    ok &= all(a >= b for a, b in zip(ordered, ordered[1:]))
    elapsed = time.time() - start
    report(4, "federated linear convergence", ok, "; ".join(details), elapsed, 120.0)


def test_criterion_05_underdetermined_limit():
    start = time.time()
    hits = 0
    worst = 0.0
    for seed in range(20):
        g = RngStream(505, ("underdet", seed)).generator
        A = g.standard_normal((40, 100))
        system = LinearSystem(A, A @ g.standard_normal(100))
        x0 = g.standard_normal(100)
        cfg = RunConfig(
            clients=4, participants=4, local_iters=2000, global_iters=2000,
            rounds=100, master_seed=derive_seed(505, "run", seed),
        )
        x, _ = fed_run(system, cfg, x0)
        # the intersection of the 4 clients' solution sets is the system's
        target = project_onto_solution_set(system, x0)
        rel = float(np.linalg.norm(x - target) / np.linalg.norm(x0))
        worst = max(worst, rel)
        hits += rel <= 1e-3
    elapsed = time.time() - start
    report(
        5, "underdetermined limit", hits >= 19,
        f"{hits}/20 within 1e-3 of the intersection projection (worst {worst:.2e})",
        elapsed, 60.0,
    )


def test_criterion_06_sparse_recovery():
    start = time.time()
    spec = ExperimentSpec.sparse()  # full scale: 256x1024, s=9, 50 trials
    result = run_sparse_experiment(spec)
    true = np.array(result.true_support)
    off = np.setdiff1d(np.arange(spec.n), true)
    true_rate = result.selection_counts[true].min() / spec.trials
    off_rate = result.selection_counts[off].max() / spec.trials
    ok = true_rate >= 0.9 and off_rate <= 0.2
    elapsed = time.time() - start
    report(
        6, "sparse recovery",
        ok,
        f"min true-support rate {true_rate:.2f}, max off-support rate {off_rate:.2f}",
        elapsed, 180.0,
    )


def test_criterion_07_lsq_horizon():
    start = time.time()
    spec = ExperimentSpec.lsq(m=512, n=64, augment_cols=(0, 64, 192), trials=20, seed=515)
    result = run_lsq_experiment(spec)
    medians = [result.median_horizon(k) for k in spec.augment_cols]
    ok = medians[0] > 0.0 and all(a >= b for a, b in zip(medians, medians[1:]))
    elapsed = time.time() - start
    report(
        7, "least-squares horizon", ok,
        "medians " + ", ".join(f"k={k}: {m:.4f}" for k, m in zip(spec.augment_cols, medians)),
        elapsed, 120.0,
    )


def test_criterion_08_prostate_selection():
    path = os.environ.get("FEDRK_PROSTATE_PATH", default_prostate_path())
    if not os.path.exists(path):
        print("[SKIP] criterion 8 (prostate selection): data file not present")
        pytest.skip(f"prostate data file not found at {path}")
    start = time.time()
    spec = ExperimentSpec.prostate()  # 7 clients, 3 participating, s=5, 2000 rounds
    result = run_prostate_experiment(spec, data_path=path)
    expected = {"intcpt", "lcavol", "lweight", "lbph", "svi"}
    matches = sum(
        set(result.top_features(trial)) == expected for trial in range(spec.trials)
    )
    elapsed = time.time() - start
    report(
        8, "prostate selection", matches >= 4,
        f"top-5 set matched in {matches}/{spec.trials} seeds", elapsed, 60.0,
    )


def test_criterion_09_transport_transparency():
    start = time.time()
    g = np.random.default_rng(909)
    identical = 0
    for trial in range(10):
        m = int(g.integers(6, 25))
        n = int(g.integers(2, 7))
        clients = int(g.integers(2, min(5, m + 1)))
        cfg = RunConfig(
            clients=clients,
            participants=int(g.integers(1, clients + 1)),
            local_iters=int(g.integers(1, 9)),
            global_iters=int(g.integers(1, 9)),
            rounds=int(g.integers(1, 7)),
            sparsity=int(g.integers(1, n + 1)) if g.random() < 0.3 else None,
            master_seed=int(g.integers(0, 2**63)),
        )
        A = g.standard_normal((m, n))
        b = A @ g.standard_normal(n) if g.random() < 0.5 else g.standard_normal(m)
        system = LinearSystem(A, b)

        _, loop_trace = run_server(Endpoint.loopback(), system, cfg)
        _, sock_trace = run_socket(system, cfg, timeout=15.0)
        identical += loop_trace.csv_text() == sock_trace.csv_text()
    elapsed = time.time() - start
    report(
        9, "transport transparency", identical == 10,
        f"{identical}/10 bit-identical loopback vs socket traces", elapsed, 30.0,
    )


def test_criterion_10_property_suites():
    start = time.time()
    g = np.random.default_rng(1010)

    # rk_step fixed point and non-expansiveness
    for _ in range(2000):
        n = int(g.integers(2, 9))
        a = g.standard_normal(n)
        x = g.standard_normal(n)
        on_plane = rk_step(a, float(np.dot(a, x)), x)
        assert np.array_equal(on_plane, x)
        b_j = float(g.standard_normal())
        z = rk_step(a, b_j, g.standard_normal(n))
        out = rk_step(a, b_j, x)
        assert np.linalg.norm(out - z) <= np.linalg.norm(x - z) + 1e-12 * (
            1 + np.linalg.norm(x - z)
        )

    # hard_threshold best-s-term optimality by brute force, n <= 8
    for _ in range(300):
        n = int(g.integers(1, 9))
        s = int(g.integers(0, n + 1))
        x = g.standard_normal(n)
        out = hard_threshold(x, s)
        err = np.linalg.norm(x - out)
        for support in combinations(range(n), s):
            z = np.zeros(n)
            z[list(support)] = x[list(support)]
            assert err <= np.linalg.norm(x - z) + 1e-12

    # codec round-trip fuzzing, 10^4 random messages
    from test_transport import random_message

    for _ in range(10_000):
        msg = random_message(g)
        assert decode(encode(msg)) == msg
    for _ in range(2_000):
        blob = g.integers(0, 256, size=int(g.integers(0, 80))).astype(np.uint8).tobytes()
        try:
            decode(blob)
        except CodecError:
            pass

    # oracle idempotence and orthogonality
    for seed in range(50):
        gg = np.random.default_rng(seed)
        A = gg.standard_normal((3, 8))
        z = gg.standard_normal(8)
        block = LinearSystem(A, A @ z)
        x = gg.standard_normal(8)
        px = project_onto_solution_set(block, x)
        pxx = project_onto_solution_set(block, px)
        assert np.allclose(px, pxx, atol=1e-12)
        member = project_onto_solution_set(block, gg.standard_normal(8))
        assert abs(np.dot(x - px, px - member)) <= 1e-10 * (
            1 + np.linalg.norm(x) * np.linalg.norm(px - member)
        )

    elapsed = time.time() - start
    report(
        10, "property suites",
        True,
        "rk_step, hard-threshold brute force, codec fuzz (1e4), oracle projections",
        elapsed, 60.0,
    )
