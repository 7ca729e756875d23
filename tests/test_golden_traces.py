"""Golden traces: the exact output text of fixed runs, pinned by SHA-256.

Any change to the bits a run produces fails here; a change meant to alter
them records new digests and says why; ``python tests/test_golden_traces.py``
prints every case's current digest as ``name digest``, one per line. Scope:
the digests hold for one numpy/BLAS build (recorded with numpy 2.4.6 and
OpenBLAS 0.3.31 on x86-64); another build may round differently and then
needs its own digests. The bits of runs on rk_iterate's dual kernel (here
only the underdetermined run) also depend on the LAPACK ``gesv`` behind
numpy's ``solve1`` gufunc (the one ``np.linalg.solve`` calls) in that build.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script, with fedrk not installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedrk.core import RngStream, SamplingScheme, derive_seed
from fedrk.experiments import (
    ExperimentSpec,
    run_convergence_experiment,
    run_lsq_experiment,
    run_prostate_experiment,
    run_sparse_experiment,
)
from fedrk.federation import RoundStreams, RunConfig, fed_round, fed_run
from fedrk.solver import LinearSystem
from fedrk.transport import Endpoint, run_server
from test_experiments import synthetic_prostate_file


def gaussian(m, n, seed, consistent=True):
    g = np.random.default_rng(seed)
    A = g.standard_normal((m, n))
    x_star = g.standard_normal(n)
    b = A @ x_star if consistent else g.standard_normal(m)
    return LinearSystem(A, b), x_star


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_with_x_ref():
    system, x_star = gaussian(48, 12, 1)
    cfg = RunConfig(
        clients=4, participants=3, local_iters=7, global_iters=5, rounds=25,
        master_seed=101,
    )
    _, trace = fed_run(system, cfg, np.zeros(12), x_ref=x_star)
    return trace.csv_text()


def run_sparse_uniform():
    system, _ = gaussian(40, 16, 2, consistent=False)
    cfg = RunConfig(
        clients=5, participants=2, local_iters=4, global_iters=6, rounds=30,
        sparsity=5, local_scheme=SamplingScheme.uniform(), master_seed=202,
    )
    x0 = np.random.default_rng(22).standard_normal(16)
    _, trace = fed_run(system, cfg, x0)
    return trace.csv_text()


def run_residual_tol():
    system, _ = gaussian(32, 8, 3)
    cfg = RunConfig(
        clients=4, participants=4, local_iters=30, global_iters=30, rounds=500,
        residual_tol=1e-8, master_seed=303,
    )
    _, trace = fed_run(system, cfg, np.zeros(8))
    assert trace.stopped_early
    return trace.csv_text()


def run_loopback():
    system, x_star = gaussian(30, 6, 4)
    cfg = RunConfig(
        clients=3, participants=2, local_iters=5, global_iters=4, rounds=15,
        sparsity=4, master_seed=404,
    )
    _, trace = run_server(Endpoint.loopback(), system, cfg, x0=np.ones(6), x_ref=x_star)
    return trace.csv_text()


def run_paper_shaped():
    # 8 blocks of 100 rows, n=512, tau=Gamma=20
    system, x_star = gaussian(800, 512, 5)
    cfg = RunConfig(
        clients=8, participants=3, local_iters=20, global_iters=20, rounds=12,
        master_seed=505,
    )
    _, trace = fed_run(system, cfg, np.zeros(512), x_ref=x_star)
    return trace.csv_text()


def run_loopback_wide():
    # the TCP workload's shape: two clients on a wide system, tau=Gamma=4
    system, _ = gaussian(16, 256, 6)
    cfg = RunConfig(
        clients=2, participants=2, local_iters=4, global_iters=4, rounds=40,
        master_seed=606,
    )
    _, trace = run_server(Endpoint.loopback(), system, cfg)
    return trace.csv_text()


def run_shared_stream_rounds():
    # acceptance criterion 3's shape: one-row clients, one stream shared by
    # selection, local runs and the server; inconsistent rows keep x moving
    g = np.random.default_rng(707)
    blocks = [
        LinearSystem(g.standard_normal((1, 3)), g.standard_normal(1)) for _ in range(5)
    ]
    stream = RngStream(70707)
    streams = RoundStreams(select=stream, server=stream, local_stream=lambda cid: stream)
    x = g.standard_normal(3)
    seen = hashlib.sha256()
    for participants in (3, 1):
        cfg = RunConfig(
            clients=5, participants=participants, local_iters=2, global_iters=1, rounds=1,
        )
        for _ in range(500):
            x, _, _ = fed_round(blocks, x, cfg, streams)
            seen.update(x.tobytes())
    return seen.hexdigest() + x.tobytes().hex()


def run_underdetermined():
    # acceptance criterion 5's first system for 5 rounds: 10x100 client
    # blocks and a 4-row server system with tau=Gamma=2000, all on the dual kernel
    g = RngStream(505, ("underdet", 0)).generator
    A = g.standard_normal((40, 100))
    system = LinearSystem(A, A @ g.standard_normal(100))
    x0 = g.standard_normal(100)
    cfg = RunConfig(
        clients=4, participants=4, local_iters=2000, global_iters=2000, rounds=5,
        master_seed=derive_seed(505, "run", 0),
    )
    x, trace = fed_run(system, cfg, x0)
    return trace.csv_text() + x.tobytes().hex()


def run_lsq(tmp_path):
    spec = ExperimentSpec.lsq(
        m=48, n=6, clients=3, participants=3, rounds=40, trials=2, augment_cols=(0, 6),
        seed=505,
    )
    run_lsq_experiment(spec, out_dir=tmp_path)
    return (tmp_path / "lsq_horizons.csv").read_text()


def run_convergence(tmp_path):
    spec = ExperimentSpec.convergence(
        m=96, n=24, clients=4, participants=2, rounds=15, trials=2, tau_list=(3, 7),
        seed=808,
    )
    run_convergence_experiment(spec, out_dir=tmp_path)
    return (tmp_path / "convergence.csv").read_text()


def run_sparse(tmp_path):
    spec = ExperimentSpec.sparse(
        m=48, n=64, clients=4, participants=2, rounds=60, trials=2, sparsity=4,
        seed=909,
    )
    run_sparse_experiment(spec, out_dir=tmp_path)
    return (tmp_path / "sparse_counts.csv").read_text() + (
        tmp_path / "sparse_trials.csv"
    ).read_text()


def run_prostate(tmp_path):
    path = tmp_path / "prostate.data"
    synthetic_prostate_file(path, rows=35, seed=3)
    spec = ExperimentSpec.prostate(rounds=60, trials=2, seed=606)
    run_prostate_experiment(spec, data_path=path, out_dir=tmp_path)
    return (tmp_path / "prostate_counts.csv").read_text()


GOLDEN = {
    "fed_run_x_ref": (run_with_x_ref,
        "ddfd0fe10d49c3d6a09a410bada9d73c4e9fa993e66b0fa3d1868eab9dd06f5d",
    ),
    "fed_run_sparse_uniform": (run_sparse_uniform,
        "2b8fcbf994787b5a4b883ef83982f0ae5835a8adcfe710186cce9caa54c3cc51",
    ),
    "fed_run_residual_tol": (run_residual_tol,
        "67b0395674989d59531ce9ea2ea64e80c3722f7c1a8ed7b8ea0d624bd9352494",
    ),
    "run_server_loopback": (run_loopback,
        "b72ece44c0f0f02664c4b744eac178392b6b4d1360e19104f61bcad530f56048",
    ),
    "fed_run_paper_shaped": (run_paper_shaped,
        "a64c16a449f261ea1876ffd8e79de63b9eee7031d2ecb3ea900c78a92aa1ef4e",
    ),
    "run_server_loopback_wide": (run_loopback_wide,
        "a89f4fe85511f39630711a8cd40fd4d1ace18a6bdaaa032b83375e06e1c41c52",
    ),
    "fed_round_shared_stream": (run_shared_stream_rounds,
        "37fedb256405b9462c7c0a62baee9955850b6d91acd3946d20af1403ae1a96e0",
    ),
    "fed_run_underdetermined_dual": (run_underdetermined,
        "a36f3b892a69514fbd03ced0ec7c37c143fd01edb2088629e838cb79fa5dc90d",
    ),
}

GOLDEN_FILES = {
    "convergence": (run_convergence,
        "c430e42f866eb685a67a83b7331ccaa47ead6544878f068dcca6febbe2ce2a81",
    ),
    "lsq_horizons": (run_lsq,
        "e46c29ce5317a5d6f816856d746b34b3bccfe10e0dfb05121cdcd4fbbe3d570c",
    ),
    "prostate_counts": (run_prostate,
        "2127af26e2e5e9e1a8c365f461bbf4c27ed44f09f7edc1a971f99a3fbe4c98ed",
    ),
    "sparse_runner": (run_sparse,
        "d5dbdd9d1caf4170609ee274c575dd425d62a64e4af1b4495ae0b551171d8853",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name):
    run, expected = GOLDEN[name]
    assert digest(run()) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
def test_golden_runner_output(name, tmp_path):
    run, expected = GOLDEN_FILES[name]
    assert digest(run(tmp_path)) == expected


if __name__ == "__main__":
    for name, (run, _) in sorted(GOLDEN.items()):
        print(name, digest(run()))
    for name, (run, _) in sorted(GOLDEN_FILES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            print(name, digest(run(Path(tmp))))
