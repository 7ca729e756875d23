"""Golden traces: the exact output text of fixed runs, pinned by SHA-256.

Any change to the bits a run produces fails here; a change meant to alter
them records new digests and says why. Scope: the digests hold for one
numpy/BLAS build (recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64);
another build may round differently and then needs its own digests.
"""

import hashlib

import numpy as np
import pytest

from fedrk.core import RngStream, SamplingScheme
from fedrk.experiments import (
    ExperimentSpec,
    run_convergence_experiment,
    run_lsq_experiment,
    run_prostate_experiment,
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


def run_prostate(tmp_path):
    path = tmp_path / "prostate.data"
    synthetic_prostate_file(path, rows=35, seed=3)
    spec = ExperimentSpec.prostate(rounds=60, trials=2, seed=606)
    run_prostate_experiment(spec, data_path=path, out_dir=tmp_path)
    return (tmp_path / "prostate_counts.csv").read_text()


GOLDEN = {
    "fed_run_x_ref": (run_with_x_ref,
        "a2a04c0ed286dbb9c0b379c72bc880ceeceb4a9b587092a45972fecd9d31b292",
    ),
    "fed_run_sparse_uniform": (run_sparse_uniform,
        "28f97d29b5c2b5e340d7ffec14f54fffc9845e6422acaae49e5fa0583ff689f9",
    ),
    "fed_run_residual_tol": (run_residual_tol,
        "6a05aed819e3c8a044ac994a6f6e6a89953700f751fc74cb39e0ef13cfc4f756",
    ),
    "run_server_loopback": (run_loopback,
        "f1caa49084b390267a4068f03b5c72ab2afff2f88fc7cfcc9dfa3a16ae785a36",
    ),
    "fed_run_paper_shaped": (run_paper_shaped,
        "fff2baca35c08216142fa5c02b212fec2b4236c0714bfbe356f6f7ecd1b9c489",
    ),
    "run_server_loopback_wide": (run_loopback_wide,
        "844dd253a3fedf4b067ec8c93c991118f91b1f990c9a4c17435d9ccaef270244",
    ),
    "fed_round_shared_stream": (run_shared_stream_rounds,
        "37fedb256405b9462c7c0a62baee9955850b6d91acd3946d20af1403ae1a96e0",
    ),
}

GOLDEN_FILES = {
    "convergence": (run_convergence,
        "d4f25dfde07198fa8a35c4ac36dad7fb2af3b6ab0021d9698cf5d2631e824ead",
    ),
    "lsq_horizons": (run_lsq,
        "dc6e5af711a942683e8ae9f35aa42d634fecd894757a37572a1b0744c4dbec98",
    ),
    "prostate_counts": (run_prostate,
        "2cd65041bdf9f9d9f3e11ad094908df4f4ebbb1347cdf775f41d5a733fadb8dc",
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
