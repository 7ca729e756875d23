"""Workload definitions and input generation, shared by run.py and worker.py.

Inputs come from ``--seed`` alone: the same seed gives the same systems,
starting points and federated master seeds. The program receives the
generated systems only as DMAT files.

Each workload has a fixed set of ``CASES`` per seed, and a run is a whole
number of cycles over them, so that counts such as rounds-to-tolerance
depend on the seed alone and not on how many passes fit into a run.
"""

import os
import struct

import numpy as np

WORKLOADS = ("paper_convergence", "underdetermined_long_local", "tcp_small_blocks")
_TAGS = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# paper_convergence: the paper's convergence experiment at full size,
# two trials per tau instead of fifty.
PAPER = dict(m=2048, n=1024, clients=16, participants=5, global_iters=20,
             rounds=200, trials=2, tau_list=(10, 20, 40))

# underdetermined_long_local: 40x100 consistent systems (acceptance
# criterion 5's shape), long local and server runs, stop at a residual.
UNDERDET = dict(m=40, n=100, clients=4, participants=4, local_iters=2000,
                global_iters=2000, max_rounds=1000, residual_rel=1e-8)

# tcp_small_blocks: one wide 64x2048 system split over two client processes,
# four steps per side per round, so each round is mostly messaging.
TCP = dict(m=64, n=2048, clients=2, participants=2, local_iters=4,
           global_iters=4, max_rounds=5000, residual_rel=1e-8, timeout=30.0)

# Cases per seed. paper_convergence runs its full-length experiment every
# pass. Rounds-to-tolerance varies by about 8% between 40x100 systems and
# between master seeds of one 64x2048 system; the mean over 12 systems and
# over 24 master seeds keeps its spread over seeds at 3-6%.
CASES = {"paper_convergence": 1, "underdetermined_long_local": 12, "tcp_small_blocks": 24}
# Operations (federated runs) in one pass: paper_convergence runs every
# trial of every tau.
OPS_PER_PASS = {"paper_convergence": PAPER["trials"] * len(PAPER["tau_list"]),
                "underdetermined_long_local": 1, "tcp_small_blocks": 1}


def derive_seed(seed, workload, *ids):
    """A 64-bit seed derived from the benchmark seed, workload and ids."""
    seq = np.random.SeedSequence([int(seed), _TAGS[workload], *ids])
    return int(seq.generate_state(1, np.uint64)[0])


def _generator(seed, workload, *ids):
    return np.random.default_rng(np.random.SeedSequence([int(seed), _TAGS[workload], *ids]))


def write_dmat(path, matrix):
    """DMAT: magic, u32 rows, u32 cols, then row-major little-endian float64.
    A vector is written as one column."""
    m = np.asarray(matrix, dtype="<f8")
    if m.ndim == 1:
        m = m[:, None]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", b"DMAT", *m.shape))
        fh.write(np.ascontiguousarray(m).tobytes())


def read_dmat(path):
    """The benchmark's own DMAT reader, used by the checks."""
    with open(path, "rb") as fh:
        magic, rows, cols = struct.unpack("<4sII", fh.read(12))
        if magic != b"DMAT":
            raise ValueError(f"{path}: not a DMAT file")
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(rows, cols).astype(np.float64)


def make_inputs(workload, seed, work_dir):
    """Write the workload's DMAT inputs into ``work_dir``."""
    os.makedirs(work_dir, exist_ok=True)
    if workload == "underdetermined_long_local":
        for k in range(CASES[workload]):
            g = _generator(seed, workload, k)
            A = g.standard_normal((UNDERDET["m"], UNDERDET["n"]))
            x_star = g.standard_normal(UNDERDET["n"])
            x0 = g.standard_normal(UNDERDET["n"])
            write_dmat(os.path.join(work_dir, f"A{k}.dmat"), A)
            write_dmat(os.path.join(work_dir, f"b{k}.dmat"), A @ x_star)
            write_dmat(os.path.join(work_dir, f"x0_{k}.dmat"), x0)
    elif workload == "tcp_small_blocks":
        g = _generator(seed, workload)
        A = g.standard_normal((TCP["m"], TCP["n"]))
        write_dmat(os.path.join(work_dir, "A.dmat"), A)
        write_dmat(os.path.join(work_dir, "b.dmat"), A @ g.standard_normal(TCP["n"]))
    elif workload != "paper_convergence":
        raise ValueError(f"unknown workload {workload!r}")
