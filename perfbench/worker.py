"""Runs one pass of a workload in a fresh process and prints its figures.

Started by run.py once per pass, with BLAS/OpenMP threads pinned to 1 and
``src`` on PYTHONPATH. A pass is one call of the workload's top-level
function (an experiment, a ``fed_run`` or a TCP run) on one case. Its
set-up is timed from the moment run.py started this process to the first
federated round, so every pass gives one cold set-up; its solve time runs
from the first round to the end. Outputs are checked after the timed part.

The last line of standard output is one JSON object: the pass's timings,
rounds, Kaczmarz steps, peak RSS and the problems its check found (and,
with ``--trace 1``, the per-layer totals). A pass that raises prints only
its problem and exits 1.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace

import numpy as np

import checks
import tracer as tracing
import workloads
from workloads import PAPER, TCP, UNDERDET

HERE = os.path.dirname(os.path.abspath(__file__))
HOST = "127.0.0.1"
CLIENT_POLL_S = 0.005
CLIENT_RESPAWNS = 20


class Pass:
    """Timing and outputs of one pass; ``check`` runs after the timed part."""

    def __init__(self, first_round, end, rounds, steps, check, client_rss_kb=0):
        self.first_round = first_round
        self.solve_s = end - first_round
        self.rounds = rounds
        self.steps = steps
        self.check = check
        # the worker's peak so far, taken before the check allocates its own
        self.rss_kb = tracing.vm_hwm_kb() + client_rss_kb


def _marker(module, attr, on_first=None):
    marker = tracing.FirstCall(module, attr, on_first)
    marker.arm()
    return marker


def run_paper_convergence(args):
    from fedrk import experiments

    spec = experiments.ExperimentSpec.convergence(
        **PAPER, seed=workloads.derive_seed(args.seed, args.workload, args.case)
    )
    marker = _marker("fedrk.federation", "fed_round")
    try:
        result = experiments.run_convergence_experiment(spec)
        end = time.monotonic()
    finally:
        marker.disarm()
    per_round = sum(spec.participants * tau + spec.global_iters for tau in spec.tau_list)
    return Pass(
        marker.time, end,
        rounds=spec.trials * len(spec.tau_list) * spec.rounds,
        steps=spec.trials * spec.rounds * per_round,
        check=lambda: checks.check_convergence(result.curves, spec.tau_list),
    )


def run_underdetermined(args):
    from fedrk import core, federation, solver

    k = args.case
    paths = [os.path.join(args.work, name) for name in (f"A{k}.dmat", f"b{k}.dmat", f"x0_{k}.dmat")]
    A = core.load_dmat(paths[0])
    b = core.load_dmat(paths[1])[:, 0]
    x0 = core.load_dmat(paths[2])[:, 0]
    system = solver.LinearSystem(A, b)
    tol = UNDERDET["residual_rel"] * float(np.linalg.norm(b))
    config = federation.RunConfig(
        clients=UNDERDET["clients"], participants=UNDERDET["participants"],
        local_iters=UNDERDET["local_iters"], global_iters=UNDERDET["global_iters"],
        rounds=UNDERDET["max_rounds"], residual_tol=tol,
        master_seed=workloads.derive_seed(args.seed, args.workload, 1, k),
    )
    marker = _marker("fedrk.federation", "fed_round")
    try:
        x, trace = federation.fed_run(system, config, x0)
        end = time.monotonic()
    finally:
        marker.disarm()
    rounds = trace.rounds[-1]

    def check():
        A_in, b_in, x0_in = (workloads.read_dmat(p) for p in paths)
        return checks.check_underdetermined(
            A_in, b_in[:, 0], x0_in[:, 0], x, tol, rounds, config.rounds, trace.stopped_early
        )

    per_round = config.participants * config.local_iters + config.global_iters
    return Pass(marker.time, end, rounds=rounds, steps=rounds * per_round, check=check)


def _free_port():
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class ClientFleet:
    """The ``fedrk client`` processes of one TCP run.

    ``run_server`` gives no readiness signal, and a client started before
    the server listens exits at once with "Connection refused". So the fleet
    respawns a refused client until the server's first round starts.
    """

    def __init__(self, port, clients, args):
        self.port, self.clients, self.args = port, clients, args
        self.procs = {}
        self.err_paths = []

    def _spawn(self, cid):
        cli_args = ["client", "--host", HOST, "--port", str(self.port), "--id", str(cid),
                    "--scheme", "sqnorm", "--timeout", str(TCP["timeout"])]
        cmd = [sys.executable, os.path.join(HERE, "client.py"), self.report_path(cid),
               str(self.args.pass_index), str(self.args.trace), *cli_args]
        err_path = os.path.join(self.args.work,
                                f"client-{self.args.pass_index}-{cid}-{len(self.err_paths)}.err")
        self.err_paths.append(err_path)
        with open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
        proc.err_path = err_path
        return proc

    def report_path(self, cid):
        return os.path.join(self.args.work, f"client-{self.args.pass_index}-{cid}.json")

    def start(self, ready, done):
        """Thread target: start every client, respawning refused ones."""
        for cid in range(self.clients):
            self.procs[cid] = self._spawn(cid)
        respawns = 0
        while not ready.wait(CLIENT_POLL_S) and not done.is_set():
            for cid, proc in list(self.procs.items()):
                if proc.poll() in (None, 0) or respawns >= CLIENT_RESPAWNS:
                    continue
                with open(proc.err_path) as fh:
                    refused = "refused" in fh.read().lower()
                if refused:
                    respawns += 1
                    self.procs[cid] = self._spawn(cid)

    def reap(self, grace_s):
        """Wait for every client, killing what is left after ``grace_s``,
        and read the reports of those that exited 0.

        Returns (problems, reports).
        """
        deadline = time.monotonic() + grace_s
        problems, reports = [], []
        for cid, proc in self.procs.items():
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.returncode != 0:
                with open(proc.err_path) as fh:
                    tail = fh.read().strip().splitlines()[-1:]
                problems.append(f"client {cid} exited {proc.returncode}: {' '.join(tail)}")
                continue
            with open(self.report_path(cid)) as fh:
                reports.append(json.load(fh))
            os.remove(self.report_path(cid))
        for path in self.err_paths:
            os.remove(path)
        return problems, reports


def run_tcp(args, client_reports):
    from fedrk import core, federation, solver, transport

    A = core.load_dmat(os.path.join(args.work, "A.dmat"))
    b = core.load_dmat(os.path.join(args.work, "b.dmat"))[:, 0]
    system = solver.LinearSystem(A, b)
    tol = TCP["residual_rel"] * float(np.linalg.norm(b))
    config = federation.RunConfig(
        clients=TCP["clients"], participants=TCP["participants"],
        local_iters=TCP["local_iters"], global_iters=TCP["global_iters"],
        rounds=TCP["max_rounds"], residual_tol=tol,
        local_scheme=core.SamplingScheme.squared_row_norm(),
        master_seed=workloads.derive_seed(args.seed, args.workload, 1, args.case),
    )
    port = _free_port()
    ready, done = threading.Event(), threading.Event()
    fleet = ClientFleet(port, config.clients, args)
    marker = _marker("fedrk.transport", "sample_clients", ready.set)
    helper = threading.Thread(target=fleet.start, args=(ready, done))
    helper.start()
    try:
        x, trace = transport.run_server(
            transport.Endpoint.server(HOST, port), system, config, timeout=TCP["timeout"]
        )
        end = time.monotonic()
    finally:
        done.set()
        marker.disarm()
        helper.join()
        client_problems, reports = fleet.reap(grace_s=10.0)
    client_reports.extend(reports)
    rounds = trace.rounds[-1]

    def check():
        problems = list(client_problems)
        if not (trace.stopped_early and rounds < config.rounds):
            problems.append(f"run did not stop early ({rounds} of {config.rounds} rounds)")
        trace_path = os.path.join(args.work, f"trace-{args.pass_index}.csv")
        trace.to_csv(trace_path)
        with open(trace_path, "rb") as fh:
            got = fh.read()
        os.remove(trace_path)
        _, reference = federation.fed_run(
            system, replace(config, rounds=rounds, residual_tol=None), np.zeros(system.cols)
        )
        A_in = workloads.read_dmat(os.path.join(args.work, "A.dmat"))
        b_in = workloads.read_dmat(os.path.join(args.work, "b.dmat"))[:, 0]
        return problems + checks.check_tcp(
            A_in, b_in, x, tol, got, reference.csv_text().encode()
        )

    per_round = config.participants * config.local_iters + config.global_iters
    return Pass(marker.time, end, rounds=rounds, steps=rounds * per_round,
                check=check, client_rss_kb=sum(r["vm_hwm_kb"] for r in reports))


def run_pass(args, client_reports):
    if args.workload == "paper_convergence":
        return run_paper_convergence(args)
    if args.workload == "underdetermined_long_local":
        return run_underdetermined(args)
    return run_tcp(args, client_reports)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--case", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--spans-out", default=None, help="CSV the traced pass appends to")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    client_reports = []
    if tracer is not None:
        tracer.pass_id = args.pass_index
        tracer.install()
    try:
        result = run_pass(args, client_reports)
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"problems": [f"pass raised {exc!r}"]}))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        problems = result.check()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems = [f"check raised {exc!r}"]

    summary = {
        "setup_s": result.first_round - args.spawned,
        "solve_s": result.solve_s,
        "rounds": result.rounds,
        "steps": result.steps,
        "rss_kb": result.rss_kb,
        "problems": problems,
    }
    if tracer is not None:
        totals = tracer.totals()
        for report in client_reports:
            for key, value in report["totals"].items():
                totals[key] = totals.get(key, 0.0) + value
        summary["totals"] = totals
        if args.spans_out:
            tracer.write_spans(args.spans_out, [("client", d["spans"]) for d in client_reports])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
