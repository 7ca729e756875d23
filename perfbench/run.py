"""fedrk benchmark: one command for every workload, each pass in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]   # every workload

Run from the repository root. The command makes the workload's inputs from
the seed under perfbench/work/, then runs passes, each in a fresh
perfbench/worker.py process with BLAS/OpenMP threads pinned to 1 and ``src``
on PYTHONPATH, in whole cycles over the workload's cases until the run is
as close to ``--seconds`` long as whole cycles allow. It prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or its per-layer
metrics with ``--trace 1``), and exits 1 if an operation failed. The full
result, with the machine it ran on, goes to perfbench/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A run must end within 180 s; leave room for input generation and exit.
RUN_LIMIT_S = 170.0
# This machine's speed, per CPU, swings up to twofold within seconds with
# the load of other tenants. A run keeps every process on one CPU. On
# underdetermined_long_local, whose passes are nearly all a Python Kaczmarz
# loop, it also times a fixed copy of that loop on the CPU before and after
# each pass and reports the pass's times at the speed at which the copy
# takes CALIBRATION_REF_S. The other workloads' times did not follow such
# a miniature of their own work (see README.md) and are wall-clock times.
CALIBRATION_STEPS, CALIBRATION_REF_S = 40000, 0.1
# Per-layer names that are another stat of a traced span.
LAYER_ALIASES = {
    # read_frame's only traced child is decode: its self time is the time
    # spent receiving.
    "transport.read_frame.wait_s": "transport.read_frame.self_s",
}


def machine_info():
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def calibrate():
    """Slowdown of this CPU now: the time of CALIBRATION_STEPS Kaczmarz
    steps on a fixed 40x100 system in a Python loop, over
    CALIBRATION_REF_S. The loop is the benchmark's own code, so no change
    to the program moves it."""
    import numpy as np

    g = np.random.default_rng(0)
    A = g.standard_normal((40, 100))
    b = A @ g.standard_normal(100)
    norms = np.einsum("ij,ij->i", A, A)
    x = np.zeros(100)
    start = time.perf_counter()
    for k in range(CALIBRATION_STEPS):
        i = k * 7 % 40
        a = A[i]
        x += (b[i] - a @ x) / norms[i] * a
    return (time.perf_counter() - start) / CALIBRATION_REF_S


def worker_env(root):
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    # glibc raises its mmap threshold after the first large free, after
    # which, depending on the seed's order of frees, peak RSS holds one more
    # matrix or not; holding the threshold at its 128 KiB default makes the
    # figure track live data.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(root, env, base_cmd, case, index, traced, timeout):
    """One pass in a fresh worker; returns (figures or None, problems)."""
    cmd = base_cmd + ["--case", str(case), "--pass-index", str(index),
                      "--trace", str(int(traced)), "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, [f"worker ran past the run's {RUN_LIMIT_S:.0f} s limit"]
    lines = out.strip().splitlines()
    try:
        figures = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, [f"worker exited {proc.returncode} without a result"]
    if proc.returncode != 0 or figures["problems"]:
        return None, figures["problems"] or [f"worker exited {proc.returncode}"]
    figures["traced"] = traced
    return figures, []


def layer_metrics(names, traced, overhead_pct):
    """Per-layer figures per traced pass, for the names BENCHMARK.json lists."""
    import tracer as tracing

    labels = {t[2] for t in tracing.TARGETS if isinstance(t[2], str)}
    labels |= {"solver.rk_iterate.client", "solver.rk_iterate.server"}
    counters = {t[4] for t in tracing.TARGETS if t[4]}
    out = {}
    for name in names:
        if name == "trace.overhead_pct":
            out[name] = overhead_pct
            continue
        key = LAYER_ALIASES.get(name, name)
        base, stat = key.rsplit(".", 1)
        if key not in counters and (base not in labels
                                    or stat not in ("calls", "self_s", "steps", "bytes")):
            raise ValueError(f"unknown per-layer metric {name!r}")
        out[name] = statistics.fmean(p["totals"].get(key, 0.0) for p in traced)
    return out


def metrics_of(spec, passes, trace):
    """The run's metrics from its successful passes; {} without enough of them."""
    rates = [p["steps"] / p["solve_s"] for p in passes]
    if not trace:
        if not passes:
            return {}
        return {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "solve_s": statistics.median(p["solve_s"] for p in passes),
            "rk_steps_per_s": statistics.median(rates),
            "fed_rounds": statistics.fmean(p["rounds"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024.0,
        }
    traced = [p for p in passes if p["traced"]]
    traced_rates = [r for r, p in zip(rates, passes) if p["traced"]]
    plain_rates = [r for r, p in zip(rates, passes) if not p["traced"]]
    if not traced or not plain_rates:
        return {}
    overhead = (statistics.median(plain_rates) / statistics.median(traced_rates) - 1.0) * 100.0
    return layer_metrics([m["name"] for m in spec["per_layer"]], traced, overhead)


def run_workload(root, spec, workload, seed, seconds, trace):
    """Make inputs, run whole cycles of passes, and return the summary."""
    import workloads

    work = os.path.join(HERE, "work", f"{workload}-{seed}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    spans_out = os.path.join(results, f"spans-{workload}.csv")
    if trace and os.path.exists(spans_out):
        os.remove(spans_out)
    cases = workloads.CASES[workload]
    # With --trace 1 every case runs twice per cycle, traced then untraced,
    # and the untraced passes give the tracing overhead.
    cycle = cases * (2 if trace else 1)
    ops = workloads.OPS_PER_PASS[workload]
    passes, problems = [], []
    attempted = failed = index = 0
    try:
        workloads.make_inputs(workload, seed, work)
        env = worker_env(root)
        base_cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                    "--seed", str(seed), "--work", work, "--spans-out", spans_out]
        # Children inherit the CPU: the worker and, over TCP, its clients.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        calibrated = workload == "underdetermined_long_local"
        before = calibrate() if calibrated else 1.0
        while time.monotonic() < deadline:
            traced = bool(trace) and index % 2 == 0
            case = (index // 2 if trace else index) % cases
            figures, found = run_pass(root, env, base_cmd, case, index, traced,
                                      deadline - time.monotonic())
            after = calibrate() if calibrated else 1.0
            attempted += ops
            if figures is None:
                failed += ops
                problems.extend(f"pass {index} (case {case}): {p}" for p in found)
            else:
                slowdown = (before + after) / 2
                figures.update(case=case, slowdown=slowdown, wall_setup_s=figures["setup_s"],
                               wall_solve_s=figures["solve_s"])
                figures["setup_s"] /= slowdown
                figures["solve_s"] /= slowdown
                passes.append(figures)
            before = after
            index += 1
            if index % cycle == 0:
                # stop at the cycle boundary nearest to the run length
                elapsed = time.monotonic() - start
                if elapsed + elapsed / (index // cycle) / 2 >= seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"{workload}: check failed: {p}", file=sys.stderr)
    values = metrics_of(spec, passes, trace)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  machine=machine_info(),
                  passes=[{k: v for k, v in p.items() if k != "totals"} for p in passes])
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "fedrk", "__init__.py")):
        print("run.py: no src/fedrk here; run it from the repository root", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    for v in THREAD_VARS:
        os.environ[v] = "1"  # before numpy is imported for input generation
    sys.path.insert(0, HERE)

    if args.workload is not None:
        result = run_workload(root, spec, args.workload, args.seed, seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            one = run_workload(root, spec, name, args.seed, seconds, args.trace)
            for metric, value in one["metrics"].items():
                print(f"{name:28s} {metric:40s} {value['value']:14.6g} {value['unit']}")
                result["metrics"][f"{name}.{metric}"] = value
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
