"""Correctness checks for the benchmark's workloads.

Each check takes the program's outputs plus the inputs the benchmark made,
recomputes what it needs with numpy alone, and returns a list of problems;
an empty list means the outputs are correct.
"""

import numpy as np

# paper_convergence: the largest median relative error allowed after the
# last round, for every tau (measured finals are about 0.11, 0.036, 0.0065).
CONVERGENCE_FINAL_BOUND = 0.25
CONVERGENCE_MIN_R2 = 0.9
# underdetermined_long_local: distance to the projection, relative to ||x0||.
PROJECTION_TOL = 1e-6
# tcp_small_blocks: distance to pinv(A) b, relative to its norm.
MIN_NORM_TOL = 1e-6


def log_linear_fit(curve):
    """Fit log(curve) against the round index; return (rate, R^2)."""
    curve = np.asarray(curve, dtype=np.float64)
    t = np.arange(curve.size, dtype=np.float64)
    logs = np.log(curve)
    slope, intercept = np.polyfit(t, logs, 1)
    residual = logs - (slope * t + intercept)
    total = logs - logs.mean()
    r2 = 1.0 - float(residual @ residual) / float(total @ total)
    return float(np.exp(slope)), r2


def check_convergence(curves, tau_list):
    """Median relative-error curves of one convergence experiment."""
    problems = []
    finals = []
    for tau in tau_list:
        curve = np.asarray(curves[tau], dtype=np.float64)
        if curve.size < 3 or not np.all(np.isfinite(curve)) or np.any(curve <= 0):
            problems.append(f"tau={tau}: curve must be finite and positive with >= 3 points")
            finals.append(np.inf)
            continue
        if curve[0] != 1.0:
            problems.append(f"tau={tau}: curve starts at {curve[0]!r}, not 1")
        if not curve[-1] < CONVERGENCE_FINAL_BOUND:
            problems.append(f"tau={tau}: final error {curve[-1]:.3e} >= {CONVERGENCE_FINAL_BOUND}")
        rate, r2 = log_linear_fit(curve)
        if not rate < 1.0:
            problems.append(f"tau={tau}: fitted rate {rate:.6f} is not below 1")
        if not r2 > CONVERGENCE_MIN_R2:
            problems.append(f"tau={tau}: log-linear fit R^2 {r2:.4f} <= {CONVERGENCE_MIN_R2}")
        finals.append(float(curve[-1]))
    order = sorted(range(len(tau_list)), key=lambda i: tau_list[i])
    for lo, hi in zip(order, order[1:]):
        if not finals[lo] > finals[hi]:
            problems.append(
                f"final error does not fall from tau={tau_list[lo]} ({finals[lo]:.3e}) "
                f"to tau={tau_list[hi]} ({finals[hi]:.3e})"
            )
    return problems


def check_underdetermined(A, b, x0, x, residual_tol, rounds_run, max_rounds, stopped_early):
    """A run that must stop at the projection of x0 onto {x : Ax = b}."""
    problems = []
    target = x0 - np.linalg.pinv(A) @ (A @ x0 - b)
    gap = float(np.linalg.norm(x - target))
    limit = PROJECTION_TOL * float(np.linalg.norm(x0))
    if not gap <= limit:
        problems.append(f"final iterate is {gap:.3e} from the projection (limit {limit:.3e})")
    residual = float(np.linalg.norm(A @ x - b))
    if not residual <= residual_tol:
        problems.append(f"residual {residual:.3e} above the tolerance {residual_tol:.3e}")
    if not (stopped_early and rounds_run < max_rounds):
        problems.append(f"run did not stop early ({rounds_run} of {max_rounds} rounds)")
    return problems


def check_tcp(A, b, x, residual_tol, trace_csv, reference_csv):
    """A socket run from x0 = 0: the limit is pinv(A) b, and its trace must
    begin with the bytes of the in-process run of the same seed.

    ``reference_csv`` is the in-process trace of K rounds; the first K+1
    rows of ``trace_csv`` must equal its K+1 rows byte for byte.
    """
    problems = []
    x_min = np.linalg.pinv(A) @ b
    gap = float(np.linalg.norm(x - x_min))
    limit = MIN_NORM_TOL * float(np.linalg.norm(x_min))
    if not gap <= limit:
        problems.append(f"final iterate is {gap:.3e} from pinv(A) b (limit {limit:.3e})")
    residual = float(np.linalg.norm(A @ x - b))
    if not residual <= residual_tol:
        problems.append(f"residual {residual:.3e} above the tolerance {residual_tol:.3e}")
    ref_rows = reference_csv.splitlines(keepends=True)
    got_rows = trace_csv.splitlines(keepends=True)
    if len(ref_rows) < 2:
        problems.append("reference trace has no rounds")
    elif got_rows[:len(ref_rows)] != ref_rows:
        first = next(
            (i for i, (g, r) in enumerate(zip(got_rows, ref_rows)) if g != r),
            min(len(got_rows), len(ref_rows)),
        )
        problems.append(f"trace differs from the in-process run at row {first}")
    return problems
