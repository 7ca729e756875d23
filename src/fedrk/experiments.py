"""Instance generators and the four runnable experiment reproductions.

Each runner is bit-reproducible from its spec and emits CSV files with a
documented schema when given an output directory. Full benchmark
dimensions are the defaults; every field can be overridden for quick
desk-scale runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import RngStream, as_matrix, derive_seed, format_csv
from .datasets import FEATURE_NAMES, load_prostate
from .errors import RankDeficient
# fed_run is not called here, but perfbench's tracer patches fedrk.experiments.fed_run
from .federation import RunConfig, fed_run, run_rounds
from .solver import LinearSystem

__all__ = [
    "EXPERIMENTS",
    "gen_gaussian_system",
    "gen_sparse_instance",
    "augment_columns",
    "ExperimentSpec",
    "ConvergenceResult",
    "SparseResult",
    "LsqResult",
    "ProstateResult",
    "run_convergence_experiment",
    "run_sparse_experiment",
    "run_lsq_experiment",
    "run_prostate_experiment",
    "least_squares_solution",
]

# each experiment's defaults; a spec may set exactly the keys of its entry,
# and a spec file's value parses as the type of its key's default
_DEFAULTS = {
    "convergence": dict(
        m=2048, n=1024, clients=16, participants=5, global_iters=20, rounds=200, trials=50,
        seed=20240, tau_list=(10, 20, 40),
    ),
    "sparse": dict(
        m=256, n=1024, clients=16, participants=5, local_iters=20, global_iters=20,
        rounds=1000, trials=50, seed=20241, sparsity=9, noise_scale=0.01,
    ),
    "lsq": dict(
        m=2048, n=256, clients=16, participants=16, local_iters=20, global_iters=20,
        rounds=400, trials=20, seed=20242, augment_cols=(0, 256, 768), consistent=False,
    ),
    "prostate": dict(
        clients=7, participants=3, local_iters=20, global_iters=20, rounds=2000, trials=5,
        seed=20243, sparsity=5, use_train_split=False,
    ),
}
EXPERIMENTS = tuple(_DEFAULTS)


def gen_gaussian_system(m, n, rng):
    """Consistent Gaussian system: A, x* i.i.d. standard normal, b = A x*."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    g = rng.generator
    A = g.standard_normal((m, n))
    x_star = g.standard_normal(n)
    return LinearSystem(A, A @ x_star), x_star


def gen_sparse_instance(m, n, s, noise_scale, rng):
    """Sparse-recovery instance: s-sparse x*, b = A x* + noise_scale * e."""
    if not 0 <= s <= n:
        raise ValueError("sparsity must satisfy 0 <= s <= n")
    g = rng.generator
    A = g.standard_normal((m, n))
    support = np.sort(g.choice(n, size=s, replace=False))
    x_star = np.zeros(n)
    x_star[support] = g.standard_normal(s)
    e = g.standard_normal(m)
    b = A @ x_star + noise_scale * e
    return LinearSystem(A, b), x_star


def augment_columns(A, k, rng):
    """Append k i.i.d. standard-normal columns to A; k=0 returns A unchanged."""
    A = as_matrix(A, name="A")
    k = int(k)
    if k < 0:
        raise ValueError("column count must be non-negative")
    if k == 0:
        return A
    B = rng.generator.standard_normal((A.shape[0], k))
    return np.hstack([A, B])


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment run; the fields it does not read keep their defaults."""

    name: str
    clients: int
    participants: int
    global_iters: int
    rounds: int
    trials: int
    seed: int
    m: Optional[int] = None
    n: Optional[int] = None
    local_iters: Optional[int] = None
    sparsity: Optional[int] = None
    noise_scale: float = 0.0
    tau_list: tuple = ()
    augment_cols: tuple = ()
    consistent: bool = False
    use_train_split: bool = False

    @classmethod
    def convergence(cls, **overrides):
        return cls._build("convergence", overrides)

    @classmethod
    def sparse(cls, **overrides):
        return cls._build("sparse", overrides)

    @classmethod
    def lsq(cls, **overrides):
        return cls._build("lsq", overrides)

    @classmethod
    def prostate(cls, **overrides):
        return cls._build("prostate", overrides)

    @classmethod
    def _build(cls, name, overrides):
        """The ``name`` spec: its defaults, then ``overrides``, each of which
        must be a key that experiment reads."""
        ignored = sorted(set(overrides) - set(_DEFAULTS[name]))
        if ignored:
            raise ValueError(f"the {name} experiment does not read {', '.join(ignored)}")
        spec = cls(name=name, **{**_DEFAULTS[name], **overrides})
        if spec.trials < 1:
            raise ValueError("trials must be at least 1")
        if name == "convergence":
            _check_distinct("tau_list", spec.tau_list, 1)
        elif name == "lsq":
            _check_distinct("augment_cols", spec.augment_cols, 0)
            if spec.rounds < 1:
                raise ValueError("the lsq experiment needs rounds >= 1")
            if spec.m < spec.n:
                raise ValueError("the lsq experiment needs m >= n")
        return spec

    @classmethod
    def from_text(cls, text):
        """The spec of ``key=value`` lines; blank lines and ``#`` comments are skipped."""
        values = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ValueError(f"spec key {key!r} is given twice")
            values[key] = value
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        name = values.pop("name", None)
        if name not in EXPERIMENTS:
            raise ValueError(f"spec name must be one of {', '.join(EXPERIMENTS)}")
        defaults = _DEFAULTS[name]
        # a key the experiment does not read keeps its text, for _build to refuse
        for key in sorted(values.keys() & defaults.keys()):
            values[key] = _parse_value(key, values[key], defaults[key])
        return getattr(cls, name)(**values)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())


def _parse_value(key, text, default):
    """A spec file's ``text`` for ``key``, as the type of its ``default``: a bool
    is true or false, a tuple comma-separated ints."""
    if isinstance(default, bool):
        if text not in ("true", "false"):
            raise ValueError(f"{key} must be true or false")
        return text == "true"
    if isinstance(default, tuple):
        return tuple(int(v) for v in text.split(",")) if text else ()
    return type(default)(text)


def _check_distinct(key, values, least):
    """A spec list the runner reports on: non-empty, distinct, each >= ``least``."""
    if not values or len(set(values)) != len(values) or min(values) < least:
        raise ValueError(f"{key} must list distinct values >= {least}, at least one")


def _run_config(spec, *run_ids, local_iters=None):
    """The run config of one trial; its master seed derives from ``run_ids``."""
    return RunConfig(
        clients=spec.clients,
        participants=spec.participants,
        local_iters=spec.local_iters if local_iters is None else local_iters,
        global_iters=spec.global_iters,
        rounds=spec.rounds,
        sparsity=spec.sparsity,
        master_seed=derive_seed(spec.seed, "run", *run_ids),
    )


# ---------------------------------------------------------------------------
# convergence (consistent overdetermined system, error curves per tau)
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceResult:
    spec: ExperimentSpec
    curves: dict  # tau -> median relative error, index = round

    def csv_text(self):
        rows = [(tau, t, value) for tau in self.spec.tau_list
                for t, value in enumerate(self.curves[tau])]
        return format_csv(rows, "tau,round,median_relative_error")


def run_convergence_experiment(spec, out_dir=None):
    """Median error-vs-round curves of the plain federated run, one per tau;
    each trial's system is built once and run at every tau."""
    errs = {tau: np.empty((spec.trials, spec.rounds + 1)) for tau in spec.tau_list}
    for trial in range(spec.trials):
        _convergence_trial(spec, trial, errs)
    curves = {tau: np.median(errs[tau], axis=0) for tau in spec.tau_list}
    result = ConvergenceResult(spec, curves)
    if out_dir is not None:
        _write(out_dir, "convergence.csv", result.csv_text())
    return result


def _convergence_trial(spec, trial, errs):
    """Fill row ``trial`` of each tau's relative errors; the trial's system
    is freed on return, before the next one is built."""
    system, x_star = gen_gaussian_system(
        spec.m, spec.n, RngStream(spec.seed, ("data", trial))
    )
    for tau in spec.tau_list:
        config = _run_config(spec, trial, tau, local_iters=tau)
        e = errs[tau][trial]

        def on_round(t, x, participants, dropped):
            e[t] = np.linalg.norm(x - x_star)

        run_rounds(system, config, np.zeros(spec.n), on_round)
        e /= e[0]


# ---------------------------------------------------------------------------
# sparse recovery (thresholded runs, per-index selection counts)
# ---------------------------------------------------------------------------

@dataclass
class SparseResult:
    spec: ExperimentSpec
    true_support: tuple
    selection_counts: np.ndarray  # per index, over trials
    relative_errors: np.ndarray  # per trial
    support_recovered: np.ndarray  # per trial, bool

    @property
    def recovery_rate(self):
        return float(np.mean(self.support_recovered))

    def counts_csv_text(self):
        true = set(self.true_support)
        rows = [(j, count, int(j in true)) for j, count in enumerate(self.selection_counts)]
        return format_csv(rows, "index,count,is_true_support")

    def trials_csv_text(self):
        rows = [(i, err, int(rec)) for i, (err, rec)
                in enumerate(zip(self.relative_errors, self.support_recovered))]
        return format_csv(rows, "trial,relative_error,support_recovered")


def run_sparse_experiment(spec, out_dir=None):
    """Thresholded federated runs against one fixed sparse instance.

    The instance is fixed and each trial re-randomizes the initialization
    and all sampling; counts how often each index survives the final
    threshold.
    """
    if spec.sparsity is None:
        raise ValueError("sparse experiment needs a sparsity level")
    system, x_star = gen_sparse_instance(
        spec.m, spec.n, spec.sparsity, spec.noise_scale, RngStream(spec.seed, ("data",))
    )
    true_support = tuple(int(j) for j in np.flatnonzero(x_star))
    norm_star = float(np.linalg.norm(x_star))

    counts = np.zeros(spec.n, dtype=np.int64)
    rel_errors = np.empty(spec.trials)
    recovered = np.zeros(spec.trials, dtype=bool)
    for trial in range(spec.trials):
        x0 = RngStream(spec.seed, ("init", trial)).generator.standard_normal(spec.n)
        config = _run_config(spec, trial)
        x_final = run_rounds(system, config, x0, lambda *_: False)  # no trace is read
        support = np.flatnonzero(x_final)
        counts[support] += 1
        rel_errors[trial] = float(np.linalg.norm(x_final - x_star)) / max(norm_star, 1e-300)
        recovered[trial] = tuple(int(j) for j in support) == true_support
    result = SparseResult(spec, true_support, counts, rel_errors, recovered)
    if out_dir is not None:
        _write(out_dir, "sparse_counts.csv", result.counts_csv_text())
        _write(out_dir, "sparse_trials.csv", result.trials_csv_text())
    return result


# ---------------------------------------------------------------------------
# least-squares horizon vs. number of augmented noise columns
# ---------------------------------------------------------------------------

@dataclass
class LsqResult:
    spec: ExperimentSpec
    horizons: dict  # k -> per-trial steady-state distance to x_LS

    def median_horizon(self, k):
        return float(np.median(self.horizons[k]))

    def csv_text(self):
        rows = [(k, trial, value) for k in self.spec.augment_cols
                for trial, value in enumerate(self.horizons[k])]
        return format_csv(rows, "k,trial,horizon")


def least_squares_solution(system):
    """argmin ||A x - b|| for a full-column-rank system; singular values
    below 1e-10 times the largest count as zero."""
    A, b = system.A, system.b
    solution, _, rank, _ = np.linalg.lstsq(A, b, rcond=1e-10)
    if rank < A.shape[1]:
        raise RankDeficient(f"rank {rank} < {A.shape[1]} columns")
    return solution


def run_lsq_experiment(spec, out_dir=None):
    """Steady-state distance of the first n coordinates to the exact
    least-squares solution, for each augmented-column count."""
    horizons = {k: np.empty(spec.trials) for k in spec.augment_cols}
    for trial in range(spec.trials):
        g = RngStream(spec.seed, ("data", trial)).generator
        A = g.standard_normal((spec.m, spec.n))
        if spec.consistent:
            b = A @ g.standard_normal(spec.n)
        else:
            b = g.standard_normal(spec.m)
        x_ls = least_squares_solution(LinearSystem(A, b))
        for k in spec.augment_cols:
            horizons[k][trial] = _lsq_horizon(spec, trial, k, A, b, x_ls)
    result = LsqResult(spec, horizons)
    if out_dir is not None:
        _write(out_dir, "lsq_horizons.csv", result.csv_text())
    return result


def _lsq_horizon(spec, trial, k, A, b, x_ls):
    """One run's median distance to ``x_ls`` over its last fifth of rounds;
    the widened system is freed on return, before the next k's is stacked."""
    n = spec.n
    A_wide = augment_columns(A, k, RngStream(spec.seed, ("augment", trial, k)))
    system = LinearSystem(A_wide, b)
    dists = np.empty(spec.rounds)

    def on_round(t, x, participants, dropped):
        if t:
            dists[t - 1] = float(np.linalg.norm(x[:n] - x_ls))

    run_rounds(system, _run_config(spec, trial, k), np.zeros(n + k), on_round)
    return float(np.median(dists[-max(1, spec.rounds // 5):]))


# ---------------------------------------------------------------------------
# prostate feature selection
# ---------------------------------------------------------------------------

@dataclass
class ProstateResult:
    spec: ExperimentSpec
    feature_names: tuple
    counts: np.ndarray  # trials x features, nonzero occurrences over rounds

    def top_features(self, trial, how_many=5):
        order = np.argsort(-self.counts[trial], kind="stable")
        return tuple(self.feature_names[j] for j in order[:how_many])

    def csv_text(self):
        rows = [(trial, name, count) for trial, counts in enumerate(self.counts)
                for name, count in zip(self.feature_names, counts)]
        return format_csv(rows, "trial,feature,count")


def _round_robin_order(rows, clients):
    return [i for c in range(clients) for i in range(c, rows, clients)]


def run_prostate_experiment(spec, data_path=None, out_dir=None):
    """Thresholded federated runs on the prostate data, counting per-round
    nonzero coefficients per feature.

    Rows go to clients round-robin; reordering them groups each client's
    rows contiguously without changing the assignment.
    """
    features, target = load_prostate(data_path, use_train_split=spec.use_train_split)
    order = _round_robin_order(features.shape[0], spec.clients)
    system = LinearSystem(features[order], target[order])
    n_features = len(FEATURE_NAMES)

    counts = np.zeros((spec.trials, n_features), dtype=np.int64)
    for trial in range(spec.trials):
        x0 = RngStream(spec.seed, ("init", trial)).generator.standard_normal(n_features)
        config = _run_config(spec, trial)

        def on_round(t, x, participants, dropped, trial=trial):
            if t:
                counts[trial, np.flatnonzero(x)] += 1

        run_rounds(system, config, x0, on_round)
    result = ProstateResult(spec, FEATURE_NAMES, counts)
    if out_dir is not None:
        _write(out_dir, "prostate_counts.csv", result.csv_text())
    return result


def _write(out_dir, filename, text):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, filename), "w") as fh:
        fh.write(text)
