"""Tests for instance generators, experiment runners, and their CSV schemas."""

import numpy as np
import pytest

from fedrk.core import RngStream
from fedrk.datasets import load_prostate
from fedrk.errors import SchemaError
from fedrk.experiments import (
    ExperimentSpec,
    augment_columns,
    gen_gaussian_system,
    gen_sparse_instance,
    run_convergence_experiment,
    run_lsq_experiment,
    run_prostate_experiment,
    run_sparse_experiment,
)
from oracles import rounds_to_threshold

# ---------------------------------------------------------------------------
# readers for the runners' CSV outputs
# ---------------------------------------------------------------------------

def read_csv_rows(path, header):
    with open(path) as fh:
        assert fh.readline().strip() == header
        return [line.strip().split(",") for line in fh if line.strip()]


def load_convergence_csv(path):
    curves = {}
    for tau, t, value in read_csv_rows(path, "tau,round,median_relative_error"):
        curves.setdefault(int(tau), []).append((int(t), float(value)))
    return {tau: np.array([v for _, v in sorted(pairs)]) for tau, pairs in curves.items()}


def load_counts_csv(path):
    rows = sorted(
        (int(j), int(count), bool(int(flag)))
        for j, count, flag in read_csv_rows(path, "index,count,is_true_support")
    )
    return np.array([c for _, c, _ in rows]), np.array([f for _, _, f in rows])


def load_horizons_csv(path):
    horizons = {}
    for k, trial, value in read_csv_rows(path, "k,trial,horizon"):
        horizons.setdefault(int(k), []).append((int(trial), float(value)))
    return {k: np.array([v for _, v in sorted(pairs)]) for k, pairs in horizons.items()}


def load_prostate_counts_csv(path):
    data = {}
    for trial, feature, count in read_csv_rows(path, "trial,feature,count"):
        data.setdefault(int(trial), {})[feature] = int(count)
    return data


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gaussian_system_moments():
    system, _ = gen_gaussian_system(1000, 1000, RngStream(1))
    entries = system.A.ravel()
    assert abs(entries.mean()) < 0.005
    assert abs(entries.var() - 1.0) < 0.01


def test_gaussian_system_consistent_by_construction():
    system, x_star = gen_gaussian_system(20, 5, RngStream(2))
    assert np.array_equal(system.b, system.A @ x_star)


def test_gaussian_system_deterministic():
    s1, x1 = gen_gaussian_system(8, 3, RngStream(3))
    s2, x2 = gen_gaussian_system(8, 3, RngStream(3))
    assert np.array_equal(s1.A, s2.A)
    assert np.array_equal(s1.b, s2.b)
    assert np.array_equal(x1, x2)


def test_sparse_instance_structure():
    system, x_star = gen_sparse_instance(30, 50, 7, 0.01, RngStream(4))
    assert np.count_nonzero(x_star) == 7
    assert system.A.shape == (30, 50)
    noiseless, x2 = gen_sparse_instance(30, 50, 7, 0.0, RngStream(4))
    assert np.array_equal(noiseless.b, noiseless.A @ x2)
    with pytest.raises(ValueError):
        gen_sparse_instance(10, 5, 6, 0.0, RngStream(0))


def test_sparse_instance_noise_scale_ratio():
    # replay the generator's draw order to recover e, then check the ratio
    m, n, s, scale = 25, 40, 5, 0.01
    system, x_star = gen_sparse_instance(m, n, s, scale, RngStream(5))
    g = RngStream(5).generator
    g.standard_normal((m, n))
    g.choice(n, size=s, replace=False)
    g.standard_normal(s)
    e = g.standard_normal(m)
    ratio = np.linalg.norm(system.b - system.A @ x_star) / np.linalg.norm(e)
    assert ratio == pytest.approx(scale, rel=1e-12)


def test_augment_columns():
    A = np.random.default_rng(6).standard_normal((10, 4))
    assert augment_columns(A, 0, RngStream(7)) is not None
    assert np.array_equal(augment_columns(A, 0, RngStream(7)), A)
    wide = augment_columns(A, 3, RngStream(7))
    assert wide.shape == (10, 7)
    assert np.array_equal(wide[:, :4], A)
    with pytest.raises(ValueError):
        augment_columns(A, -1, RngStream(7))


def test_augment_columns_near_orthogonality():
    g = RngStream(8)
    A = g.generator.standard_normal((2048, 16))
    B = augment_columns(A, 16, g)[:, 16:]
    picks = np.random.default_rng(9)
    close = 0
    pairs = 500
    for _ in range(pairs):
        u = A[:, picks.integers(0, 16)]
        v = B[:, picks.integers(0, 16)]
        cosine = abs(np.dot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
        close += cosine < 0.1
    assert close / pairs >= 0.99


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def test_spec_text_round_trip():
    spec = ExperimentSpec.convergence(m=64, n=16, trials=3, tau_list=(2, 4))
    text = "name=convergence\nm=64\nn=16\ntrials=3\ntau_list=2,4\n"
    assert ExperimentSpec.from_text(text) == spec
    sparse = ExperimentSpec.sparse(m=32, n=64, sparsity=3, noise_scale=0.5)
    text = "# comment\nname=sparse\nm=32\nn=64\nsparsity=3\nnoise_scale=0.5\n"
    assert ExperimentSpec.from_text(text) == sparse
    lsq = ExperimentSpec.lsq(m=32, n=8, augment_cols=(0, 8), consistent=True)
    text = "name=lsq\nm=32\nn=8\naugment_cols=0,8\nconsistent=true\n"
    assert ExperimentSpec.from_text(text) == lsq


def test_spec_from_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("name=lsq\nm=64\nn=8\ntrials=2\naugment_cols=0,8\n")
    spec = ExperimentSpec.from_file(path)
    assert spec.name == "lsq" and spec.m == 64 and spec.augment_cols == (0, 8)


def test_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        ExperimentSpec.from_text("m=3\n")  # no name
    with pytest.raises(ValueError):
        ExperimentSpec.from_text("name=bogus\n")
    with pytest.raises(ValueError):
        ExperimentSpec.from_text("name=sparse\nwhatisthis=1\n")
    with pytest.raises(ValueError):
        ExperimentSpec.from_text("name=lsq\nconsistent=maybe\n")


@pytest.mark.parametrize("name, key, value", [
    ("lsq", "sparsity", 2),
    ("convergence", "local_iters", 999),
    ("convergence", "local_iters", 1),
])
def test_spec_refuses_a_key_its_experiment_ignores(name, key, value):
    # lsq runs unthresholded whatever its sparsity; convergence takes tau from tau_list
    message = f"the {name} experiment does not read {key}"
    with pytest.raises(ValueError, match=message):
        ExperimentSpec.from_text(f"name={name}\n{key}={value}\n")
    with pytest.raises(ValueError, match=message):
        getattr(ExperimentSpec, name)(**{key: value})


@pytest.mark.parametrize("name, key, value, message", [
    ("convergence", "trials", 0, "trials must be at least 1"),
    ("sparse", "trials", 0, "trials must be at least 1"),
    ("prostate", "trials", 0, "trials must be at least 1"),
    ("lsq", "rounds", 0, "the lsq experiment needs rounds >= 1"),
    ("convergence", "tau_list", (), "tau_list must list distinct values >= 1"),
    ("convergence", "tau_list", (2, 2), "tau_list must list distinct values >= 1"),
    ("convergence", "tau_list", (0, 2), "tau_list must list distinct values >= 1"),
    ("lsq", "augment_cols", (), "augment_cols must list distinct values >= 0"),
    ("lsq", "augment_cols", (0, 0), "augment_cols must list distinct values >= 0"),
    ("lsq", "augment_cols", (-1,), "augment_cols must list distinct values >= 0"),
], ids=[
    "convergence_trials", "sparse_trials", "prostate_trials", "lsq_rounds", "empty_tau",
    "repeated_tau", "zero_tau", "empty_augment", "repeated_augment", "negative_augment",
])
def test_spec_refuses_what_its_runner_cannot_report_on(name, key, value, message):
    text = ",".join(map(str, value)) if isinstance(value, tuple) else value
    with pytest.raises(ValueError, match=message):
        ExperimentSpec.from_text(f"name={name}\n{key}={text}\n")
    with pytest.raises(ValueError, match=message):
        getattr(ExperimentSpec, name)(**{key: value})


def test_spec_refuses_a_repeated_key():
    with pytest.raises(ValueError, match="spec key 'rounds' is given twice"):
        ExperimentSpec.from_text("name=lsq\nrounds=3\nrounds=4\n")


# ---------------------------------------------------------------------------
# convergence runner
# ---------------------------------------------------------------------------

def test_convergence_runner_small(tmp_path):
    spec = ExperimentSpec.convergence(
        m=96, n=24, clients=4, participants=2, rounds=60, trials=3,
        tau_list=(5, 15), seed=777,
    )
    result = run_convergence_experiment(spec, out_dir=tmp_path)
    for tau in spec.tau_list:
        curve = result.curves[tau]
        assert curve[0] == 1.0
        assert curve[-1] < curve[0]
    # more local iterations do not hurt the rounds-to-threshold
    fast = rounds_to_threshold(result.curves[15], 1e-4)
    slow = rounds_to_threshold(result.curves[5], 1e-4)
    assert fast <= slow
    loaded = load_convergence_csv(tmp_path / "convergence.csv")
    for tau in spec.tau_list:
        assert np.array_equal(loaded[tau], result.curves[tau])


def test_convergence_runner_deterministic(tmp_path):
    spec = ExperimentSpec.convergence(
        m=48, n=12, clients=3, participants=2, rounds=20, trials=2, tau_list=(3,),
    )
    first = run_convergence_experiment(spec, out_dir=tmp_path / "a")
    second = run_convergence_experiment(spec, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "convergence.csv").read_text() == (
        tmp_path / "b" / "convergence.csv"
    ).read_text()
    assert np.array_equal(first.curves[3], second.curves[3])


# ---------------------------------------------------------------------------
# sparse runner
# ---------------------------------------------------------------------------

def test_sparse_runner_small(tmp_path):
    spec = ExperimentSpec.sparse(
        m=48, n=96, sparsity=3, clients=4, participants=2, rounds=250,
        trials=6, seed=1234,
    )
    result = run_sparse_experiment(spec, out_dir=tmp_path)
    assert len(result.true_support) == 3
    # true indices dominate the count table
    true = np.array(result.true_support)
    off = np.setdiff1d(np.arange(spec.n), true)
    assert result.selection_counts[true].min() >= 0.8 * spec.trials
    assert result.selection_counts[off].max() <= 0.4 * spec.trials
    counts, flags = load_counts_csv(tmp_path / "sparse_counts.csv")
    assert np.array_equal(counts, result.selection_counts)
    assert np.array_equal(np.flatnonzero(flags), true)


def test_sparse_runner_noiseless_recovers(tmp_path):
    spec = ExperimentSpec.sparse(
        m=48, n=80, sparsity=3, noise_scale=0.0, clients=4, participants=2,
        rounds=300, trials=5, seed=4321,
    )
    result = run_sparse_experiment(spec)
    assert np.median(result.relative_errors) < 1e-4
    assert result.recovery_rate >= 0.8


def test_sparse_requires_sparsity():
    with pytest.raises(ValueError):
        run_sparse_experiment(ExperimentSpec.sparse(sparsity=None))


def test_sparse_and_lsq_runners_deterministic(tmp_path):
    sparse = ExperimentSpec.sparse(
        m=32, n=48, sparsity=2, clients=4, participants=2, rounds=60, trials=2,
    )
    a = run_sparse_experiment(sparse, out_dir=tmp_path / "s1")
    b = run_sparse_experiment(sparse, out_dir=tmp_path / "s2")
    assert np.array_equal(a.selection_counts, b.selection_counts)
    assert (tmp_path / "s1" / "sparse_trials.csv").read_text() == (
        tmp_path / "s2" / "sparse_trials.csv"
    ).read_text()

    lsq = ExperimentSpec.lsq(
        m=48, n=6, clients=3, participants=3, rounds=40, trials=2, augment_cols=(0, 6),
    )
    c = run_lsq_experiment(lsq, out_dir=tmp_path / "l1")
    d = run_lsq_experiment(lsq, out_dir=tmp_path / "l2")
    assert (tmp_path / "l1" / "lsq_horizons.csv").read_text() == (
        tmp_path / "l2" / "lsq_horizons.csv"
    ).read_text()
    for k in lsq.augment_cols:
        assert np.array_equal(c.horizons[k], d.horizons[k])


# ---------------------------------------------------------------------------
# least-squares runner
# ---------------------------------------------------------------------------

def test_lsq_runner_small(tmp_path):
    spec = ExperimentSpec.lsq(
        m=96, n=12, clients=4, participants=4, rounds=120, trials=4,
        augment_cols=(0, 12, 36), seed=2024,
    )
    result = run_lsq_experiment(spec, out_dir=tmp_path)
    medians = [result.median_horizon(k) for k in spec.augment_cols]
    assert medians[0] > 0.0
    assert medians[0] >= medians[1] >= medians[2]
    loaded = load_horizons_csv(tmp_path / "lsq_horizons.csv")
    for k in spec.augment_cols:
        assert np.array_equal(loaded[k], result.horizons[k])


def test_lsq_runner_consistent_converges():
    spec = ExperimentSpec.lsq(
        m=64, n=8, clients=4, participants=4, rounds=200, trials=2,
        augment_cols=(0,), consistent=True, seed=11,
    )
    result = run_lsq_experiment(spec)
    assert result.median_horizon(0) < 1e-6


# ---------------------------------------------------------------------------
# prostate data and runner
# ---------------------------------------------------------------------------

def synthetic_prostate_file(path, rows=35, with_train=True, with_index=True, seed=0):
    g = np.random.default_rng(seed)
    header = ["lcavol", "lweight", "age", "lbph", "svi", "lcp", "gleason", "pgg45", "lpsa"]
    if with_train:
        header.append("train")
    lines = ["\t".join(header)]
    for i in range(rows):
        values = [f"{v:.6f}" for v in g.standard_normal(8) * [1, 0.5, 7, 1.5, 0.4, 1.4, 0.7, 25]]
        values.append(f"{g.standard_normal():.6f}")  # lpsa
        if with_train:
            values.append("T" if i % 3 else "F")
        if with_index:
            values.insert(0, str(i + 1))
        lines.append("\t".join(values))
    path.write_text("\n".join(lines) + "\n")


def test_load_prostate_standardizes(tmp_path):
    path = tmp_path / "prostate.data"
    synthetic_prostate_file(path)
    features, target = load_prostate(path)
    assert features.shape == (35, 9) and target.shape == (35,)
    assert np.all(features[:, 0] == 1.0)
    for j in range(1, 9):
        assert abs(features[:, j].mean()) <= 1e-10
        assert abs(features[:, j].std() - 1.0) <= 1e-10


def test_load_prostate_train_split(tmp_path):
    path = tmp_path / "prostate.data"
    synthetic_prostate_file(path, rows=30)
    full, _ = load_prostate(path)
    train, train_target = load_prostate(path, use_train_split=True)
    assert train.shape[0] == train_target.size == 20  # i % 3 != 0 rows
    assert full.shape[0] == 30


def test_load_prostate_without_optional_columns(tmp_path):
    path = tmp_path / "plain.data"
    synthetic_prostate_file(path, with_train=False, with_index=False)
    features, _ = load_prostate(path)
    assert features.shape == (35, 9)


def test_load_prostate_schema_errors(tmp_path):
    path = tmp_path / "missing.data"
    path.write_text("lcavol lweight age lbph svi lcp gleason lpsa\n" + "1 " * 8 + "\n")
    with pytest.raises(SchemaError, match="pgg45"):
        load_prostate(path)
    bad = tmp_path / "badvalue.data"
    bad.write_text(
        "lcavol lweight age lbph svi lcp gleason pgg45 lpsa\n"
        "1 2 3 4 5 6 7 oops 9\n1 2 3 4 5 6 7 8 9\n"
    )
    with pytest.raises(SchemaError):
        load_prostate(bad)
    with pytest.raises(FileNotFoundError):
        load_prostate(tmp_path / "nope.data")


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_load_prostate_names_the_line_of_a_non_finite_field(tmp_path, field):
    path = tmp_path / "prostate.data"
    synthetic_prostate_file(path, rows=5, with_train=False, with_index=False)
    lines = path.read_text().splitlines()
    fields = lines[3].split("\t")
    fields[5] = field
    lines[3] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=r"prostate\.data:4: non-finite value"):
        load_prostate(path)


def test_load_prostate_refuses_constant_or_overflowing_columns(tmp_path):
    header = "lcavol lweight age lbph svi lcp gleason pgg45 lpsa\n"
    path = tmp_path / "constant.data"
    path.write_text(header + "1 2 3 4 5 6 7 8 9\n2 2 4 5 6 7 8 9 1\n")
    with pytest.raises(SchemaError, match="constant column 'lweight'"):
        load_prostate(path)
    # finite entries whose variance overflows
    path = tmp_path / "huge.data"
    path.write_text(header + "1 2 3 4 5 6 7 1e300 9\n2 3 4 5 6 7 8 -1e300 1\n")
    with pytest.raises(SchemaError, match="column 'pgg45' overflows"):
        load_prostate(path)


def test_prostate_env_var_override(tmp_path, monkeypatch):
    path = tmp_path / "env.data"
    synthetic_prostate_file(path)
    monkeypatch.setenv("FEDRK_PROSTATE_PATH", str(path))
    features, _ = load_prostate()
    assert features.shape[0] == 35


def test_prostate_runner_counts(tmp_path):
    path = tmp_path / "prostate.data"
    synthetic_prostate_file(path, rows=35, seed=3)
    spec = ExperimentSpec.prostate(rounds=80, trials=2, seed=55)
    result = run_prostate_experiment(spec, data_path=path, out_dir=tmp_path)
    assert result.counts.shape == (2, 9)
    # five survivors per round once the iterate carries >= 5 nonzeros
    assert np.all(result.counts.sum(axis=1) == 80 * 5)
    assert len(result.top_features(0)) == 5
    loaded = load_prostate_counts_csv(tmp_path / "prostate_counts.csv")
    for trial in range(2):
        for j, name in enumerate(result.feature_names):
            assert loaded[trial][name] == result.counts[trial, j]


def test_prostate_runner_round_robin_blocks(tmp_path):
    # 35 rows over 7 clients: every client gets exactly 5 rows
    from fedrk.experiments import _round_robin_order

    order = _round_robin_order(35, 7)
    assert sorted(order) == list(range(35))
    assert order[:5] == [0, 7, 14, 21, 28]
    order97 = _round_robin_order(97, 7)
    sizes = [len(range(c, 97, 7)) for c in range(7)]
    assert sizes == [14, 14, 14, 14, 14, 14, 13]
    assert sorted(order97) == list(range(97))
