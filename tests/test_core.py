"""Tests for the dense kernels: projection step, thresholding, sampling, RNG."""

import os
import struct
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedrk.core import (
    RngStream,
    SamplingScheme,
    as_matrix,
    as_vector,
    derive_seed,
    hard_threshold,
    load_dmat,
    load_matrix_csv,
    load_vector,
    row_norms_sq,
    sample_rows,
    save_vector_csv,
)
from fedrk.errors import AllRowsZero, DimensionMismatch, ZeroRow
from harness import save_dmat, save_matrix_csv
from oracles import rk_step

FINITE = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


# ---------------------------------------------------------------------------
# validating constructors
# ---------------------------------------------------------------------------

def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([[1.0], [np.nan]])
    for bad in (np.nan, np.inf, -np.inf):
        for index in (0, 5, 11):  # the first, a middle and the last entry
            m = np.arange(12.0).reshape(3, 4)
            m.flat[index] = bad
            with pytest.raises(ValueError, match="M contains non-finite entries"):
                as_matrix(m, name="M")


def test_matrix_rows_are_views():
    m = as_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m[1].base is not None
    assert m[1].shape == (2,)


# ---------------------------------------------------------------------------
# rk_step
# ---------------------------------------------------------------------------

def test_rk_step_fixed_point_example():
    out = rk_step(np.array([1.0, 1.0]), 1.0, np.array([1.0, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_rk_step_hand_evaluated_examples():
    # (0 - 25)/25 * (3,4) added to (3,4) lands at the origin
    out = rk_step(np.array([3.0, 4.0]), 0.0, np.array([3.0, 4.0]))
    assert np.allclose(out, [0.0, 0.0], atol=1e-15)
    out = rk_step(np.array([1.0, 0.0]), 1.0, np.array([0.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0], atol=0)


def test_rk_step_errors():
    with pytest.raises(ZeroRow):
        rk_step(np.array([0.0, 0.0]), 1.0, np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        rk_step(np.array([1.0, 2.0, 3.0]), 1.0, np.array([1.0, 2.0]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    a=arrays(np.float64, st.integers(2, 6), elements=st.floats(-10, 10)),
    x=arrays(np.float64, st.integers(2, 6), elements=st.floats(-10, 10)),
)
def test_rk_step_lands_on_hyperplane(a, x):
    if a.size != x.size or np.linalg.norm(a) < 1e-3:
        return
    b_j = 1.5
    out = rk_step(a, b_j, x)
    bound = 1e-10 * (1 + abs(b_j) + np.linalg.norm(a) * np.linalg.norm(x))
    assert abs(np.dot(a, out) - b_j) <= bound


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    a=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    x=arrays(np.float64, 4, elements=st.floats(-10, 10)),
)
def test_rk_step_fixed_point_property(a, x):
    if np.linalg.norm(a) < 1e-3:
        return
    b_j = float(np.dot(a, x))  # x is exactly on the hyperplane as computed
    out = rk_step(a, b_j, x)
    assert np.array_equal(out, x)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    a=arrays(np.float64, 5, elements=st.floats(-10, 10)),
    x=arrays(np.float64, 5, elements=st.floats(-10, 10)),
    z0=arrays(np.float64, 5, elements=st.floats(-10, 10)),
)
def test_rk_step_non_expansive_toward_solutions(a, x, z0):
    if np.linalg.norm(a) < 1e-3:
        return
    b_j = 0.75
    # project an arbitrary point onto the hyperplane to get a solution z
    z = rk_step(a, b_j, z0)
    out = rk_step(a, b_j, x)
    lhs = np.linalg.norm(out - z)
    rhs = np.linalg.norm(x - z)
    assert lhs <= rhs + 1e-12 * (1.0 + rhs)


# ---------------------------------------------------------------------------
# hard_threshold
# ---------------------------------------------------------------------------

def test_hard_threshold_examples():
    assert np.array_equal(
        hard_threshold(np.array([3.0, -5.0, 1.0, 0.0]), 2), [3.0, -5.0, 0.0, 0.0]
    )
    # tie between |2| and |-2| keeps the lower index
    assert np.array_equal(hard_threshold(np.array([2.0, -2.0, 1.0]), 1), [2.0, 0.0, 0.0])
    x = np.array([0.5, -1.5, 2.5])
    assert np.array_equal(hard_threshold(x, 3), x)
    assert np.array_equal(hard_threshold(x, 7), x)
    assert np.array_equal(hard_threshold(x, 0), np.zeros(3))
    with pytest.raises(ValueError):
        hard_threshold(x, -1)


def test_hard_threshold_structure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        s = int(rng.integers(0, n + 1))
        x = rng.standard_normal(n)
        out = hard_threshold(x, s)
        kept = np.flatnonzero(out)
        assert kept.size <= s
        assert np.all(out[kept] == x[kept])
        if kept.size:
            dropped = np.setdiff1d(np.arange(n), kept)
            if dropped.size:
                assert np.max(np.abs(x[dropped])) <= np.min(np.abs(x[kept]))


def test_hard_threshold_best_s_term_brute_force():
    # optimal s-sparse approximation over every support, n <= 8
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(0, n + 1))
        x = rng.standard_normal(n)
        out = hard_threshold(x, s)
        err = np.linalg.norm(x - out)
        for support in combinations(range(n), min(s, n)):
            z = np.zeros(n)
            z[list(support)] = x[list(support)]
            assert err <= np.linalg.norm(x - z) + 1e-12


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_row_single_row_matrix():
    m = as_matrix([[2.0, 1.0]])
    cdf = SamplingScheme.uniform().cdf(row_norms_sq(m))
    rng = RngStream(0)
    assert all(sample_rows(cdf, rng, 1)[0] == 0 for _ in range(10))


def test_sample_rows_uniform_frequencies():
    m = as_matrix(np.ones((4, 2)))
    rng = RngStream(123, (0, 0))
    idx = sample_rows(SamplingScheme.uniform().cdf(row_norms_sq(m)), rng, 100_000)
    freqs = np.bincount(idx, minlength=4) / idx.size
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_sample_rows_squared_norm_frequencies():
    m = as_matrix([[1.0, 0.0], [0.0, 2.0]])  # squared norms 1 and 4
    rng = RngStream(7, (1, 2))
    idx = sample_rows(SamplingScheme.squared_row_norm().cdf(row_norms_sq(m)), rng, 100_000)
    freqs = np.bincount(idx, minlength=2) / idx.size
    assert abs(freqs[0] - 0.2) < 0.02
    assert abs(freqs[1] - 0.8) < 0.02


def test_squared_norm_probabilities_exact():
    m = as_matrix([[3.0, 4.0], [0.0, 2.0], [1.0, 0.0]])
    p = SamplingScheme.squared_row_norm().probabilities(row_norms_sq(m))
    expected = np.array([25.0, 4.0, 1.0]) / 30.0
    assert np.all(np.abs(p - expected) <= 1e-12 * expected)


def test_sampling_errors():
    zeros = as_matrix(np.zeros((3, 2)))
    with pytest.raises(AllRowsZero):
        sample_rows(SamplingScheme.squared_row_norm().cdf(row_norms_sq(zeros)), RngStream(0), 1)[0]
    with pytest.raises(ValueError):
        SamplingScheme("custom").probabilities(row_norms_sq(zeros))


def test_unknown_sampling_scheme_is_refused_when_built():
    with pytest.raises(ValueError, match="unknown sampling scheme kind 'foo'"):
        SamplingScheme("foo")


def test_sampler_determinism():
    m = as_matrix(np.arange(8.0).reshape(4, 2) + 1.0)
    cdf = SamplingScheme.squared_row_norm().cdf(row_norms_sq(m))
    a = sample_rows(cdf, RngStream(42, (3, 1)), 1000)
    b = sample_rows(cdf, RngStream(42, (3, 1)), 1000)
    c = sample_rows(cdf, RngStream(42, (3, 2)), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_split_draws_match_batch():
    m = as_matrix(np.ones((5, 3)))
    cdf = SamplingScheme.uniform().cdf(row_norms_sq(m))
    whole = sample_rows(cdf, RngStream(9, (0,)), 20)
    stream = RngStream(9, (0,))
    first = sample_rows(cdf, stream, 8)
    second = sample_rows(cdf, stream, 12)
    assert np.array_equal(whole, np.concatenate([first, second]))


# ---------------------------------------------------------------------------
# RngStream / derive_seed
# ---------------------------------------------------------------------------

def test_rng_stream_determinism():
    a = RngStream(99, (4, 2)).generator.random(16)
    b = RngStream(99, (4, 2)).generator.random(16)
    c = RngStream(99, (4, 3)).generator.random(16)
    d = RngStream(98, (4, 2)).generator.random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_string_tags():
    a = RngStream(1, ("data", 5)).generator.random(4)
    b = RngStream(1, ("data", 5)).generator.random(4)
    c = RngStream(1, ("init", 5)).generator.random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_seed_range():
    RngStream(2**64 - 1)
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(42, 3, 7)
    assert s1 == derive_seed(42, 3, 7)
    assert s1 != derive_seed(42, 3, 8)
    assert 0 <= s1 < 2**64
    # deriving then seeding reproduces one stream
    x = RngStream(derive_seed(42, 3, 7)).generator.random(8)
    y = RngStream(derive_seed(42, 3, 7)).generator.random(8)
    assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_matrix_csv_round_trip(tmp_path):
    m = np.random.default_rng(3).standard_normal((5, 4))
    path = tmp_path / "a.csv"
    save_matrix_csv(path, m)
    assert np.array_equal(load_matrix_csv(path), m)


def test_vector_csv_round_trip(tmp_path):
    v = np.random.default_rng(4).standard_normal(7)
    path = tmp_path / "b.csv"
    save_vector_csv(path, v)
    assert np.array_equal(load_vector(path), v)


def test_dmat_round_trip(tmp_path):
    m = np.random.default_rng(5).standard_normal((6, 3))
    path = tmp_path / "a.dmat"
    save_dmat(path, m)
    assert np.array_equal(load_dmat(path), m)


@pytest.mark.parametrize("suffix", [".csv", ".dmat"])
def test_load_vector_refuses_more_than_one_column(suffix, tmp_path):
    path = tmp_path / f"b{suffix}"
    (save_dmat if suffix == ".dmat" else save_matrix_csv)(path, np.ones((3, 2)))
    with pytest.raises(ValueError, match="expected a single column, got 2"):
        load_vector(path)
    save_dmat(tmp_path / "v.dmat", np.arange(3.0).reshape(3, 1))
    assert np.array_equal(load_vector(tmp_path / "v.dmat"), np.arange(3.0))


def test_dmat_rejects_corruption(tmp_path):
    m = np.ones((2, 2))
    path = tmp_path / "a.dmat"
    save_dmat(path, m)
    raw = path.read_bytes()
    (tmp_path / "bad_magic.dmat").write_bytes(b"XMAT" + raw[4:])
    with pytest.raises(ValueError):
        load_dmat(tmp_path / "bad_magic.dmat")
    (tmp_path / "short.dmat").write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_dmat(tmp_path / "short.dmat")


def test_dmat_longer_than_its_header_is_refused_unread(tmp_path):
    path = tmp_path / "long.dmat"
    save_dmat(path, np.ones((2, 2)))
    with open(path, "r+b") as fh:
        fh.truncate(12 + 32 + 64 * 2**20)  # 64 MB of trailing bytes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"expected 32 data bytes, got {32 + 64 * 2**20}"):
            load_dmat(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dmat_from_a_pipe_is_refused(tmp_path):
    # a pipe's size is unknown, so its body could not be bounded before reading
    path = tmp_path / "pipe.dmat"
    os.mkfifo(path)
    header = struct.pack("<4sII", b"DMAT", 2, 2)
    writer = threading.Thread(target=path.write_bytes, args=(header + bytes(32),))
    writer.start()
    try:
        with pytest.raises(ValueError, match="a DMAT must be a regular file"):
            load_dmat(path)
    finally:
        writer.join()


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        load_matrix_csv(path)
