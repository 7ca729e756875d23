"""Prostate cancer regression data: 8 standardized predictors plus intercept.

The loader accepts the standard whitespace-separated distribution of the
file (header row, optional leading row-index column, optional trailing
train/test column). By default all rows are used; ``use_train_split=True``
keeps only the rows marked ``T`` in the train column.
"""

import math
import os

import numpy as np

from .errors import SchemaError

__all__ = ["PREDICTORS", "TARGET_COLUMN", "FEATURE_NAMES", "load_prostate"]

PREDICTORS = ("lcavol", "lweight", "age", "lbph", "svi", "lcp", "gleason", "pgg45")
TARGET_COLUMN = "lpsa"
FEATURE_NAMES = ("intcpt",) + PREDICTORS

ENV_PATH = "FEDRK_PROSTATE_PATH"
DEFAULT_PATH = os.path.join("data", "prostate.data")


def default_prostate_path():
    return os.environ.get(ENV_PATH, DEFAULT_PATH)


def load_prostate(path=None, use_train_split=False):
    """Load, standardize, and intercept-augment the prostate data file.

    Returns ``(features, target)``: an intercept column of ones, then the
    standardized predictors, in the order of ``FEATURE_NAMES``.
    """
    if path is None:
        path = default_prostate_path()
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = lines[0].split()
    for column in PREDICTORS + (TARGET_COLUMN,):
        if column not in header:
            raise SchemaError(f"{path}: missing column {column!r}")
    if use_train_split and "train" not in header:
        raise SchemaError(f"{path}: missing column 'train'")
    index = {name: i for i, name in enumerate(header)}

    raw, target, train_flags = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) == len(header) + 1:
            fields = fields[1:]  # unnamed leading row-index column
        if len(fields) != len(header):
            raise SchemaError(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            values = [float(fields[index[p]]) for p in PREDICTORS + (TARGET_COLUMN,)]
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"{path}:{lineno}: non-finite value")
        raw.append(values[:-1])
        target.append(values[-1])
        train_flags.append(fields[index["train"]] if "train" in index else "T")

    X = np.asarray(raw, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if use_train_split:
        keep = np.array([flag == "T" for flag in train_flags])
        X, y = X[keep], y[keep]
    if X.shape[0] < 2:
        raise SchemaError(f"{path}: need at least 2 data rows")

    with np.errstate(over="ignore"):  # an overflowing column is refused below
        mean, std = X.mean(axis=0), X.std(axis=0)
    for name, scale in zip(PREDICTORS, std):
        if scale == 0.0:
            raise SchemaError(f"{path}: constant column {name!r}")
        if not math.isfinite(scale):
            raise SchemaError(f"{path}: column {name!r} overflows when standardized")
    standardized = (X - mean) / std
    return np.hstack([np.ones((X.shape[0], 1)), standardized]), y
