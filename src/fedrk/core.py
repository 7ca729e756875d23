"""Dense double-precision kernels everything else builds on.

Vectors and matrices are plain float64 numpy arrays; :func:`as_vector` and
:func:`as_matrix` are the validating constructors that enforce finiteness and
shape. Row sampling, the Kaczmarz projection step, hard thresholding, seeded
random streams and the matrix file formats all live here.
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import AllRowsZero, DimensionMismatch, ZeroRow

__all__ = [
    "as_vector",
    "as_matrix",
    "zero_row_tol",
    "row_norms_sq",
    "RngStream",
    "derive_seed",
    "SamplingScheme",
    "rk_step",
    "hard_threshold",
    "sample_rows",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_vector_csv",
    "save_dmat",
    "load_dmat",
    "load_matrix",
    "load_vector",
    "parse_key_values",
]

_U64_MAX = 2**64 - 1


def as_vector(data, name="vector"):
    """Validate and return a 1-D float64 array (length >= 1, all finite)."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(data, name="matrix"):
    """Validate and return a 2-D row-major float64 array (at least one row and
    one column, all finite)."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one column")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def zero_row_tol(x_norm):
    """Scale-aware threshold below which a row/update counts as zero."""
    return 1e-12 * (1.0 + x_norm)


def row_norms_sq(matrix):
    """Squared Euclidean norm of each row of a 2-D array (of a 1-D array itself)."""
    return np.einsum("...j,...j->...", matrix, matrix)


def _spawn_key(stream_id):
    key = []
    for part in stream_id:
        if isinstance(part, str):
            digest = hashlib.blake2s(part.encode(), digest_size=4).digest()
            key.append(int.from_bytes(digest, "little"))
        else:
            part = int(part)
            if part < 0:
                raise ValueError("stream_id components must be non-negative")
            key.append(part)
    return tuple(key)


class RngStream:
    """Counter-derived random stream.

    Equal ``(master_seed, stream_id)`` pairs reproduce the same sequence;
    distinct ids give statistically independent streams (Philox keyed via
    SeedSequence spawn keys), so parallel and serial execution agree.
    """

    def __init__(self, master_seed, stream_id=()):
        master_seed = int(master_seed)
        if not 0 <= master_seed <= _U64_MAX:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        self.master_seed = master_seed
        self.stream_id = tuple(stream_id)
        seq = np.random.SeedSequence(master_seed, spawn_key=_spawn_key(self.stream_id))
        self.generator = np.random.Generator(np.random.Philox(seq))

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"


def derive_seed(master_seed, *ids):
    """Derive a 64-bit seed from a master seed and integer/string ids.

    The server uses this to hand each (round, client) pair its own stream
    seed, so remote clients need no shared RNG state.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=_spawn_key(ids))
    return int(seq.generate_state(1, np.uint64)[0])


_UNIFORM = "uniform"
_SQNORM = "sqnorm"


@dataclass(frozen=True)
class SamplingScheme:
    """Row-sampling distribution; ``kind`` is "uniform" or "sqnorm" (squared row norm)."""

    kind: str

    @classmethod
    def uniform(cls):
        return cls(_UNIFORM)

    @classmethod
    def squared_row_norm(cls):
        return cls(_SQNORM)

    def probabilities(self, row_sq):
        """Per-row probabilities under this scheme, from the rows' squared norms."""
        m = row_sq.shape[0]
        if self.kind == _UNIFORM:
            return np.full(m, 1.0 / m)
        if self.kind == _SQNORM:
            total = float(row_sq.sum())
            if total <= 0.0:
                raise AllRowsZero("squared-row-norm sampling on an all-zero matrix")
            return row_sq / total
        raise ValueError(f"unknown sampling scheme kind {self.kind!r}")

    def cdf(self, row_sq):
        """Inverse-CDF table of :meth:`probabilities`; the last entry is exactly 1."""
        cdf = np.cumsum(self.probabilities(row_sq))
        cdf[-1] = 1.0
        return cdf


def rk_step(a, b_j, x):
    """One Kaczmarz projection of ``x`` onto the hyperplane <a, .> = b_j."""
    a = as_vector(a, name="row")
    x = as_vector(x, name="x")
    if a.size != x.size:
        raise DimensionMismatch(f"row has dim {a.size}, x has dim {x.size}")
    norm_sq = float(np.dot(a, a))
    tol = zero_row_tol(float(np.linalg.norm(x)))
    if norm_sq <= tol * tol:
        raise ZeroRow("cannot project onto a numerically zero row")
    return x + ((float(b_j) - float(np.dot(a, x))) / norm_sq) * a


def hard_threshold(x, s):
    """Keep the ``s`` largest-magnitude entries of ``x``, zero the rest.

    Ties break toward the lowest index so repeated runs select
    reproducibly. ``s`` >= len(x) returns a copy of ``x``.
    """
    x = as_vector(x)
    s = int(s)
    if s < 0:
        raise ValueError("sparsity level must be non-negative")
    if s >= x.size:
        return x.copy()
    out = np.zeros_like(x)
    if s == 0:
        return out
    # stable sort on -|x|: equal magnitudes keep ascending index order
    order = np.argsort(-np.abs(x), kind="stable")
    keep = order[:s]
    out[keep] = x[keep]
    return out


def sample_rows(scheme, rng, matrix, count, cdf=None):
    """Draw ``count`` i.i.d. row indices of ``matrix`` under ``scheme``.

    Inverse-CDF on one uniform per draw, so splitting a run into two calls
    on the same stream yields the same indices as a single call. A ``cdf``
    kept from ``scheme.cdf`` of the matrix's row norms replaces ``matrix``.
    """
    if cdf is None:
        cdf = scheme.cdf(row_norms_sq(matrix))
    return np.searchsorted(cdf, rng.generator.random(count), side="right")


# ---------------------------------------------------------------------------
# file formats: CSV (one row per line), raw binary DMAT, key=value text
# ---------------------------------------------------------------------------

_DMAT_MAGIC = b"DMAT"


def save_matrix_csv(path, matrix):
    m = as_matrix(matrix)
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_matrix_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return as_matrix(rows, name=str(path))


def save_vector_csv(path, vector):
    v = as_vector(vector)
    with open(path, "w") as fh:
        for value in v:
            fh.write(repr(float(value)) + "\n")


def save_dmat(path, matrix):
    m = as_matrix(matrix)
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _DMAT_MAGIC, rows, cols))
        fh.write(m.astype("<f8", copy=False).tobytes())


def load_dmat(path):
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12:
            raise ValueError(f"{path}: truncated DMAT header")
        magic, rows, cols = struct.unpack("<4sII", header)
        if magic != _DMAT_MAGIC:
            raise ValueError(f"{path}: not a DMAT file")
        body = fh.read()
    expected = rows * cols * 8
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} data bytes, got {len(body)}")
    data = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(rows, cols)
    return as_matrix(data, name=str(path))


def load_matrix(path):
    """A matrix from a ``.dmat`` file, or else from CSV."""
    return load_dmat(path) if str(path).endswith(".dmat") else load_matrix_csv(path)


def load_vector(path):
    """A vector from a one-column ``.dmat`` file, or else from CSV with one
    value per line."""
    m = load_matrix(path)
    if m.shape[1] != 1:
        raise ValueError(f"{path}: expected a single column, got {m.shape[1]}")
    return m[:, 0].copy()


def parse_key_values(text, known, kind="config"):
    """Parse ``key=value`` lines into a dict, rejecting keys not in ``known``.

    Blank lines and ``#`` comments are skipped.
    """
    fields = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad {kind} line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ValueError(f"{kind} key {key!r} is given twice")
        fields[key] = value
    unknown = set(fields) - set(known)
    if unknown:
        raise ValueError(f"unknown {kind} keys: {sorted(unknown)}")
    return fields
