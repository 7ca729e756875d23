"""Dense double-precision kernels everything else builds on.

Vectors and matrices are plain float64 numpy arrays; :func:`as_vector` and
:func:`as_matrix` are the validating constructors that enforce finiteness and
shape. Row sampling, the Kaczmarz projection step, hard thresholding, seeded
random streams and the matrix file formats all live here.
"""

import hashlib
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import AllRowsZero, DimensionMismatch, ZeroRow

__all__ = [
    "as_vector",
    "as_matrix",
    "row_norms_sq",
    "RngStream",
    "derive_seed",
    "seed_sequence_words",
    "SamplingScheme",
    "rk_step",
    "hard_threshold",
    "sample_rows",
    "format_csv",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_vector_csv",
    "save_dmat",
    "load_dmat",
    "load_matrix",
    "load_vector",
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

    A (round, client) pair's seed is the one its remote client seeds its
    local stream with, so clients need no shared RNG state.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=_spawn_key(ids))
    return int(seq.generate_state(1, np.uint64)[0])


# numpy's SeedSequence: O'Neill's seed_seq_fe hash over a four-word pool
_MASK32 = 0xFFFF_FFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715


def _hash_consts(init, mult):
    """The (xor, multiply) constant pairs of successive hash calls."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _u32(value):
    # a uint32 array wraps by itself; an int is masked
    return value & _MASK32 if isinstance(value, int) else value


def _hashmix(value, consts):
    xor, mult = next(consts)
    value = _u32((value ^ xor) * mult)
    return value ^ (value >> 16)


def _mix(x, y):
    value = _u32(_u32(_MIX_L * x) - _u32(_MIX_R * y))
    return value ^ (value >> 16)


def seed_sequence_words(entropy, count):
    """The first ``count`` uint32 words of ``SeedSequence.generate_state``,
    for many sequences at once.

    ``entropy`` lists a sequence's assembled entropy words as numpy builds
    them: the master seed's 32-bit words, padded to four when there is a
    spawn key, then the spawn key's words. Each word is an int, the same for
    every sequence, or a uint32 array with one entry per sequence. Returns
    ``count`` words of that kind, bit-equal to numpy's.
    """
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, consts)
            for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    return [_hashmix(pool[i % _POOL_WORDS], consts) for i in range(count)]


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
    if norm_sq == 0.0:  # a single row is its own block: only exact zero is zero
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


def sample_rows(cdf, rng, count):
    """Draw ``count`` i.i.d. row indices from ``cdf``, an inverse-CDF table
    such as :meth:`SamplingScheme.cdf` gives.

    One uniform per draw, so splitting a run into two calls on the same
    stream yields the same indices as a single call.
    """
    return np.searchsorted(cdf, rng.generator.random(count), side="right")


# ---------------------------------------------------------------------------
# file formats: CSV (one row per line) and raw binary DMAT
# ---------------------------------------------------------------------------

_DMAT_MAGIC = b"DMAT"


def _csv_field(value):
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def format_csv(rows, header=None):
    """CSV text of ``rows`` under an optional ``header`` line: a float field is
    ``repr(float(v))``, None is empty and anything else is ``str(v)``."""
    lines = [] if header is None else [header]
    lines += (",".join(_csv_field(v) for v in row) for row in rows)
    return "".join(line + "\n" for line in lines)


def save_matrix_csv(path, matrix):
    with open(path, "w") as fh:
        fh.write(format_csv(as_matrix(matrix)))


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
    with open(path, "w") as fh:
        fh.write(format_csv(as_vector(vector)[:, None]))


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
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ValueError(f"{path}: a DMAT must be a regular file")
        expected = rows * cols * 8
        # the size check comes first, so a long file is refused unread
        got = info.st_size - len(header)
        if got == expected:
            body = fh.read(expected)
            got = len(body)
    if got != expected:
        raise ValueError(f"{path}: expected {expected} data bytes, got {got}")
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
