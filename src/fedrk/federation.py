"""Federated Kaczmarz round orchestration.

One round: sample participants, broadcast the global iterate, let each
participant run local RK on its own rows, reinterpret each returned model
change as a hyperplane normal, then run RK at the server on the derived
system ``delta x = d`` (optionally hard-thresholding afterwards). The whole
run is a pure function of the master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    RngStream,
    SamplingScheme,
    derive_seed,
    format_csv,
    hard_threshold,
    row_norms_sq,
    seed_sequence_words,
)
from .errors import (
    AllRowsZero,
    DimensionMismatch,
    FedRKError,
    NumericalError,
    RoundError,
    TooManyClients,
)
from .solver import LinearSystem, _as_point, gram_matrix, rk_iterate

__all__ = [
    "TAG_SELECT",
    "TAG_SERVER",
    "CHUNK_ROUNDS",
    "RunConfig",
    "ServerRoundSystem",
    "FedTrace",
    "RoundStreams",
    "StreamTable",
    "client_blocks",
    "sample_clients",
    "round_tol",
    "client_local_update",
    "build_server_system",
    "apply_server_round",
    "fed_round",
    "trace_writer",
    "run_rounds",
    "fed_run",
]

# reserved stream-id tags; client ids must stay below these
TAG_SELECT = 0xFFFF_FFFF
TAG_SERVER = 0xFFFF_FFFE

# the server always samples its derived system uniformly
_UNIFORM = SamplingScheme.uniform()


def client_blocks(system, clients):
    """Split a system's rows into contiguous near-even blocks, one
    ``LinearSystem`` per client in id order.

    Earlier clients receive the larger blocks when the row count does not
    divide evenly.
    """
    clients = int(clients)
    rows = system.rows
    if clients < 1:
        raise ValueError("need at least one client")
    if clients > rows:
        raise TooManyClients(f"{clients} clients for {rows} rows")
    base, extra = divmod(rows, clients)
    blocks, start = [], 0
    for cid in range(clients):
        stop = start + base + (1 if cid < extra else 0)
        try:
            blocks.append(LinearSystem(system.A[start:stop], system.b[start:stop]))
        except AllRowsZero:
            raise AllRowsZero(
                f"client {cid}'s rows {start} to {stop - 1} are all zero"
            ) from None
        start = stop
    return blocks


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a federated run besides the data."""

    clients: int
    participants: int
    local_iters: int
    global_iters: int
    rounds: int
    sparsity: Optional[int] = None
    local_scheme: SamplingScheme = SamplingScheme.squared_row_norm()
    master_seed: int = 0
    residual_tol: Optional[float] = None

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.clients > TAG_SERVER:
            raise ValueError(f"clients must be <= {TAG_SERVER} (ids stay below the stream tags)")
        if not 1 <= self.participants <= self.clients:
            raise ValueError("participants must satisfy 1 <= N <= clients")
        if self.local_iters < 1 or self.global_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if not 0 <= self.rounds <= 2**32:
            raise ValueError("rounds must satisfy 0 <= rounds <= 2**32 (u32 round indices)")
        if self.sparsity is not None and self.sparsity < 0:
            raise ValueError("sparsity must be >= 0 when present")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.residual_tol is not None and not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive when present")


class ServerRoundSystem(NamedTuple):
    """The round's derived system: kept model changes by client id, their d and squared norms."""

    delta_rows: list
    d: list
    row_sq: list
    kept_client_ids: tuple

    @property
    def is_empty(self):
        return not self.delta_rows

    def kaczmarz_setup(self, scheme):
        """The set-up :func:`rk_iterate` reads; the build computed all but the
        CDF. It marks no row as zero: every row is a change the build kept."""
        return self.delta_rows, self.d, self.row_sq, scheme.cdf(np.array(self.row_sq)), None

    def dual_setup(self):
        """``(rows, d, Gram matrix)`` for the dual kernel of :func:`rk_iterate`."""
        rows = np.array(self.delta_rows)
        return rows, np.array(self.d), gram_matrix(rows, self.row_sq)


@dataclass
class FedTrace:
    """Per-round records of a federated run."""

    rounds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    participants: list = field(default_factory=list)
    dropped: list = field(default_factory=list)
    stopped_early: bool = False

    def append(self, round_index, error, residual, participant_ids, dropped_rows):
        self.rounds.append(int(round_index))
        self.errors.append(None if error is None else float(error))
        self.residuals.append(float(residual))
        self.participants.append(tuple(int(i) for i in participant_ids))
        self.dropped.append(int(dropped_rows))

    def csv_text(self):
        parts = (";".join(str(i) for i in p) for p in self.participants)
        rows = zip(self.rounds, self.errors, self.residuals, parts, self.dropped)
        return format_csv(rows, "round,error,residual,participants,dropped_rows")

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())


@dataclass
class RoundStreams:
    """The three independent randomness sources one round consumes."""

    select: RngStream
    server: RngStream
    local_stream: Callable[[int], RngStream]

    @classmethod
    def derive(cls, master_seed, round_index):
        """Canonical per-round derivation, shared by every round step."""
        return cls(
            select=RngStream(master_seed, (round_index, TAG_SELECT)),
            server=RngStream(master_seed, (round_index, TAG_SERVER)),
            local_stream=lambda cid: RngStream(derive_seed(master_seed, round_index, cid)),
        )


# rounds whose streams one fill of a StreamTable derives together
CHUNK_ROUNDS = 64


class _KeyedStream:
    """A pooled Philox generator, re-keyed in place. A key alone fixes
    everything Philox draws, so once keyed it draws what a fresh RngStream
    with that key draws."""

    def __init__(self):
        self.generator = np.random.Generator(np.random.Philox(0))
        self._state = self.generator.bit_generator.state  # counter 0, empty buffer

    def rekey(self, key):
        self._state["state"]["key"] = key
        self.generator.bit_generator.state = self._state
        return self


def _philox_keys(words):
    """Philox keys, rows of two uint64, from four uint32 word arrays as
    Philox reads ``generate_state(2, np.uint64)``."""
    w = [word.astype(np.uint64) for word in words]
    return np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=-1)


class StreamTable:
    """Every round's :class:`RoundStreams` for one run, derived
    ``CHUNK_ROUNDS`` rounds at a time.

    Round ``t`` draws exactly what ``RoundStreams.derive(master_seed, t)``
    draws. A fill computes its rounds' select and server keys in one
    vectorised pass, draws each round's participants (selection does not
    depend on the iterate), then derives local keys for the selected
    (round, client) pairs only. Streams come from pooled generators: one for
    select, one for server and one per participant slot, re-keyed for each
    round, so a round's streams are valid until the next call of
    :meth:`round`.
    """

    def __init__(self, config):
        self._config = config
        seed = config.master_seed
        # the master seed's words, padded to four as numpy pads them before a spawn key
        self._seed_words = [seed & 0xFFFF_FFFF, seed >> 32, 0, 0]
        self._select, self._server = _KeyedStream(), _KeyedStream()
        self._slots = [_KeyedStream() for _ in range(config.participants)]
        self._start = self._stop = 0

    def _fill(self, start):
        cfg = self._config
        stop = min(start + CHUNK_ROUNDS, cfg.rounds)
        count = stop - start
        rounds = np.arange(start, stop, dtype=np.uint32)
        tags = np.repeat(np.array([TAG_SELECT, TAG_SERVER], dtype=np.uint32), count)
        keys = _philox_keys(seed_sequence_words(self._seed_words + [np.tile(rounds, 2), tags], 4))
        self._select_keys, self._server_keys = keys[:count], keys[count:]
        self._ids = [
            sample_clients(cfg.clients, cfg.participants, self._select.rekey(key))
            for key in self._select_keys
        ]
        pair_rounds = np.repeat(rounds, cfg.participants)
        pair_ids = np.array(self._ids, dtype=np.uint32).ravel()
        lo, hi = seed_sequence_words(self._seed_words + [pair_rounds, pair_ids], 2)
        # RngStream(seed) hashes the seed's words alone; [lo] and [lo, 0] give one pool
        self._local_keys = _philox_keys(seed_sequence_words([lo, hi], 4)).reshape(
            count, cfg.participants, 2
        )
        self._start, self._stop = start, stop

    def _row(self, t):
        if not self._start <= t < self._stop:
            self._fill(t)
        return t - self._start

    def round(self, t):
        """Round ``t``'s streams, re-keying the pooled generators."""
        i = self._row(t)
        slots = dict(zip(self._ids[i], zip(self._slots, self._local_keys[i])))

        def local_stream(cid):
            slot, key = slots[cid]
            return slot.rekey(key)

        return RoundStreams(
            select=self._select.rekey(self._select_keys[i]),
            server=self._server.rekey(self._server_keys[i]),
            local_stream=local_stream,
        )

    def stream_keys(self, t):
        """``{cid: (k0, k1)}``: the Philox key of each of round ``t``'s
        participants' local streams, the key :meth:`round` gives it."""
        i = self._row(t)
        return dict(zip(self._ids[i], map(tuple, self._local_keys[i].tolist())))


def sample_clients(clients, participants, rng):
    """Uniform random subset of ``participants`` client ids, sorted ascending."""
    if not 1 <= participants <= clients:
        raise ValueError("participants must satisfy 1 <= N <= clients")
    picked = rng.generator.choice(clients, size=participants, replace=False).tolist()
    picked.sort()
    return picked


def round_tol(x_global):
    """Norm at or below which a model change counts as zero in a round: a
    change is measured against the iterate it was made from."""
    tol = 1e-12 * math.sqrt(float(np.dot(x_global, x_global)))
    if not math.isfinite(tol):
        raise NumericalError("the iterate's squared norm overflows")
    return tol


def _local_delta(block, x_global, local_iters, scheme, rng):
    x_local = rk_iterate(block, x_global.copy(), iters=local_iters, scheme=scheme, rng=rng)
    x_local -= x_global
    return x_local


def client_local_update(block, x_global, local_iters, scheme, rng):
    """One client's model change: final local RK iterate minus the broadcast."""
    x_global = _as_point(block, x_global, "x_global")
    if local_iters < 1:
        raise ValueError("local_iters must be >= 1")
    return _local_delta(block, x_global, local_iters, scheme, rng)


def _client_failure(cid, exc, round_index=None):
    """The error naming client ``cid`` for ``exc`` from its local run: a
    NumericalError stays one, any other error becomes a RoundError."""
    kind = NumericalError if isinstance(exc, NumericalError) else RoundError
    return kind(f"client {cid} failed: {exc}", client_id=cid, round_index=round_index)


def build_server_system(deltas, x_global, tol):
    """Stack nonzero model changes into the derived system ``delta x = d``.

    Changes with norm <= ``tol`` are dropped; each kept row gets
    d_i = <delta_i, delta_i + x_global>, which puts the row's hyperplane
    through the client's final local iterate. Rows are stacked in ascending
    client-id order so aggregation is independent of arrival order. A
    change of the wrong shape raises DimensionMismatch; a non-finite change
    or d_i raises NumericalError naming its client.
    """
    rows, d, row_sq, kept_ids = [], [], [], []
    for cid, delta in sorted(deltas, key=lambda item: item[0]):
        if delta.shape != x_global.shape:
            raise DimensionMismatch(f"client {cid} delta has shape {delta.shape}")
        sq = float(row_norms_sq(delta))
        if not math.isfinite(sq):
            raise NumericalError(f"client {cid} sent a non-finite delta", client_id=cid)
        if math.sqrt(sq) <= tol:
            continue
        d_i = float(np.dot(delta, delta + x_global))
        if not math.isfinite(d_i):
            raise NumericalError(f"client {cid}'s derived d is not finite", client_id=cid)
        rows.append(delta)
        d.append(d_i)
        row_sq.append(sq)
        kept_ids.append(int(cid))
    return ServerRoundSystem(rows, d, row_sq, tuple(kept_ids))


def _server_rk(srs, x_global, global_iters, rng):
    if srs.is_empty:
        return x_global.copy()
    return rk_iterate(srs, x_global.copy(), iters=global_iters, scheme=_UNIFORM, rng=rng)


def apply_server_round(deltas, x_global, config, server_rng):
    """Server half of a round: build the derived system, solve, threshold.

    The build drops changes at or below :func:`round_tol` of ``x_global``.
    Returns the next global iterate (NumericalError if it is not finite)
    and the kept client ids.
    """
    srs = build_server_system(deltas, x_global, round_tol(x_global))
    x_next = _server_rk(srs, x_global, config.global_iters, server_rng)
    if not np.isfinite(x_next).all():
        raise NumericalError("the server iterate is not finite")
    if config.sparsity is not None:
        x_next = hard_threshold(x_next, config.sparsity)
    return x_next, srs.kept_client_ids


def fed_round(blocks, x_global, config, streams):
    """Execute one full round in-process.

    Returns ``(x_next, participant_ids, dropped_row_count)``. Client
    failures surface as RoundError naming the client. Inputs are trusted
    (run_rounds validates once up front); use the module-level operations
    for piecemeal validated calls.
    """
    participants = sample_clients(config.clients, config.participants, streams.select)
    deltas = []
    for cid in participants:
        try:
            delta = _local_delta(
                blocks[cid], x_global, config.local_iters,
                config.local_scheme, streams.local_stream(cid),
            )
        except FedRKError as exc:
            raise _client_failure(cid, exc) from exc
        deltas.append((cid, delta))
    x_next, kept = apply_server_round(deltas, x_global, config, streams.server)
    return x_next, participants, len(deltas) - len(kept)


def trace_writer(system, config, x_ref=None):
    """``(trace, on_round)``: the callback records each round's residual (and
    distance to ``x_ref``) and returns True to stop at ``residual_tol``."""
    if x_ref is not None:
        x_ref = _as_point(system, x_ref, "x_ref")
    trace = FedTrace()
    tol = config.residual_tol

    def on_round(round_index, x, participants, dropped):
        error = None if x_ref is None else float(np.linalg.norm(x - x_ref))
        if error is not None and not math.isfinite(error):
            raise NumericalError("the distance to x_ref is not finite")
        residual = system.residual_norm(x)
        if not math.isfinite(residual):
            raise NumericalError("the residual is not finite")
        trace.append(round_index, error, residual, participants, dropped)
        trace.stopped_early = (
            round_index > 0 and tol is not None and trace.residuals[-1] <= tol
        )
        return trace.stopped_early

    return trace, on_round


def run_rounds(system, config, x0, on_round, step=None):
    """The round loop of every run; returns the final iterate.

    ``on_round(t, x, participants, dropped)`` sees the validated ``x0`` as
    round 0, then the result of each ``step(t, x) -> (x_next, participants,
    dropped)``; returning True after a round stops the run. The default
    step is :func:`fed_round` on the system's blocks. A RoundError from a
    step or from ``on_round`` is given the round it happened in (0 for the
    call on ``x0``). numpy's overflow warnings are off for the whole loop,
    so an overflow shows only as a typed NumericalError.
    """
    x = _as_point(system, x0, "x0").copy()
    if step is None:
        blocks = client_blocks(system, config.clients)
        table = StreamTable(config)

        def step(t, x):
            return fed_round(blocks, x, config, table.round(t))

    t = 0  # the round being run, numbered as its trace row
    with np.errstate(over="ignore"):
        try:
            on_round(0, x, (), 0)
            for t in range(1, config.rounds + 1):
                x, participants, dropped = step(t - 1, x)
                if on_round(t, x, participants, dropped):
                    break
        except RoundError as exc:
            exc.round_index = t
            raise
    return x


def fed_run(system, config, x0, x_ref=None):
    """Run ``config.rounds`` federated rounds on ``system`` from ``x0``.

    The trace records round 0 (the initial state) through the last executed
    round; ``x_ref``, when given, adds per-round distances to it. Fully
    determined by ``config.master_seed``.
    """
    trace, on_round = trace_writer(system, config, x_ref)
    return run_rounds(system, config, x0, on_round), trace
