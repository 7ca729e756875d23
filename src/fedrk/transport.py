"""Message codec and the two interchangeable transports.

Frame layout (little-endian): magic ``FK``, version byte (``VERSION``, 2),
message-type byte, u32 payload length, payload. Floats are IEEE-754
binary64. A payload is its fixed fields, one struct per message that
encode, decode and the frame bounds share, and then its floats:

- AssignPartition: ``_ASSIGN`` (client id, rows, cols, scheme code), A row by row, b;
- Broadcast: ``_BROADCAST`` (round, n), x, ``_BROADCAST_TAIL`` (local_iters
  u32, the local stream's Philox key as two u64 words);
- Delta: ``_DELTA`` (round, client id, n), the delta;
- Shutdown: empty.

The loopback transport pushes every message through the same encode/decode
path as the TCP transport, so a federated run produces bit-identical traces
in one process or across processes.

Clients introduce themselves after connecting with an empty Delta frame
(zero-length payload array) carrying their client id; the server answers
with that client's AssignPartition, which also names the run's local
sampling scheme. Only participants of a round receive its Broadcast. A key
alone fixes everything Philox draws, so a client re-keys one generator per
Broadcast and never seeds one.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import SamplingScheme
from .errors import (
    BadMagic,
    BadType,
    BadVersion,
    CodecError,
    ConnectionLost,
    FedRKError,
    LengthMismatch,
    RoundError,
    Truncated,
)
from .federation import (
    StreamTable,
    _client_failure,
    _KeyedStream,
    apply_server_round,
    client_blocks,
    client_local_update,
    run_rounds,
    sample_clients,
    trace_writer,
)
from .solver import LinearSystem

__all__ = [
    "MAGIC",
    "VERSION",
    "AssignPartition",
    "Broadcast",
    "Delta",
    "Shutdown",
    "Endpoint",
    "encode",
    "decode",
    "ClientSession",
    "run_server",
    "run_client",
]

MAGIC = b"FK"
VERSION = 2

MSG_ASSIGN = 1
MSG_BROADCAST = 2
MSG_DELTA = 3
MSG_SHUTDOWN = 4

_HEADER = struct.Struct("<2sBBI")
# each payload's fixed fields, as the module docstring lists them
_ASSIGN = struct.Struct("<IIII")
_BROADCAST = struct.Struct("<II")
_BROADCAST_TAIL = struct.Struct("<IQQ")
_DELTA = struct.Struct("<III")
# the local schemes an AssignPartition can carry, by their u32 wire code
_SCHEMES = (SamplingScheme.squared_row_norm(), SamplingScheme.uniform())
# pause between a client's attempts to reach a server that is not listening yet
_CONNECT_RETRY_S = 0.01
# most bytes one recv asks for: a declared length alone allocates no more
_RECV_CHUNK = 1 << 20


class _Message:
    """Field-wise equality that compares array fields by value."""

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class AssignPartition(_Message):
    """Server -> client: the client's rows of the system and the run's
    local sampling scheme (squared-row-norm or uniform)."""

    client_id: int
    A: np.ndarray
    b: np.ndarray
    scheme: SamplingScheme = SamplingScheme.squared_row_norm()


@dataclass(frozen=True, eq=False)
class Broadcast(_Message):
    """Server -> client: the round's global iterate plus the local stream's
    Philox key, two u64 words."""

    round_index: int
    x: np.ndarray
    local_iters: int
    stream_key: tuple


@dataclass(frozen=True, eq=False)
class Delta(_Message):
    """Client -> server: the local model change for one round."""

    round_index: int
    client_id: int
    delta: np.ndarray


@dataclass(frozen=True)
class Shutdown:
    """Server -> client: the run is over."""


def _f64_bytes(array):
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def encode(msg):
    """Serialize a message into one frame.

    A field that is not an integer or does not fit its unsigned wire width
    raises ValueError.
    """
    try:
        msg_type, payload = _payload(msg)
    except struct.error as exc:
        raise ValueError(f"cannot encode {type(msg).__name__}: {exc}") from None
    return _HEADER.pack(MAGIC, VERSION, msg_type, len(payload)) + payload


def _payload(msg):
    if isinstance(msg, AssignPartition):
        A = np.asarray(msg.A, dtype=np.float64)
        b = np.asarray(msg.b, dtype=np.float64)
        rows, cols = A.shape
        if b.shape != (rows,):
            raise ValueError("b must have one entry per row of A")
        head = _ASSIGN.pack(msg.client_id, rows, cols, _SCHEMES.index(msg.scheme))
        return MSG_ASSIGN, head + _f64_bytes(A) + _f64_bytes(b)
    if isinstance(msg, Broadcast):
        x = np.asarray(msg.x, dtype=np.float64)
        return MSG_BROADCAST, (
            _BROADCAST.pack(msg.round_index, x.size)
            + _f64_bytes(x)
            + _BROADCAST_TAIL.pack(msg.local_iters, *msg.stream_key)
        )
    if isinstance(msg, Delta):
        delta = np.asarray(msg.delta, dtype=np.float64)
        head = _DELTA.pack(msg.round_index, msg.client_id, delta.size)
        return MSG_DELTA, head + _f64_bytes(delta)
    if isinstance(msg, Shutdown):
        return MSG_SHUTDOWN, b""
    raise TypeError(f"not a transport message: {type(msg).__name__}")


def _check_size(payload_len, size):
    """A LengthMismatch at the first byte where the payload and its layout differ."""
    if payload_len != size:
        raise LengthMismatch(
            f"payload of {payload_len} bytes where its fields take {size}",
            _HEADER.size + min(payload_len, size),
        )


def _floats(buf, fixed, count, tail=0):
    """The ``count`` float64s after a frame's ``fixed`` fields. The payload
    must be exactly the fields, the floats and ``tail`` bytes after them."""
    _check_size(len(buf) - _HEADER.size, fixed.size + 8 * count + tail)
    values = np.frombuffer(buf, "<f8", count, _HEADER.size + fixed.size)
    # a Delta's floats start at byte 20, and numpy is slower on unaligned arrays
    return values if values.flags.aligned else values.copy()


def _check_header(buf):
    """``(message type, payload length)`` of a frame's header, once its
    magic, version and type are checked."""
    magic, version, msg_type, payload_len = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}", 2)
    if msg_type not in (MSG_ASSIGN, MSG_BROADCAST, MSG_DELTA, MSG_SHUTDOWN):
        raise BadType(f"unknown message type {msg_type}", 3)
    return msg_type, payload_len


def decode(data):
    """Parse one frame; the exact inverse of :func:`encode`.

    Raises a typed CodecError naming the offending byte offset; never reads
    past the declared frame.
    """
    buf = bytes(data)
    if len(buf) < _HEADER.size:
        raise Truncated("incomplete frame header", len(buf))
    msg_type, payload_len = _check_header(buf)
    if len(buf) < _HEADER.size + payload_len:
        raise Truncated("payload shorter than declared", len(buf))
    if len(buf) > _HEADER.size + payload_len:
        raise LengthMismatch("bytes beyond declared frame", _HEADER.size + payload_len)

    if msg_type == MSG_SHUTDOWN:
        _check_size(payload_len, 0)
        return Shutdown()
    fixed = {MSG_ASSIGN: _ASSIGN, MSG_BROADCAST: _BROADCAST, MSG_DELTA: _DELTA}[msg_type]
    if payload_len < fixed.size:
        _check_size(payload_len, fixed.size)
    head = fixed.unpack_from(buf, _HEADER.size)
    if msg_type == MSG_DELTA:
        round_index, client_id, n = head
        return Delta(round_index, client_id, _floats(buf, _DELTA, n))
    if msg_type == MSG_BROADCAST:
        round_index, n = head
        x = _floats(buf, _BROADCAST, n, _BROADCAST_TAIL.size)
        iters, *key = _BROADCAST_TAIL.unpack_from(buf, len(buf) - _BROADCAST_TAIL.size)
        return Broadcast(round_index, x, iters, tuple(key))
    client_id, rows, cols, code = head
    if code >= len(_SCHEMES):  # the code is _ASSIGN's last u32
        raise CodecError(f"unknown local scheme code {code}", _HEADER.size + _ASSIGN.size - 4)
    values = _floats(buf, _ASSIGN, rows * (cols + 1))  # Python ints: no u32 product wraps
    A = values[:rows * cols].reshape(rows, cols)
    return AssignPartition(client_id, A, values[rows * cols:], _SCHEMES[code])


@dataclass(frozen=True)
class Endpoint:
    """Where a run lives: a TCP address, or in process when ``host`` is None."""

    host: Optional[str] = "127.0.0.1"
    port: int = 0

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in 0..65535, got {self.port}")

    @classmethod
    def loopback(cls):
        return cls(host=None)

    @classmethod
    def server(cls, host="127.0.0.1", port=0):
        return cls(host=host, port=port)

    client = server


class ClientSession:
    """Client-side protocol state machine, transport independent.

    The local sampling scheme comes from the server's AssignPartition; a
    ``scheme`` given here must match it.
    """

    def __init__(self, client_id, scheme=None):
        self.client_id = int(client_id)
        self.scheme = scheme
        self.block = None
        self.done = False
        self._stream = _KeyedStream()  # re-keyed by each Broadcast

    def handle(self, msg):
        """Process one server message, returning reply messages. A message
        that fails validation (NaN or no rows, a NaN iterate) is a RoundError
        naming this client, and a Broadcast's round; a failed local run names
        this client and its round, as in fed_round."""
        try:
            return self._handle(msg)
        except ValueError as exc:
            raise RoundError(
                f"client {self.client_id} got an invalid {type(msg).__name__}: {exc}",
                client_id=self.client_id,
                round_index=msg.round_index + 1 if isinstance(msg, Broadcast) else None,
            ) from exc

    def _handle(self, msg):
        if isinstance(msg, AssignPartition):
            if msg.client_id != self.client_id:
                raise RoundError(
                    f"partition for client {msg.client_id} delivered to {self.client_id}",
                    client_id=self.client_id,
                )
            if self.scheme is not None and self.scheme != msg.scheme:
                raise RoundError(
                    f"client {self.client_id} was started with scheme {self.scheme.kind} "
                    f"but the run uses {msg.scheme.kind}",
                    client_id=self.client_id,
                )
            self.scheme = msg.scheme
            self.block = LinearSystem(msg.A, msg.b)
            return []
        if isinstance(msg, Broadcast):
            if self.block is None:
                raise RoundError(
                    f"client {self.client_id} has no partition", client_id=self.client_id
                )
            rng = self._stream.rekey(msg.stream_key)
            try:
                with np.errstate(over="ignore"):  # overflow shows only as NumericalError
                    delta = client_local_update(
                        self.block, msg.x, msg.local_iters, self.scheme, rng
                    )
            except ValueError:
                raise  # an invalid Broadcast, which handle() names
            except FedRKError as exc:
                raise _client_failure(self.client_id, exc, msg.round_index + 1) from exc
            return [Delta(msg.round_index, self.client_id, delta)]
        if isinstance(msg, Shutdown):
            self.done = True
            return []
        raise RoundError(
            f"client {self.client_id} received unexpected {type(msg).__name__}",
            client_id=self.client_id,
        )


class _LoopbackConnection:
    """In-process client that still round-trips every message through bytes.
    Only a Broadcast gets a reply, and run_server reads it before the next
    Broadcast, so one reply at most is pending."""

    def __init__(self, client_id):
        self.client_id = client_id
        self._session = ClientSession(client_id)
        self._reply = None

    def send(self, msg):
        for reply in self._session.handle(decode(encode(msg))):
            self._reply = decode(encode(reply))

    def recv(self):
        reply, self._reply = self._reply, None
        return reply

    def close(self):
        pass


def _recv_exact(sock, nbytes):
    buf = bytearray()
    while len(buf) < nbytes:
        chunk = sock.recv(min(nbytes - len(buf), _RECV_CHUNK))
        if not chunk:
            if buf:
                raise Truncated("connection closed mid-frame", len(buf))
            return None
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock, max_payload=None):
    """Read one frame from a socket; None on clean end-of-stream.

    A header that is not fedrk's, or that declares more than
    ``max_payload`` payload bytes, raises a CodecError before any of the
    payload is read.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    _, payload_len = _check_header(header)
    if max_payload is not None and payload_len > max_payload:
        raise LengthMismatch(
            f"frame declares {payload_len} payload bytes, at most {max_payload} expected", 4
        )
    payload = _recv_exact(sock, payload_len)
    if payload is None:
        raise Truncated("connection closed before payload", _HEADER.size)
    return decode(header + payload)


def write_frame(sock, msg):
    sock.sendall(encode(msg))


class _SocketConnection:
    def __init__(self, sock, client_id, max_payload):
        self.client_id = client_id
        self._sock = sock
        self._max_payload = max_payload

    def send(self, msg):
        try:
            write_frame(self._sock, msg)
        except OSError as exc:
            raise ConnectionLost(
                f"client {self.client_id} connection lost: {exc}",
                client_id=self.client_id,
            ) from exc

    def recv(self):
        try:
            msg = read_frame(self._sock, self._max_payload)
        except socket.timeout as exc:
            raise RoundError(
                f"client {self.client_id} timed out", client_id=self.client_id
            ) from exc
        except (OSError, Truncated) as exc:
            raise ConnectionLost(
                f"client {self.client_id} connection lost: {exc}",
                client_id=self.client_id,
            ) from exc
        except CodecError as exc:
            raise RoundError(
                f"client {self.client_id} sent a malformed frame: {exc}",
                client_id=self.client_id,
            ) from exc
        if msg is None:
            raise ConnectionLost(
                f"client {self.client_id} closed its connection",
                client_id=self.client_id,
            )
        return msg

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def _accept_clients(endpoint, clients, cols, timeout):
    listener = socket.create_server((endpoint.host, endpoint.port), reuse_port=False)
    listener.settimeout(timeout)
    conns = {}
    try:
        while len(conns) < clients:
            try:
                sock, addr = listener.accept()
            except socket.timeout:
                raise RoundError(
                    f"timed out waiting for clients ({len(conns)}/{clients} joined)"
                )
            sock.settimeout(timeout)
            try:
                hello = read_frame(sock, _DELTA.size)  # an empty Delta
            except (OSError, CodecError) as exc:
                sock.close()
                raise RoundError(f"bad client hello from {addr[0]}:{addr[1]}: {exc}") from exc
            if not isinstance(hello, Delta) or hello.delta.size != 0:
                sock.close()
                raise RoundError("malformed client hello")
            cid = hello.client_id
            if cid >= clients or cid in conns:
                sock.close()
                raise RoundError(f"bad or duplicate client id {cid}", client_id=cid)
            conns[cid] = _SocketConnection(sock, cid, _DELTA.size + 8 * cols)
    except BaseException:
        for conn in conns.values():
            conn.close()
        raise
    finally:
        listener.close()
    return conns


def _recv_delta(conn, round_index, cols):
    cid = conn.client_id
    msg = conn.recv()
    if not isinstance(msg, Delta):
        raise RoundError(f"client {cid} replied with {type(msg).__name__}", client_id=cid)
    if msg.round_index != round_index:
        raise RoundError(
            f"client {cid} sent a stale round {msg.round_index} delta", client_id=cid
        )
    if msg.client_id != cid:
        raise RoundError(
            f"delta labelled {msg.client_id} arrived on connection {cid}", client_id=cid
        )
    if msg.delta.size != cols:
        raise RoundError(
            f"client {cid} sent {msg.delta.size} delta entries for {cols} columns",
            client_id=cid,
        )
    return msg.delta


def run_server(endpoint, system, config, x0=None, x_ref=None, timeout=30.0):
    """Drive a full federated run, in process over the loopback codec when
    ``endpoint.host`` is None, else over TCP at the endpoint's address.

    Returns ``(x_final, FedTrace)``. Only the round step is the transport's
    own (broadcast, collect deltas); the loop, server half and trace are
    :func:`fed_run`'s, so for equal master seeds the trace is bit-identical
    across loopback, sockets and :func:`fed_run`.
    """
    _check_timeout(timeout)
    blocks = client_blocks(system, config.clients)
    x0 = np.zeros(system.cols) if x0 is None else x0
    trace, on_round = trace_writer(system, config, x_ref)

    if endpoint.host is None:
        conns = {cid: _LoopbackConnection(cid) for cid in range(config.clients)}
    else:
        conns = _accept_clients(endpoint, config.clients, system.cols, timeout)

    table = StreamTable(config)

    def step(t, x):
        streams = table.round(t)
        participants = sample_clients(config.clients, config.participants, streams.select)
        keys = table.stream_keys(t)
        for cid in participants:
            conns[cid].send(Broadcast(t, x, config.local_iters, keys[cid]))
        deltas = [(cid, _recv_delta(conns[cid], t, x.size)) for cid in participants]
        x_next, kept = apply_server_round(deltas, x, config, streams.server)
        return x_next, participants, len(deltas) - len(kept)

    try:
        for cid, block in enumerate(blocks):
            conns[cid].send(AssignPartition(cid, block.A, block.b, config.local_scheme))
        x = run_rounds(system, config, x0, on_round, step)
    finally:
        for conn in conns.values():
            try:
                conn.send(Shutdown())
            except RoundError:
                pass
            conn.close()
    return x, trace


def _check_timeout(timeout):
    # a zero timeout would make the socket non-blocking
    if not timeout > 0:
        raise ValueError(f"timeout must be positive, got {timeout}")


def _connect(endpoint, timeout):
    """A connection to the server, retrying a refused one until ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            # closes its socket when the attempt fails
            return socket.create_connection((endpoint.host, endpoint.port), timeout=timeout)
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(_CONNECT_RETRY_S)


def run_client(endpoint, client_id, scheme=None, timeout=30.0):
    """Join a socket-transport run as one client and serve until Shutdown.

    A client may start before the server listens: it retries a refused
    connection until ``timeout``. The local scheme is the server's; a
    ``scheme`` given here must match it. Once its rows have arrived, a frame
    longer than a Broadcast of their width raises LengthMismatch unread. A
    ``timeout`` that is not positive, or a ``client_id`` that is not a u32,
    is a ValueError before any socket opens.
    """
    if endpoint.host is None:
        raise ValueError("run_client only applies to the socket transport")
    _check_timeout(timeout)
    if not 0 <= client_id < 2**32:
        raise ValueError(f"client id must be in 0..{2**32 - 1}, got {client_id}")
    session = ClientSession(client_id, scheme)
    sock = _connect(endpoint, timeout)
    sock.settimeout(timeout)
    try:
        # hello: an empty delta carrying our id
        write_frame(sock, Delta(0, session.client_id, np.zeros(0)))
        while not session.done:
            block = session.block
            bound = None if block is None else (
                _BROADCAST.size + 8 * block.cols + _BROADCAST_TAIL.size
            )
            msg = read_frame(sock, bound)
            if msg is None:
                raise ConnectionLost(
                    f"server closed connection to client {session.client_id}",
                    client_id=session.client_id,
                )
            for reply in session.handle(msg):
                write_frame(sock, reply)
    finally:
        sock.close()
