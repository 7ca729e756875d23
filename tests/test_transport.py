"""Tests for the wire codec and both transports."""

import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

import fedrk.core
from fedrk.core import RngStream, SamplingScheme
from fedrk.errors import (
    BadMagic,
    BadType,
    BadVersion,
    CodecError,
    ConnectionLost,
    LengthMismatch,
    RoundError,
    Truncated,
)
from fedrk.federation import (
    CHUNK_ROUNDS,
    RoundStreams,
    RunConfig,
    StreamTable,
    client_blocks,
    client_local_update,
    fed_run,
)
from fedrk.transport import (
    VERSION,
    AssignPartition,
    Broadcast,
    ClientSession,
    Delta,
    Endpoint,
    Shutdown,
    decode,
    encode,
    read_frame,
    run_client,
    run_server,
    write_frame,
)
from harness import (
    connect,
    free_port,
    gaussian_consistent,
    join_first_broadcast,
    oversized_broadcast_frames,
    run_socket,
    serve_in_thread,
    serve_raw_frames,
)


def random_message(g):
    kind = g.integers(0, 4)
    if kind == 0:
        rows, cols = int(g.integers(1, 6)), int(g.integers(1, 6))
        return AssignPartition(
            int(g.integers(0, 2**32)),
            g.standard_normal((rows, cols)),
            g.standard_normal(rows),
        )
    if kind == 1:
        n = int(g.integers(0, 9))
        return Broadcast(
            int(g.integers(0, 2**32)),
            g.standard_normal(n),
            int(g.integers(0, 2**32)),
            tuple(g.integers(0, 2**64, size=2, dtype=np.uint64).tolist()),
        )
    if kind == 2:
        n = int(g.integers(0, 9))
        return Delta(int(g.integers(0, 2**32)), int(g.integers(0, 2**32)), g.standard_normal(n))
    return Shutdown()


def stream_key(seed):
    """The Philox key of ``RngStream(seed)``, as a Broadcast carries it."""
    return tuple(RngStream(seed).generator.bit_generator.state["state"]["key"].tolist())


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def test_shutdown_frame_bytes():
    assert encode(Shutdown()) == bytes([0x46, 0x4B, 0x02, 0x04, 0x00, 0x00, 0x00, 0x00])


def test_broadcast_payload_length():
    frame = encode(Broadcast(0, np.array([1.0]), 1, (0, 0)))
    assert len(frame) - 8 == 36  # 4 + 4 + 8 + 4 + 8 + 8


def test_round_trip_examples():
    msgs = [
        AssignPartition(3, np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0])),
        AssignPartition(0, np.ones((1, 3)), np.zeros(1), SamplingScheme.uniform()),
        Broadcast(7, np.array([-1.5, 2.5]), 20, (2**63 + 11, 2**64 - 1)),
        Delta(9, 4, np.array([0.0, -0.0, 3.25])),
        Delta(0, 1, np.zeros(0)),  # the hello frame
        Shutdown(),
    ]
    for msg in msgs:
        assert decode(encode(msg)) == msg


def test_round_trip_random_messages():
    g = np.random.default_rng(404)
    for _ in range(2000):
        msg = random_message(g)
        assert decode(encode(msg)) == msg


def test_decode_bad_magic():
    frame = bytearray(encode(Shutdown()))
    frame[0] = 0x58
    with pytest.raises(BadMagic) as err:
        decode(bytes(frame))
    assert err.value.offset == 0


def test_decode_bad_version():
    frame = bytearray(encode(Shutdown()))
    frame[2] = 9
    with pytest.raises(BadVersion) as err:
        decode(bytes(frame))
    assert err.value.offset == 2


def test_decode_bad_type():
    frame = bytearray(encode(Shutdown()))
    frame[3] = 77
    with pytest.raises(BadType) as err:
        decode(bytes(frame))
    assert err.value.offset == 3


def test_decode_truncated():
    frame = encode(Delta(1, 2, np.array([1.0, 2.0])))
    with pytest.raises(Truncated):
        decode(frame[:5])
    with pytest.raises(Truncated):
        decode(frame[:-4])


def test_decode_trailing_bytes():
    frame = encode(Shutdown()) + b"xx"
    with pytest.raises(LengthMismatch) as err:
        decode(frame)
    assert err.value.offset == 8


def with_u32(frame, offset, value):
    """``frame`` with the u32 field at byte ``offset`` set to ``value``."""
    out = bytearray(frame)
    struct.pack_into("<I", out, offset, value)
    return bytes(out)


def zero_payload_frame(msg_type, payload_len):
    return b"FK" + bytes([VERSION, msg_type]) + struct.pack("<I", payload_len) + bytes(payload_len)


DELTA_FRAME = encode(Delta(1, 2, np.array([1.0, 2.0])))  # 36 bytes; n at 16
BROADCAST_FRAME = encode(Broadcast(0, np.array([1.0, 2.0]), 1, (0, 0)))  # 52 bytes; n at 12
ASSIGN_FRAME = encode(AssignPartition(1, np.ones((2, 3)), np.ones(2)))  # 88 bytes; rows at 12


@pytest.mark.parametrize("frame, offset", [
    (with_u32(DELTA_FRAME, 16, 3), 36),  # the payload ends where a third float would start
    (with_u32(BROADCAST_FRAME, 12, 1), 44),  # the payload runs 8 bytes past its layout
    (with_u32(ASSIGN_FRAME, 12, 3), 88),
    (with_u32(ASSIGN_FRAME, 16, 2), 72),
    # rows * (cols + 1) is about 2**64: no u32 product wraps to a size that fits
    (with_u32(with_u32(ASSIGN_FRAME, 12, 2**32 - 1), 16, 2**32 - 1), 88),
    (zero_payload_frame(4, 2), 8),  # a Shutdown carries no payload
    # payloads shorter than their fixed fields
    (zero_payload_frame(3, 11), 19),
    (zero_payload_frame(2, 7), 15),
    (zero_payload_frame(1, 15), 23),
], ids=[
    "delta_n", "broadcast_n", "assign_rows", "assign_cols", "assign_huge_counts",
    "shutdown_payload", "short_delta", "short_broadcast", "short_assign",
])
def test_decode_internal_count_mismatch(frame, offset):
    with pytest.raises(LengthMismatch) as err:
        decode(frame)
    assert err.value.offset == offset


def test_decode_fuzz_total():
    g = np.random.default_rng(77)
    for _ in range(3000):
        length = int(g.integers(0, 120))
        blob = g.integers(0, 256, size=length).astype(np.uint8).tobytes()
        try:
            decode(blob)
        except CodecError:
            pass


def test_decode_fuzz_mutated_frames():
    g = np.random.default_rng(78)
    for _ in range(2000):
        frame = bytearray(encode(random_message(g)))
        flips = int(g.integers(1, 4))
        for _ in range(flips):
            frame[int(g.integers(0, len(frame)))] = int(g.integers(0, 256))
        try:
            decode(bytes(frame))
        except CodecError:
            pass


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        encode(Delta(-1, 0, np.zeros(1)))
    with pytest.raises(ValueError):
        encode(Broadcast(0, np.zeros(1), 2**32, (0, 0)))
    with pytest.raises(ValueError):
        encode(Broadcast(0, np.zeros(1), 0, (0, 2**64)))
    with pytest.raises(ValueError):
        encode(Broadcast(0, np.zeros(1), 2.5, (0, 0)))  # not truncated to 2
    with pytest.raises(TypeError):
        encode("not a message")


def test_decode_unknown_scheme_code():
    frame = bytearray(encode(AssignPartition(1, np.ones((1, 2)), np.ones(1))))
    frame[8 + 12] = 2  # the scheme code after client id, rows and cols
    with pytest.raises(CodecError) as err:
        decode(bytes(frame))
    assert err.value.offset == 20


# ---------------------------------------------------------------------------
# client session protocol
# ---------------------------------------------------------------------------

def test_client_session_round():
    block, _ = gaussian_consistent(4, 3, 1)
    session = ClientSession(2)
    assert session.handle(AssignPartition(2, block.A, block.b)) == []
    x = np.zeros(3)
    replies = session.handle(Broadcast(0, x, 5, stream_key(12345)))
    assert len(replies) == 1
    delta = replies[0]
    assert isinstance(delta, Delta)
    assert delta.round_index == 0 and delta.client_id == 2
    # the delta reproduces client_local_update on the stream with that key
    expected = client_local_update(
        block, x, 5, SamplingScheme.squared_row_norm(), RngStream(12345)
    )
    assert np.array_equal(delta.delta, expected)
    assert session.handle(Shutdown()) == []
    assert session.done


def test_client_session_with_table_keys_matches_derived_local_stream():
    # the key the server sends draws what fed_run's derived local stream draws
    system, _ = gaussian_consistent(16, 5, 17)
    cfg = RunConfig(
        clients=4, participants=2, local_iters=7, global_iters=1,
        rounds=CHUNK_ROUNDS + 2, master_seed=2**64 - 5,
    )
    table = StreamTable(cfg)
    blocks = client_blocks(system, cfg.clients)
    sessions = {cid: ClientSession(cid) for cid in range(cfg.clients)}
    for cid, session in sessions.items():
        session.handle(AssignPartition(cid, blocks[cid].A, blocks[cid].b))
    x = np.arange(5.0)
    for t in (0, 1, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1):
        derived = RoundStreams.derive(cfg.master_seed, t)
        for cid, key in table.stream_keys(t).items():
            (reply,) = sessions[cid].handle(Broadcast(t, x, cfg.local_iters, key))
            expected = client_local_update(
                blocks[cid], x, cfg.local_iters, cfg.local_scheme, derived.local_stream(cid)
            )
            assert np.array_equal(reply.delta, expected)


def test_client_session_builds_no_generator_per_broadcast(monkeypatch):
    # a Broadcast re-keys the session's one generator: it seeds nothing
    block, _ = gaussian_consistent(4, 3, 1)
    session = ClientSession(0)
    session.handle(AssignPartition(0, block.A, block.b))
    keys = [stream_key(seed) for seed in (5, 6)]
    expected = [
        client_local_update(block, np.ones(3), 4, SamplingScheme.squared_row_norm(), RngStream(seed))
        for seed in (5, 6)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a Broadcast built a random generator")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "Philox", refuse)
    monkeypatch.setattr(fedrk.core, "RngStream", refuse)
    for t, key in enumerate(keys):
        (reply,) = session.handle(Broadcast(t, np.ones(3), 4, key))
        assert np.array_equal(reply.delta, expected[t])


def test_client_session_takes_scheme_from_server():
    block, _ = gaussian_consistent(4, 3, 5)
    uniform = SamplingScheme.uniform()
    session = ClientSession(0)
    session.handle(AssignPartition(0, block.A, block.b, uniform))
    delta = session.handle(Broadcast(0, np.zeros(3), 6, stream_key(99)))[0].delta
    expected = client_local_update(block, np.zeros(3), 6, uniform, RngStream(99))
    assert np.array_equal(delta, expected)

    pinned = ClientSession(4, SamplingScheme.squared_row_norm())
    with pytest.raises(RoundError) as err:
        pinned.handle(AssignPartition(4, block.A, block.b, uniform))
    assert err.value.client_id == 4


def test_client_session_rejects_misrouted_partition():
    block, _ = gaussian_consistent(4, 3, 2)
    session = ClientSession(1)
    with pytest.raises(RoundError):
        session.handle(AssignPartition(0, block.A, block.b))


def test_client_session_requires_partition_before_broadcast():
    session = ClientSession(0)
    with pytest.raises(RoundError):
        session.handle(Broadcast(0, np.zeros(2), 1, stream_key(0)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_client_session_replies_to_an_iterate_whose_squared_norm_overflows():
    # a client does not measure ||x||: the server's half refuses such an
    # iterate once the deltas are in
    session = ClientSession(0)
    session.handle(AssignPartition(0, np.ones((2, 3)), np.ones(2)))
    (reply,) = session.handle(Broadcast(0, 1e200 * np.ones(3), 4, stream_key(7)))
    assert isinstance(reply, Delta)
    assert (reply.round_index, reply.client_id) == (0, 0)
    assert np.isfinite(reply.delta).all()


def test_client_session_invalid_broadcast_names_client_and_round():
    session = ClientSession(2)
    session.handle(AssignPartition(2, np.ones((2, 3)), np.ones(2)))
    with pytest.raises(RoundError) as err:
        session.handle(Broadcast(4, np.array([np.nan, 1.0, 1.0]), 3, stream_key(1)))
    assert (err.value.client_id, err.value.round_index) == (2, 5)
    assert str(err.value) == (
        "round 5: client 2 got an invalid Broadcast: x_global contains non-finite entries"
    )


def test_client_session_failed_local_run_names_client_and_round():
    # uniform sampling reaches the block's zero row, as fed_round would
    session = ClientSession(3)
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    session.handle(AssignPartition(3, A, np.array([2.0, 0.0]), SamplingScheme.uniform()))
    with pytest.raises(RoundError) as err:
        session.handle(Broadcast(4, np.ones(2), 50, stream_key(1)))
    assert type(err.value) is RoundError
    assert (err.value.client_id, err.value.round_index) == (3, 5)
    assert str(err.value) == "round 5: client 3 failed: sampled row 1 is numerically zero"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_client_session_non_finite_dual_run_replies_without_warning():
    # an overflowing local run on the dual kernel returns its non-finite
    # delta, which the server's build names as this client's
    A = np.zeros((2, 40))
    A[:, 0] = 1.0
    A[1, 1] = 1e-3
    session = ClientSession(1)
    session.handle(AssignPartition(1, A, np.array([3e307, -3e307])))
    (reply,) = session.handle(Broadcast(0, np.zeros(40), 40, stream_key(7)))
    assert not np.isfinite(reply.delta).all()


# ---------------------------------------------------------------------------
# loopback transport
# ---------------------------------------------------------------------------

def test_loopback_matches_fed_run():
    system, x_star = gaussian_consistent(18, 5, 3)
    cfg = RunConfig(
        clients=3, participants=2, local_iters=6, global_iters=4,
        rounds=7, master_seed=31,
    )
    x_direct, trace_direct = fed_run(system, cfg, np.zeros(5), x_ref=x_star)
    x_loop, trace_loop = run_server(Endpoint.loopback(), system, cfg, x_ref=x_star)
    assert np.array_equal(x_direct, x_loop)
    assert trace_direct.csv_text() == trace_loop.csv_text()


def test_loopback_with_threshold_matches_fed_run():
    system, _ = gaussian_consistent(12, 6, 4)
    cfg = RunConfig(
        clients=4, participants=2, local_iters=5, global_iters=5,
        rounds=5, sparsity=3, master_seed=8,
    )
    x_direct, trace_direct = fed_run(system, cfg, np.ones(6))
    x_loop, trace_loop = run_server(Endpoint.loopback(), system, cfg, x0=np.ones(6))
    assert np.array_equal(x_direct, x_loop)
    assert trace_direct.csv_text() == trace_loop.csv_text()


# ---------------------------------------------------------------------------
# socket transport
# ---------------------------------------------------------------------------

def serve_one_client(system, timeout=5.0):
    """A one-client ``run_server`` in a thread; returns (port, finish)."""
    port = free_port()
    cfg = RunConfig(
        clients=1, participants=1, local_iters=2, global_iters=2, rounds=3, master_seed=4,
    )
    return port, serve_in_thread(
        lambda: run_server(Endpoint.server("127.0.0.1", port), system, cfg, timeout=timeout)
    )


def test_socket_matches_loopback():
    system, x_star = gaussian_consistent(14, 4, 5)
    cfg = RunConfig(
        clients=4, participants=3, local_iters=4, global_iters=3,
        rounds=5, master_seed=77,
    )
    x_loop, trace_loop = run_server(Endpoint.loopback(), system, cfg, x_ref=x_star)
    x_sock, trace_sock = run_socket(system, cfg, x_ref=x_star)
    assert np.array_equal(x_loop, x_sock)
    assert trace_loop.csv_text() == trace_sock.csv_text()


def test_socket_matches_fed_run_across_chunk_boundary():
    # the server's stream table refills at round CHUNK_ROUNDS
    system, _ = gaussian_consistent(16, 5, 19)
    cfg = RunConfig(
        clients=4, participants=2, local_iters=3, global_iters=3,
        rounds=CHUNK_ROUNDS + 6, master_seed=91,
    )
    x_direct, trace_direct = fed_run(system, cfg, np.zeros(5))
    x_sock, trace_sock = run_socket(system, cfg)
    assert np.array_equal(x_direct, x_sock)
    assert trace_direct.csv_text() == trace_sock.csv_text()


def test_client_started_before_server_waits_for_it():
    # the client starts first and retries its refused connection
    system, x_star = gaussian_consistent(12, 4, 15)
    cfg = RunConfig(
        clients=2, participants=2, local_iters=3, global_iters=3, rounds=4, master_seed=8,
    )
    port = free_port()
    errors = []

    def client(cid):
        try:
            run_client(Endpoint.client("127.0.0.1", port), cid, timeout=10.0)
        except Exception as exc:  # reported below
            errors.append(exc)

    clients = [threading.Thread(target=client, args=(cid,)) for cid in range(2)]
    for thread in clients:
        thread.start()
    time.sleep(0.2)
    x_sock, trace_sock = run_server(
        Endpoint.server("127.0.0.1", port), system, cfg, x_ref=x_star, timeout=10.0
    )
    for thread in clients:
        thread.join(timeout=30)
    assert errors == [] and not any(thread.is_alive() for thread in clients)
    x_loop, trace_loop = run_server(Endpoint.loopback(), system, cfg, x_ref=x_star)
    assert np.array_equal(x_loop, x_sock)
    assert trace_loop.csv_text() == trace_sock.csv_text()


def test_client_gives_up_on_refused_connection_at_timeout():
    port = free_port()
    start = time.monotonic()
    with pytest.raises(ConnectionRefusedError):
        run_client(Endpoint.client("127.0.0.1", port), 0, timeout=0.3)
    assert 0.3 <= time.monotonic() - start < 5.0


def test_socket_client_killed_mid_round():
    system, _ = gaussian_consistent(8, 3, 6)
    cfg = RunConfig(
        clients=2, participants=2, local_iters=3, global_iters=3,
        rounds=4, master_seed=5,
    )
    port = free_port()
    finish = serve_in_thread(
        lambda: run_server(Endpoint.server("127.0.0.1", port), system, cfg, timeout=5.0)
    )
    good = threading.Thread(
        target=lambda: _tolerant_client(Endpoint.client("127.0.0.1", port), 0)
    )
    good.start()

    # client 1 logs in, then dies without ever answering a broadcast
    sock = connect(port)
    write_frame(sock, Delta(0, 1, np.zeros(0)))
    time.sleep(0.2)
    sock.close()

    err = finish()
    good.join(timeout=30)
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (1, 1)


def _tolerant_client(endpoint, client_id):
    try:
        run_client(endpoint, client_id, timeout=5.0)
    except (ConnectionLost, OSError):
        pass  # server aborts the run; this client's fate is not under test


def test_socket_timeout_names_client():
    system, _ = gaussian_consistent(6, 2, 7)
    cfg = RunConfig(
        clients=1, participants=1, local_iters=2, global_iters=2,
        rounds=2, master_seed=1,
    )
    port = free_port()
    finish = serve_in_thread(
        lambda: run_server(Endpoint.server("127.0.0.1", port), system, cfg, timeout=1.0)
    )
    # logs in but never responds to the broadcast, and keeps the socket open
    sock = connect(port)
    write_frame(sock, Delta(0, 0, np.zeros(0)))
    err = finish()
    sock.close()
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (0, 1)
    assert str(err) == "round 1: client 0 timed out"


def test_socket_stale_round_delta_rejected():
    system, _ = gaussian_consistent(6, 2, 9)
    port, finish = serve_one_client(system)
    sock = join_first_broadcast(port)
    # reply labelled with a round that is not the current one
    write_frame(sock, Delta(2, 0, np.zeros(2)))
    err = finish()
    sock.close()
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (0, 1)
    assert "stale" in str(err)


def test_socket_non_finite_delta_names_client():
    system, _ = gaussian_consistent(6, 2, 11)
    port, finish = serve_one_client(system)
    sock = join_first_broadcast(port)
    write_frame(sock, Delta(0, 0, np.array([np.nan, 1.0])))
    err = finish()
    sock.close()
    assert isinstance(err, RoundError)
    assert err.client_id == 0
    assert "non-finite" in str(err)


def test_socket_short_delta_names_client():
    system, _ = gaussian_consistent(8, 4, 11)
    port, finish = serve_one_client(system)
    sock = join_first_broadcast(port)
    write_frame(sock, Delta(0, 0, np.ones(3)))
    err = finish()
    sock.close()
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (0, 1)
    assert str(err) == "round 1: client 0 sent 3 delta entries for 4 columns"


def test_socket_bad_magic_in_place_of_delta_names_client_and_round():
    system, _ = gaussian_consistent(6, 2, 14)
    port, finish = serve_one_client(system)
    sock = join_first_broadcast(port)
    sock.sendall(b"XX" + encode(Delta(0, 0, np.ones(2)))[2:])
    err = finish()
    sock.close()
    assert isinstance(err, RoundError)
    assert isinstance(err.__cause__, BadMagic)
    assert (err.client_id, err.round_index) == (0, 1)
    assert str(err).startswith("round 1: client 0 sent a malformed frame: bad magic")


def test_socket_oversized_delta_frame_rejected_before_payload():
    system, _ = gaussian_consistent(6, 2, 12)
    timeout = 10.0
    port, finish = serve_one_client(system, timeout)
    sock = join_first_broadcast(port)
    start = time.monotonic()
    # a Delta header declaring 0xFFFFFFFF payload bytes, and no payload
    sock.sendall(b"FK" + bytes([VERSION, 3]) + (0xFFFFFFFF).to_bytes(4, "little"))
    err = finish()
    elapsed = time.monotonic() - start
    sock.close()
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (0, 1)
    assert isinstance(err.__cause__, LengthMismatch)
    assert elapsed < timeout / 4


def test_socket_oversized_hello_rejected_before_payload():
    system, _ = gaussian_consistent(6, 2, 13)
    timeout = 10.0
    port, finish = serve_one_client(system, timeout)
    sock = connect(port)
    start = time.monotonic()
    sock.sendall(b"FK" + bytes([VERSION, 3]) + (0xFFFFFFFF).to_bytes(4, "little"))
    err = finish()
    elapsed = time.monotonic() - start
    sock.close()
    assert isinstance(err, RoundError)
    assert isinstance(err.__cause__, LengthMismatch)
    assert elapsed < timeout / 4


def test_socket_version_1_hello_refused_before_payload():
    system, _ = gaussian_consistent(6, 2, 16)
    timeout = 10.0
    port, finish = serve_one_client(system, timeout)
    sock = connect(port)
    start = time.monotonic()
    # a version-1 hello header declaring its 12 payload bytes, and no payload
    sock.sendall(b"FK" + bytes([1, 3]) + (12).to_bytes(4, "little"))
    err = finish()
    elapsed = time.monotonic() - start
    sock.close()
    assert isinstance(err, RoundError)
    assert isinstance(err.__cause__, BadVersion)
    assert err.__cause__.offset == 2
    assert elapsed < timeout / 4


# a Broadcast for 3 columns is 28 + 8 * 3 = 52 payload bytes
@pytest.mark.parametrize("declared", [0xFFFFFFFF, 53])
def test_client_rejects_oversized_broadcast_frame_before_payload(declared):
    timeout = 10.0
    port, server = serve_raw_frames(oversized_broadcast_frames(declared), timeout)
    start = time.monotonic()
    with pytest.raises(LengthMismatch):
        run_client(Endpoint.client("127.0.0.1", port), 0, timeout=timeout)
    elapsed = time.monotonic() - start
    server.join(timeout=30)
    assert elapsed < timeout / 4


def test_declared_length_alone_allocates_little():
    # a header declaring 64 MiB, then end-of-stream: each recv asks for at most 1 MiB
    reader, writer = socket.socketpair()
    writer.sendall(b"FK" + bytes([VERSION, 2]) + (64 << 20).to_bytes(4, "little"))
    writer.close()
    tracemalloc.start()
    try:
        with pytest.raises(Truncated):
            read_frame(reader)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        reader.close()
    assert peak < 8 << 20


def test_socket_duplicate_client_id_rejected():
    system, _ = gaussian_consistent(6, 2, 10)
    cfg = RunConfig(
        clients=2, participants=1, local_iters=1, global_iters=1,
        rounds=1, master_seed=0,
    )
    port = free_port()
    finish = serve_in_thread(
        lambda: run_server(Endpoint.server("127.0.0.1", port), system, cfg, timeout=5.0)
    )
    socks = []
    for _ in range(2):
        sock = connect(port)
        write_frame(sock, Delta(0, 1, np.zeros(0)))  # both claim id 1
        socks.append(sock)
    err = finish()
    # the server closed the socket of the client that had already joined
    socks[0].settimeout(2.0)
    first_read = socks[0].recv(1)
    for sock in socks:
        sock.close()
    assert isinstance(err, RoundError)
    assert first_read == b""


def test_run_client_rejects_loopback_endpoint():
    with pytest.raises(ValueError):
        run_client(Endpoint.loopback(), 0)


def test_client_and_server_endpoints_are_one_address():
    assert Endpoint.client("127.0.0.1", 7) == Endpoint.server("127.0.0.1", 7)
    assert Endpoint.loopback().host is None
