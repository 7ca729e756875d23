"""Tests for the wire codec and both transports."""

import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fedrk.core import RngStream, SamplingScheme
from fedrk.errors import (
    BadMagic,
    BadType,
    BadVersion,
    CodecError,
    ConnectionLost,
    LengthMismatch,
    NumericalError,
    RoundError,
    Truncated,
)
from fedrk.federation import RunConfig, client_local_update, fed_run
from fedrk.solver import LinearSystem
from fedrk.transport import (
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


def gaussian_consistent(m, n, seed):
    g = np.random.default_rng(seed)
    A = g.standard_normal((m, n))
    x_star = g.standard_normal(n)
    return LinearSystem(A, A @ x_star), x_star


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


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
            int(g.integers(0, 2**64, dtype=np.uint64)),
        )
    if kind == 2:
        n = int(g.integers(0, 9))
        return Delta(int(g.integers(0, 2**32)), int(g.integers(0, 2**32)), g.standard_normal(n))
    return Shutdown()


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def test_shutdown_frame_bytes():
    assert encode(Shutdown()) == bytes([0x46, 0x4B, 0x01, 0x04, 0x00, 0x00, 0x00, 0x00])


def test_broadcast_payload_length():
    frame = encode(Broadcast(0, np.array([1.0]), 1, 0))
    assert len(frame) - 8 == 28  # 4 + 4 + 8 + 4 + 8


def test_round_trip_examples():
    msgs = [
        AssignPartition(3, np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0])),
        AssignPartition(0, np.ones((1, 3)), np.zeros(1), SamplingScheme.uniform()),
        Broadcast(7, np.array([-1.5, 2.5]), 20, 2**63 + 11),
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


def test_decode_internal_count_mismatch():
    # declare n=3 inside a payload sized for n=2
    good = encode(Delta(1, 2, np.array([1.0, 2.0])))
    bad = bytearray(good)
    bad[16] = 3  # the n field inside the payload
    with pytest.raises(LengthMismatch):
        decode(bytes(bad))


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
        encode(Broadcast(0, np.zeros(1), 2**32, 0))
    with pytest.raises(ValueError):
        encode(Broadcast(0, np.zeros(1), 0, 2**64))
    with pytest.raises(ValueError):
        encode(Broadcast(0, np.zeros(1), 2.5, 0))  # not truncated to 2
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
    replies = session.handle(Broadcast(0, x, 5, 12345))
    assert len(replies) == 1
    delta = replies[0]
    assert isinstance(delta, Delta)
    assert delta.round_index == 0 and delta.client_id == 2
    # the delta reproduces client_local_update with the same stream seed
    expected = client_local_update(
        block, x, 5, SamplingScheme.squared_row_norm(), RngStream(12345)
    )
    assert np.array_equal(delta.delta, expected)
    assert session.handle(Shutdown()) == []
    assert session.done


def test_client_session_takes_scheme_from_server():
    block, _ = gaussian_consistent(4, 3, 5)
    uniform = SamplingScheme.uniform()
    session = ClientSession(0)
    session.handle(AssignPartition(0, block.A, block.b, uniform))
    delta = session.handle(Broadcast(0, np.zeros(3), 6, 99))[0].delta
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
        session.handle(Broadcast(0, np.zeros(2), 1, 0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_client_session_overflowing_iterate_is_a_numerical_error():
    # ||x||^2 overflows: the error names the round and this client, not a row
    session = ClientSession(0)
    session.handle(AssignPartition(0, np.ones((2, 3)), np.ones(2)))
    with pytest.raises(NumericalError) as err:
        session.handle(Broadcast(0, 1e200 * np.ones(3), 4, 7))
    assert (err.value.client_id, err.value.round_index) == (0, 1)
    assert str(err.value) == "round 1: client 0 failed: the iterate's squared norm overflows"


def test_client_session_failed_local_run_names_client_and_round():
    # uniform sampling reaches the block's zero row, as fed_round would
    session = ClientSession(3)
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    session.handle(AssignPartition(3, A, np.array([2.0, 0.0]), SamplingScheme.uniform()))
    with pytest.raises(RoundError) as err:
        session.handle(Broadcast(4, np.ones(2), 50, 1))
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
    (reply,) = session.handle(Broadcast(0, np.zeros(40), 40, 7))
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

def run_socket_round(system, cfg, port, x0=None, x_ref=None, timeout=15.0):
    result = {}

    def serve():
        result["out"] = run_server(
            Endpoint.server("127.0.0.1", port), system, cfg, x0=x0, x_ref=x_ref,
            timeout=timeout,
        )

    server = threading.Thread(target=serve)
    server.start()
    time.sleep(0.05)
    clients = [
        threading.Thread(
            target=run_client, args=(Endpoint.client("127.0.0.1", port), cid)
        )
        for cid in range(cfg.clients)
    ]
    for thread in clients:
        thread.start()
    server.join(timeout=60)
    for thread in clients:
        thread.join(timeout=60)
    assert "out" in result, "server thread did not finish"
    return result["out"]


def test_socket_matches_loopback():
    system, x_star = gaussian_consistent(14, 4, 5)
    cfg = RunConfig(
        clients=4, participants=3, local_iters=4, global_iters=3,
        rounds=5, master_seed=77,
    )
    x_loop, trace_loop = run_server(Endpoint.loopback(), system, cfg, x_ref=x_star)
    x_sock, trace_sock = run_socket_round(system, cfg, free_port(), x_ref=x_star)
    assert np.array_equal(x_loop, x_sock)
    assert trace_loop.csv_text() == trace_sock.csv_text()


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
    result = {}

    def serve():
        try:
            run_server(Endpoint.server("127.0.0.1", port), system, cfg, timeout=5.0)
        except RoundError as exc:
            result["error"] = exc

    server = threading.Thread(target=serve)
    server.start()
    time.sleep(0.05)

    good = threading.Thread(
        target=lambda: _tolerant_client(Endpoint.client("127.0.0.1", port), 0)
    )
    good.start()

    # client 1 logs in, then dies without ever answering a broadcast
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    write_frame(sock, Delta(0, 1, np.zeros(0)))
    time.sleep(0.2)
    sock.close()

    server.join(timeout=30)
    good.join(timeout=30)
    assert isinstance(result.get("error"), RoundError)
    assert (result["error"].client_id, result["error"].round_index) == (1, 1)


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
    result = {}

    def serve():
        try:
            run_server(Endpoint.server("127.0.0.1", port), system, cfg, timeout=1.0)
        except RoundError as exc:
            result["error"] = exc

    server = threading.Thread(target=serve)
    server.start()
    time.sleep(0.05)
    # logs in but never responds to the broadcast, and keeps the socket open
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    write_frame(sock, Delta(0, 0, np.zeros(0)))
    server.join(timeout=30)
    sock.close()
    err = result.get("error")
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (0, 1)
    assert str(err) == "round 1: client 0 timed out"


def test_socket_stale_round_delta_rejected():
    system, _ = gaussian_consistent(6, 2, 9)
    cfg = RunConfig(
        clients=1, participants=1, local_iters=2, global_iters=2,
        rounds=3, master_seed=4,
    )
    port = free_port()
    result = {}

    def serve():
        try:
            run_server(Endpoint.server("127.0.0.1", port), system, cfg, timeout=5.0)
        except RoundError as exc:
            result["error"] = exc

    server = threading.Thread(target=serve)
    server.start()
    time.sleep(0.05)

    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    sock.settimeout(5.0)
    write_frame(sock, Delta(0, 0, np.zeros(0)))  # hello
    assign = read_frame(sock)
    assert isinstance(assign, AssignPartition)
    broadcast = read_frame(sock)
    assert isinstance(broadcast, Broadcast) and broadcast.round_index == 0
    # reply labelled with a round that is not the current one
    write_frame(sock, Delta(2, 0, np.zeros(2)))
    server.join(timeout=30)
    sock.close()
    err = result.get("error")
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (0, 1)
    assert "stale" in str(err)


def serve_in_thread(system, cfg, port, timeout):
    """Start run_server on a socket endpoint; returns (thread, result box)."""
    result = {}

    def serve():
        try:
            result["out"] = run_server(
                Endpoint.server("127.0.0.1", port), system, cfg, timeout=timeout
            )
        except RoundError as exc:
            result["error"] = exc

    server = threading.Thread(target=serve)
    server.start()
    time.sleep(0.05)
    return server, result


def join_first_broadcast(port):
    """Log in as client 0 by hand and read up to the round-0 Broadcast."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    sock.settimeout(5.0)
    write_frame(sock, Delta(0, 0, np.zeros(0)))  # hello
    assert isinstance(read_frame(sock), AssignPartition)
    broadcast = read_frame(sock)
    assert isinstance(broadcast, Broadcast) and broadcast.round_index == 0
    return sock


def one_client_config():
    return RunConfig(
        clients=1, participants=1, local_iters=2, global_iters=2, rounds=3, master_seed=4,
    )


def test_socket_non_finite_delta_names_client():
    system, _ = gaussian_consistent(6, 2, 11)
    port = free_port()
    server, result = serve_in_thread(system, one_client_config(), port, timeout=5.0)
    sock = join_first_broadcast(port)
    write_frame(sock, Delta(0, 0, np.array([np.nan, 1.0])))
    server.join(timeout=30)
    sock.close()
    err = result.get("error")
    assert isinstance(err, RoundError)
    assert err.client_id == 0
    assert "non-finite" in str(err)


def test_socket_short_delta_names_client():
    system, _ = gaussian_consistent(8, 4, 11)
    port = free_port()
    server, result = serve_in_thread(system, one_client_config(), port, timeout=5.0)
    sock = join_first_broadcast(port)
    write_frame(sock, Delta(0, 0, np.ones(3)))
    server.join(timeout=30)
    sock.close()
    err = result.get("error")
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (0, 1)
    assert str(err) == "round 1: client 0 sent 3 delta entries for 4 columns"


def test_socket_bad_magic_in_place_of_delta_names_client_and_round():
    system, _ = gaussian_consistent(6, 2, 14)
    port = free_port()
    server, result = serve_in_thread(system, one_client_config(), port, timeout=5.0)
    sock = join_first_broadcast(port)
    sock.sendall(b"XX" + encode(Delta(0, 0, np.ones(2)))[2:])
    server.join(timeout=30)
    sock.close()
    err = result.get("error")
    assert isinstance(err, RoundError)
    assert isinstance(err.__cause__, BadMagic)
    assert (err.client_id, err.round_index) == (0, 1)
    assert str(err).startswith("round 1: client 0 sent a malformed frame: bad magic")


def test_socket_oversized_delta_frame_rejected_before_payload():
    system, _ = gaussian_consistent(6, 2, 12)
    port = free_port()
    timeout = 10.0
    server, result = serve_in_thread(system, one_client_config(), port, timeout)
    sock = join_first_broadcast(port)
    start = time.monotonic()
    # a Delta header declaring 0xFFFFFFFF payload bytes, and no payload
    sock.sendall(b"FK" + bytes([1, 3]) + (0xFFFFFFFF).to_bytes(4, "little"))
    server.join(timeout=30)
    elapsed = time.monotonic() - start
    sock.close()
    err = result.get("error")
    assert isinstance(err, RoundError)
    assert (err.client_id, err.round_index) == (0, 1)
    assert isinstance(err.__cause__, LengthMismatch)
    assert elapsed < timeout / 4


def test_socket_oversized_hello_rejected_before_payload():
    system, _ = gaussian_consistent(6, 2, 13)
    port = free_port()
    timeout = 10.0
    server, result = serve_in_thread(system, one_client_config(), port, timeout)
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    start = time.monotonic()
    sock.sendall(b"FK" + bytes([1, 3]) + (0xFFFFFFFF).to_bytes(4, "little"))
    server.join(timeout=30)
    elapsed = time.monotonic() - start
    sock.close()
    err = result.get("error")
    assert isinstance(err, RoundError)
    assert isinstance(err.__cause__, LengthMismatch)
    assert elapsed < timeout / 4


def serve_raw_frames(frames, timeout):
    """A fake one-client server: it answers the hello with the raw ``frames``,
    then waits for the client to hang up. Returns (port, thread)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(timeout)

    def serve():
        with listener:
            sock, _ = listener.accept()
            with sock:
                sock.settimeout(timeout)
                read_frame(sock)  # the hello
                for frame in frames:
                    sock.sendall(frame)
                try:
                    sock.recv(1)
                except ConnectionResetError:
                    pass  # the client hung up with bytes of ours unread

    server = threading.Thread(target=serve)
    server.start()
    return listener.getsockname()[1], server


def oversized_broadcast_frames(declared):
    """A valid AssignPartition of a 2x3 block, then a Broadcast header that
    declares ``declared`` payload bytes and sends none of them."""
    assign = encode(AssignPartition(0, np.ones((2, 3)), np.arange(1.0, 3.0)))
    return [assign, b"FK" + bytes([1, 2]) + declared.to_bytes(4, "little")]


# a Broadcast for 3 columns is 20 + 8 * 3 = 44 payload bytes
@pytest.mark.parametrize("declared", [0xFFFFFFFF, 45])
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
    writer.sendall(b"FK" + bytes([1, 2]) + (64 << 20).to_bytes(4, "little"))
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
    result = {}

    def serve():
        try:
            run_server(Endpoint.server("127.0.0.1", port), system, cfg, timeout=5.0)
        except RoundError as exc:
            result["error"] = exc

    server = threading.Thread(target=serve)
    server.start()
    time.sleep(0.05)
    socks = []
    for _ in range(2):
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        write_frame(sock, Delta(0, 1, np.zeros(0)))  # both claim id 1
        socks.append(sock)
    server.join(timeout=30)
    # the server closed the socket of the client that had already joined
    socks[0].settimeout(2.0)
    first_read = socks[0].recv(1)
    for sock in socks:
        sock.close()
    assert isinstance(result.get("error"), RoundError)
    assert first_read == b""


def test_run_client_rejects_loopback_endpoint():
    with pytest.raises(ValueError):
        run_client(Endpoint.loopback(), 0)


def test_run_server_rejects_client_endpoint():
    system, _ = gaussian_consistent(4, 2, 8)
    cfg = RunConfig(clients=1, participants=1, local_iters=1, global_iters=1, rounds=1)
    with pytest.raises(ValueError):
        run_server(Endpoint.client("127.0.0.1", 1), system, cfg)
