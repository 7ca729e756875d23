"""Helpers the tests share, chiefly for starting in-process TCP runs and
writing matrix fixture files.

``run_client`` retries a refused connection until its timeout
(``transport._connect``), and so does :func:`connect`. So clients and
scripted peers may start before their server listens, and nothing here
sleeps while a server thread starts.
"""

import socket
import struct
import threading

import numpy as np

from fedrk.core import _DMAT_MAGIC, as_matrix, format_csv
from fedrk.errors import RoundError
from fedrk.solver import LinearSystem
from fedrk.transport import (
    VERSION,
    AssignPartition,
    Broadcast,
    Delta,
    Endpoint,
    _connect,
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


def save_matrix_csv(path, matrix):
    with open(path, "w") as fh:
        fh.write(format_csv(as_matrix(matrix)))


def save_dmat(path, matrix):
    m = as_matrix(matrix)
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _DMAT_MAGIC, rows, cols))
        fh.write(m.astype("<f8", copy=False).tobytes())


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def connect(port, timeout=5.0):
    """A scripted peer's socket to the server on ``port``, with ``timeout``
    on every call; a refused connection is retried as ``run_client`` does."""
    return _connect(Endpoint.client("127.0.0.1", port), timeout)


def run_socket(system, cfg, timeout=15.0, **run_server_kwargs):
    """``run_server`` over TCP with one ``run_client`` thread per client.

    The clients start first and retry until the server, run in the calling
    thread, listens; both sides get ``timeout``.
    """
    port = free_port()
    clients = [
        threading.Thread(
            target=run_client, args=(Endpoint.client("127.0.0.1", port), cid),
            kwargs={"timeout": timeout},
        )
        for cid in range(cfg.clients)
    ]
    for thread in clients:
        thread.start()
    try:
        return run_server(
            Endpoint.server("127.0.0.1", port), system, cfg, timeout=timeout,
            **run_server_kwargs,
        )
    finally:
        for thread in clients:
            thread.join(timeout=60)


def serve_in_thread(run):
    """Start ``run()``, a ``run_server`` or CLI ``main`` call, in a thread.

    Returns ``finish``: it joins the thread and returns what ``run``
    returned, or the RoundError it raised.
    """
    box = {}

    def serve():
        try:
            box["out"] = run()
        except RoundError as exc:
            box["out"] = exc

    thread = threading.Thread(target=serve)
    thread.start()

    def finish():
        thread.join(timeout=30)
        assert "out" in box, "server thread did not finish"
        return box["out"]

    return finish


def join_first_broadcast(port):
    """Log in as client 0 by hand and read up to the round-0 Broadcast."""
    sock = connect(port)
    write_frame(sock, Delta(0, 0, np.zeros(0)))  # hello
    assert isinstance(read_frame(sock), AssignPartition)
    broadcast = read_frame(sock)
    assert isinstance(broadcast, Broadcast) and broadcast.round_index == 0
    return sock


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
    return [assign, b"FK" + bytes([VERSION, 2]) + declared.to_bytes(4, "little")]
