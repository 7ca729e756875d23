"""End-to-end tests of the command-line interface."""

import threading
import time

import numpy as np
import pytest

from fedrk.cli import main
from fedrk.core import save_vector_csv
from harness import (
    free_port,
    join_first_broadcast,
    oversized_broadcast_frames,
    save_dmat,
    save_matrix_csv,
    serve_in_thread,
    serve_raw_frames,
)


@pytest.fixture
def small_problem(tmp_path):
    g = np.random.default_rng(0)
    A = g.standard_normal((12, 4))
    x_star = g.standard_normal(4)
    a_path = tmp_path / "A.csv"
    b_path = tmp_path / "b.csv"
    save_matrix_csv(a_path, A)
    save_vector_csv(b_path, A @ x_star)
    return a_path, b_path


def solve_args(a_path, b_path, out, **extra):
    args = [
        "solve", "--matrix", str(a_path), "--rhs", str(b_path),
        "--clients", "3", "--participants", "2", "--local-iters", "8",
        "--global-iters", "8", "--rounds", "40", "--seed", "7",
        "--out", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_solve_loopback(small_problem, tmp_path, capsys):
    a_path, b_path = small_problem
    out = tmp_path / "trace.csv"
    assert main(solve_args(a_path, b_path, out)) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == ["round", "error", "residual", "participants", "dropped_rows"]
    assert [int(row[0]) for row in rows] == list(range(41))
    assert float(rows[-1][2]) < float(rows[0][2])
    assert "final residual" in capsys.readouterr().out


def test_solve_dmat_input(tmp_path):
    g = np.random.default_rng(1)
    A = g.standard_normal((8, 3))
    a_path = tmp_path / "A.dmat"
    b_path = tmp_path / "b.csv"
    save_dmat(a_path, A)
    save_vector_csv(b_path, A @ g.standard_normal(3))
    out = tmp_path / "trace.csv"
    assert main(solve_args(a_path, b_path, out)) == 0


def test_solve_writes_solution(small_problem, tmp_path):
    a_path, b_path = small_problem
    out = tmp_path / "trace.csv"
    sol = tmp_path / "x.csv"
    code = main(solve_args(a_path, b_path, out, solution_out=sol, rounds=120))
    assert code == 0
    x = np.array([float(line) for line in sol.read_text().splitlines()])
    assert x.shape == (4,)


def test_solve_matches_library_run(small_problem, tmp_path):
    from fedrk.core import load_matrix_csv, load_vector
    from fedrk.federation import RunConfig, fed_run
    from fedrk.solver import LinearSystem

    a_path, b_path = small_problem
    out = tmp_path / "trace.csv"
    main(solve_args(a_path, b_path, out))
    system = LinearSystem(load_matrix_csv(a_path), load_vector(b_path))
    cfg = RunConfig(
        clients=3, participants=2, local_iters=8, global_iters=8,
        rounds=40, master_seed=7,
    )
    _, trace = fed_run(system, cfg, np.zeros(4))
    assert out.read_text() == trace.csv_text()


def test_solve_config_error_exit_code(small_problem, tmp_path):
    a_path, b_path = small_problem
    out = tmp_path / "trace.csv"
    args = solve_args(a_path, b_path, out)
    args[args.index("--participants") + 1] = "9"  # more participants than clients
    assert main(args) == 2


@pytest.mark.parametrize("port", ["70000", "-1"])
@pytest.mark.parametrize("command", ["solve", "client"])
def test_out_of_range_port_is_config_error(command, port, small_problem, tmp_path, capsys):
    a_path, b_path = small_problem
    if command == "solve":
        args = solve_args(a_path, b_path, tmp_path / "trace.csv", transport="tcp", port=port)
    else:
        args = ["client", "--port", port, "--id", "0", "--timeout", "10"]
    assert main(args) == 2
    assert "port must be in 0..65535" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value, message", [
    ("solve", "timeout", "0", "timeout must be positive, got 0.0"),
    ("client", "timeout", "0", "timeout must be positive, got 0.0"),
    ("client", "id", "-1", "client id must be in 0..4294967295, got -1"),
    ("client", "id", "4294967296", "client id must be in 0..4294967295, got 4294967296"),
])
def test_tcp_input_is_config_error_before_any_socket(
    command, option, value, message, small_problem, tmp_path, capsys
):
    # no server listens on the port: a client that got as far as connecting
    # would retry for its whole timeout and exit 3
    port = free_port()
    if command == "solve":
        a_path, b_path = small_problem
        args = solve_args(
            a_path, b_path, tmp_path / "trace.csv", transport="tcp", port=port, timeout=10
        )
    else:
        args = ["client", "--port", str(port), "--id", "0", "--timeout", "10"]
    args[args.index(f"--{option}") + 1] = value
    start = time.monotonic()
    assert main(args) == 2
    assert time.monotonic() - start < 1.0
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("clients", "4294967295", "clients must be <= 4294967294"),
    ("rounds", "4294967297", "rounds must satisfy 0 <= rounds <= 2**32"),
])
def test_counts_beyond_the_stream_words_are_config_errors(
    option, value, message, small_problem, tmp_path, capsys
):
    a_path, b_path = small_problem
    args = solve_args(a_path, b_path, tmp_path / "trace.csv", **{option: value})
    assert main(args) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_nan_residual_tol_is_config_error(small_problem, tmp_path, capsys):
    a_path, b_path = small_problem
    args = solve_args(a_path, b_path, tmp_path / "trace.csv", residual_tol="nan")
    assert main(args) == 2
    assert "residual_tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("kind, message", [
    ("short_rhs", "A has 6 rows but b has 5 entries"),
    ("too_many_clients", "7 clients for 6 rows"),
    ("zero_block", "client 1's rows 2 to 3 are all zero"),
], ids=["short_rhs", "too_many_clients", "zero_block"])
def test_solve_input_mistake_is_config_error(kind, message, tmp_path, capsys):
    A = np.random.default_rng(5).standard_normal((6, 3))
    b = A @ np.ones(3)
    clients = 3
    if kind == "short_rhs":
        b = b[:5]
    elif kind == "too_many_clients":
        clients = 7
    else:
        A[2:4] = 0.0
    save_matrix_csv(tmp_path / "A.csv", A)
    save_vector_csv(tmp_path / "b.csv", b)
    args = solve_args(tmp_path / "A.csv", tmp_path / "b.csv", tmp_path / "trace.csv")
    args[args.index("--clients") + 1] = str(clients)
    assert main(args) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_solve_missing_file_exit_code(tmp_path):
    out = tmp_path / "trace.csv"
    args = solve_args(tmp_path / "missing.csv", tmp_path / "missing_b.csv", out)
    assert main(args) == 3


def test_bad_usage_exit_code():
    assert main(["solve", "--matrix", "a.csv"]) == 2
    assert main(["exp", "unknown-name", "--out", "x"]) == 2


def run_tcp_solve(solve_argv, client_extra):
    """Run ``solve_argv`` as a TCP server with one ``fedrk client`` thread per
    entry of ``client_extra`` (extra client arguments); returns the exit
    codes, the server's under "server" and each client's under its id. The
    clients start first and get the run's ``--timeout``."""
    port = free_port()
    timeout = solve_argv[solve_argv.index("--timeout") + 1]
    codes = {}
    clients = [
        threading.Thread(
            target=lambda cid=cid, extra=extra: codes.setdefault(cid, main([
                "client", "--port", str(port), "--id", str(cid), "--timeout", timeout, *extra
            ]))
        )
        for cid, extra in enumerate(client_extra)
    ]
    for t in clients:
        t.start()
    codes["server"] = main(solve_argv + ["--transport", "tcp", "--port", str(port)])
    for t in clients:
        t.join(timeout=60)
    return codes


def test_solve_tcp_round_trip(small_problem, tmp_path):
    a_path, b_path = small_problem
    out_tcp = tmp_path / "tcp.csv"
    out_loop = tmp_path / "loop.csv"
    codes = run_tcp_solve(solve_args(a_path, b_path, out_tcp, timeout=10), [[]] * 3)
    assert codes == {"server": 0, 0: 0, 1: 0, 2: 0}
    assert main(solve_args(a_path, b_path, out_loop)) == 0
    assert out_tcp.read_text() == out_loop.read_text()


def _problem_12x6(tmp_path):
    g = np.random.default_rng(7)
    A = g.standard_normal((12, 6))
    save_matrix_csv(tmp_path / "A.csv", A)
    save_vector_csv(tmp_path / "b.csv", A @ g.standard_normal(6))
    return tmp_path / "A.csv", tmp_path / "b.csv"


def test_solve_tcp_clients_take_the_server_scheme(tmp_path):
    a_path, b_path = _problem_12x6(tmp_path)

    def args(out):
        return solve_args(a_path, b_path, out, rounds=20, scheme="uniform", timeout=10)

    codes = run_tcp_solve(args(tmp_path / "tcp.csv"), [[]] * 3)
    assert codes == {"server": 0, 0: 0, 1: 0, 2: 0}
    assert main(args(tmp_path / "loop.csv")) == 0
    assert (tmp_path / "tcp.csv").read_text() == (tmp_path / "loop.csv").read_text()


def test_solve_tcp_client_scheme_mismatch_is_runtime_error(tmp_path, capsys):
    a_path, b_path = _problem_12x6(tmp_path)
    argv = solve_args(
        a_path, b_path, tmp_path / "tcp.csv", rounds=20, scheme="uniform", timeout=10
    )
    codes = run_tcp_solve(argv, [[], ["--scheme", "sqnorm"], []])
    assert codes[1] == 3 and codes["server"] == 3
    assert "client 1 was started with scheme sqnorm" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_overflow_is_runtime_error(tmp_path, capsys):
    # a right-hand side near 1e200 overflows the residual before any round runs
    g = np.random.default_rng(3)
    save_matrix_csv(tmp_path / "A.csv", g.standard_normal((12, 4)))
    save_vector_csv(tmp_path / "b.csv", 1e200 * g.standard_normal(12))
    args = solve_args(tmp_path / "A.csv", tmp_path / "b.csv", tmp_path / "trace.csv")
    assert main(args) == 3
    assert "round 0: the residual is not finite" in capsys.readouterr().err


def test_solve_overflowing_row_norm_is_config_error(tmp_path, capsys):
    # rows near 1e160 have squared norms that overflow: rejected before any round
    g = np.random.default_rng(3)
    save_matrix_csv(tmp_path / "A.csv", 1e160 * g.standard_normal((12, 4)))
    save_vector_csv(tmp_path / "b.csv", g.standard_normal(12))
    args = solve_args(tmp_path / "A.csv", tmp_path / "b.csv", tmp_path / "trace.csv")
    assert main(args) == 2
    assert "row 0 of A has a squared norm that overflows" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_solve_tcp_non_finite_delta_is_runtime_error(small_problem, tmp_path, capsys):
    from fedrk.transport import Delta, write_frame

    a_path, b_path = small_problem
    port = free_port()
    args = solve_args(
        a_path, b_path, tmp_path / "tcp.csv", transport="tcp", port=port, timeout=10
    )
    args[args.index("--clients") + 1] = "1"
    args[args.index("--participants") + 1] = "1"
    finish = serve_in_thread(lambda: main(args))
    sock = join_first_broadcast(port)
    write_frame(sock, Delta(0, 0, np.full(4, np.nan)))
    code = finish()
    sock.close()
    assert code == 3
    assert "client 0" in capsys.readouterr().err


def test_client_oversized_frame_is_runtime_error(capsys):
    port, server = serve_raw_frames(oversized_broadcast_frames(0xFFFFFFFF), 10.0)
    code = main(["client", "--port", str(port), "--id", "0", "--timeout", "10"])
    server.join(timeout=30)
    assert code == 3
    assert "frame declares 4294967295 payload bytes, at most 52 expected" in capsys.readouterr().err


def test_client_exits_at_once_on_a_peer_that_is_not_fedrk(capsys):
    # read as a header, "HTTP/1.1" declares an 825,110,831-byte payload
    port, server = serve_raw_frames([b"HTTP/1.1 200 OK\r\n\r\n"], 10.0)
    start = time.monotonic()
    code = main(["client", "--port", str(port), "--id", "0", "--timeout", "10"])
    elapsed = time.monotonic() - start
    server.join(timeout=30)
    assert code == 3
    assert elapsed < 1.0
    assert "bad magic b'HT'" in capsys.readouterr().err


def test_client_refuses_a_version_1_peer_before_payload(capsys):
    from fedrk.transport import AssignPartition, encode

    # a version-1 AssignPartition header; its payload is never sent
    header = encode(AssignPartition(0, np.ones((2, 3)), np.ones(2)))[:8]
    port, server = serve_raw_frames([header[:2] + bytes([1]) + header[3:]], 10.0)
    start = time.monotonic()
    code = main(["client", "--port", str(port), "--id", "0", "--timeout", "10"])
    elapsed = time.monotonic() - start
    server.join(timeout=30)
    assert code == 3
    assert elapsed < 1.0
    assert "error: unsupported version 1 (offset 2)" in capsys.readouterr().err


@pytest.mark.parametrize("kind, message", [
    ("nan_rows", "client 0 got an invalid AssignPartition: A contains non-finite entries"),
    ("zero_rows", "client 0 got an invalid AssignPartition: A must have at least one row"),
    ("nan_broadcast",
     "round 1: client 0 got an invalid Broadcast: x_global contains non-finite entries"),
], ids=["nan_rows", "zero_rows", "nan_broadcast"])
def test_client_invalid_peer_message_is_runtime_error(kind, message, capsys):
    from fedrk.transport import AssignPartition, Broadcast, encode

    A = np.ones((2, 3))
    if kind == "nan_rows":
        A[1, 1] = np.nan
    elif kind == "zero_rows":
        A = np.zeros((0, 3))
    frames = [encode(AssignPartition(0, A, np.ones(A.shape[0])))]
    if kind == "nan_broadcast":
        frames.append(encode(Broadcast(0, np.array([1.0, np.nan, 0.0]), 2, (7, 0))))
    port, server = serve_raw_frames(frames, 10.0)
    code = main(["client", "--port", str(port), "--id", "0", "--timeout", "10"])
    server.join(timeout=30)
    assert code == 3
    assert f"error: {message}" in capsys.readouterr().err


def test_exp_lsq_with_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(
        "name=lsq\nm=64\nn=8\nclients=4\nparticipants=4\nrounds=60\n"
        "trials=2\naugment_cols=0,8\nseed=5\n"
    )
    out_dir = tmp_path / "results"
    code = main(["exp", "lsq", "--spec", str(spec_path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "lsq_horizons.csv").exists()
    assert "median horizon" in capsys.readouterr().out


def test_exp_spec_name_mismatch(tmp_path):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("name=sparse\n")
    assert main(["exp", "lsq", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2


def test_exp_spec_key_the_experiment_ignores_is_config_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("name=lsq\ntrials=1\nsparsity=2\n")
    assert main(["exp", "lsq", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
    assert "the lsq experiment does not read sparsity" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("name=convergence\ntrials=0\n", "trials must be at least 1"),
    ("name=convergence\ntau_list=2,2\n", "tau_list must list distinct values >= 1"),
    ("name=lsq\naugment_cols=-1\n", "augment_cols must list distinct values >= 0"),
    ("name=lsq\nrounds=3\nrounds=4\n", "spec key 'rounds' is given twice"),
    (
        "name=lsq\nm=4\nn=8\nclients=2\nparticipants=2\nrounds=5\ntrials=1\naugment_cols=0\n",
        "the lsq experiment needs m >= n",
    ),
], ids=["no_trials", "repeated_tau", "negative_augment", "repeated_key", "lsq_m_below_n"])
def test_exp_spec_the_runner_cannot_report_on_is_config_error(text, message, tmp_path, capsys):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(text)
    name = text.split("\n")[0].removeprefix("name=")
    out = tmp_path / "res"
    assert main(["exp", name, "--spec", str(spec_path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_exp_convergence_small(tmp_path):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(
        "name=convergence\nm=48\nn=12\nclients=3\nparticipants=2\n"
        "rounds=25\ntrials=2\ntau_list=3,6\nseed=2\n"
    )
    out_dir = tmp_path / "conv"
    assert main(["exp", "convergence", "--spec", str(spec_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "convergence.csv").exists()


def test_exp_prostate_missing_data(tmp_path, monkeypatch):
    monkeypatch.delenv("FEDRK_PROSTATE_PATH", raising=False)
    code = main(
        ["exp", "prostate", "--out", str(tmp_path), "--data", str(tmp_path / "none.data")]
    )
    assert code == 3


def test_exp_prostate_malformed_data_is_config_error(tmp_path, capsys):
    data = tmp_path / "bad.data"
    data.write_text("lcavol lweight age lbph svi lcp gleason lpsa\n" + "1 " * 8 + "\n")
    code = main(["exp", "prostate", "--out", str(tmp_path / "res"), "--data", str(data)])
    assert code == 2
    assert f"config error: {data}: missing column 'pgg45'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["convergence", "sparse", "lsq"])
def test_exp_data_outside_prostate_is_config_error(name, tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["exp", name, "--out", str(out), "--data", str(tmp_path / "none.data")])
    assert code == 2
    assert f"config error: the {name} experiment reads no --data" in capsys.readouterr().err
    assert not out.exists()


def test_exp_prostate_synthetic_with_train_split(tmp_path, capsys):
    from test_experiments import synthetic_prostate_file

    data = tmp_path / "prostate.data"
    synthetic_prostate_file(data, rows=35, seed=8)
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(
        "name=prostate\nrounds=40\ntrials=1\nseed=9\nuse_train_split=true\n"
    )
    code = main(
        [
            "exp", "prostate", "--spec", str(spec_path), "--out", str(tmp_path / "res"),
            "--data", str(data),
        ]
    )
    assert code == 0
    assert (tmp_path / "res" / "prostate_counts.csv").exists()
    assert "top-5 features" in capsys.readouterr().out
