"""Command-line interface.

``fedrk solve`` runs one federated solve (loopback or TCP server);
``fedrk client`` joins a TCP run; ``fedrk exp`` reproduces the canned
experiments. Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

import argparse
import sys

import numpy as np

from .core import SamplingScheme, load_matrix, load_vector, save_vector_csv
from .errors import FedRKError
from .experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    run_convergence_experiment,
    run_lsq_experiment,
    run_prostate_experiment,
    run_sparse_experiment,
)
from .federation import RunConfig, fed_run
from .solver import LinearSystem
from .transport import Endpoint, run_client, run_server

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser():
    parser = argparse.ArgumentParser(prog="fedrk")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one federated solve")
    solve.add_argument("--matrix", required=True, help="A as .csv or .dmat")
    solve.add_argument("--rhs", required=True, help="b as .csv (one value per line) or .dmat")
    solve.add_argument("--clients", type=int, required=True)
    solve.add_argument("--participants", type=int, required=True)
    solve.add_argument("--local-iters", type=int, required=True)
    solve.add_argument("--global-iters", type=int, required=True)
    solve.add_argument("--rounds", type=int, required=True)
    solve.add_argument("--sparsity", type=int, default=None)
    solve.add_argument("--scheme", choices=["sqnorm", "uniform"], default="sqnorm")
    solve.add_argument("--transport", choices=["loopback", "tcp"], default="loopback")
    solve.add_argument("--host", default="127.0.0.1")
    solve.add_argument("--port", type=int, default=7571)
    solve.add_argument("--timeout", type=float, default=30.0)
    solve.add_argument("--seed", type=int, required=True)
    solve.add_argument("--residual-tol", type=float, default=None)
    solve.add_argument("--out", required=True, help="trace CSV path")
    solve.add_argument("--solution-out", default=None, help="optional solution CSV path")

    client = sub.add_parser("client", help="join a TCP run as one client")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--id", type=int, required=True)
    client.add_argument(
        "--scheme", choices=["sqnorm", "uniform"], default=None,
        help="local scheme; default: the server's (a different one is an error)",
    )
    client.add_argument("--timeout", type=float, default=30.0)

    exp = sub.add_parser("exp", help="run a canned experiment")
    exp.add_argument("name", choices=EXPERIMENTS)
    exp.add_argument("--spec", default=None, help="key=value spec file overriding defaults")
    exp.add_argument("--out", required=True, help="output directory for CSVs")
    exp.add_argument("--data", default=None, help="prostate data file path")
    return parser


def _cmd_solve(args):
    config = RunConfig(
        clients=args.clients,
        participants=args.participants,
        local_iters=args.local_iters,
        global_iters=args.global_iters,
        rounds=args.rounds,
        sparsity=args.sparsity,
        local_scheme=SamplingScheme(args.scheme),
        master_seed=args.seed,
        residual_tol=args.residual_tol,
    )
    system = LinearSystem(load_matrix(args.matrix), load_vector(args.rhs))
    if args.transport == "loopback":
        x, trace = fed_run(system, config, np.zeros(system.cols))
    else:
        endpoint = Endpoint.server(args.host, args.port)
        x, trace = run_server(endpoint, system, config, timeout=args.timeout)
    trace.to_csv(args.out)
    if args.solution_out:
        save_vector_csv(args.solution_out, x)
    print(f"final residual {trace.residuals[-1]:.6e} after {trace.rounds[-1]} rounds")
    return EXIT_OK


def _cmd_client(args):
    endpoint = Endpoint.client(args.host, args.port)
    scheme = None if args.scheme is None else SamplingScheme(args.scheme)
    run_client(endpoint, args.id, scheme, timeout=args.timeout)
    return EXIT_OK


def _cmd_exp(args):
    if args.data is not None and args.name != "prostate":
        raise ValueError(f"the {args.name} experiment reads no --data")
    if args.spec is not None:
        spec = ExperimentSpec.from_file(args.spec)
        if spec.name != args.name:
            raise ValueError(f"spec file is for {spec.name!r}, not {args.name!r}")
    else:
        spec = getattr(ExperimentSpec, args.name)()
    if args.name == "convergence":
        result = run_convergence_experiment(spec, out_dir=args.out)
        for tau in spec.tau_list:
            print(f"tau={tau}: final median relative error {result.curves[tau][-1]:.3e}")
    elif args.name == "sparse":
        result = run_sparse_experiment(spec, out_dir=args.out)
        print(f"support recovery rate {result.recovery_rate:.2%}")
    elif args.name == "lsq":
        result = run_lsq_experiment(spec, out_dir=args.out)
        for k in spec.augment_cols:
            print(f"k={k}: median horizon {result.median_horizon(k):.6e}")
    else:
        result = run_prostate_experiment(spec, data_path=args.data, out_dir=args.out)
        for trial in range(spec.trials):
            print(f"seed {trial}: top-5 features {', '.join(result.top_features(trial))}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "client":
            return _cmd_client(args)
        return _cmd_exp(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FedRKError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
