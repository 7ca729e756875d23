"""Federated randomized Kaczmarz solver and simulation harness."""

from .core import (
    RngStream,
    SamplingScheme,
    as_matrix,
    as_vector,
    derive_seed,
    hard_threshold,
    sample_rows,
)
from .errors import FedRKError
from .federation import (
    FedTrace,
    RoundStreams,
    RunConfig,
    ServerRoundSystem,
    build_server_system,
    client_local_update,
    fed_round,
    fed_run,
    sample_clients,
)
from .solver import LinearSystem
from .transport import Endpoint, decode, encode, run_client, run_server

__version__ = "0.1.0"

__all__ = [
    "RngStream",
    "SamplingScheme",
    "as_matrix",
    "as_vector",
    "derive_seed",
    "hard_threshold",
    "sample_rows",
    "FedRKError",
    "FedTrace",
    "RoundStreams",
    "RunConfig",
    "ServerRoundSystem",
    "build_server_system",
    "client_local_update",
    "fed_round",
    "fed_run",
    "sample_clients",
    "LinearSystem",
    "Endpoint",
    "decode",
    "encode",
    "run_client",
    "run_server",
    "__version__",
]
