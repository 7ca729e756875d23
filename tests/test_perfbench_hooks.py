"""The names the benchmark's tracer patches, its two set-up markers, and the
command line its TCP workload gives ``fedrk client``.

``perfbench/tracer.py`` wraps fedrk functions at the module attributes where
fedrk looks them up. These tests load it by path, so a rename in ``src/``
that would leave the benchmark patching nothing fails here too.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fedrk.cli import build_parser
from fedrk.federation import RunConfig, fed_run
from fedrk.solver import LinearSystem
from fedrk.transport import Endpoint, run_server

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module_name, path", [target[:2] for target in tracer.TARGETS],
    ids=[f"{target[0]}.{target[1]}" for target in tracer.TARGETS],
)
def test_every_target_resolves_to_a_callable(module_name, path):
    _, _, raw = tracer._resolve(module_name, path)
    assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)


def small_run():
    g = np.random.default_rng(0)
    A = g.standard_normal((12, 4))
    system = LinearSystem(A, A @ g.standard_normal(4))
    config = RunConfig(
        clients=3, participants=2, local_iters=4, global_iters=4, rounds=3, master_seed=1,
    )
    return system, config


@pytest.mark.parametrize("module_name, attr, run", [
    ("fedrk.federation", "fed_round", lambda s, c: fed_run(s, c, np.zeros(s.cols))),
    ("fedrk.transport", "sample_clients", lambda s, c: run_server(Endpoint.loopback(), s, c)),
], ids=["fed_run", "loopback"])
def test_set_up_marker_fires_in_the_first_round(module_name, attr, run):
    marker = tracer.FirstCall(module_name, attr)
    marker.arm()
    try:
        run(*small_run())
    finally:
        marker.disarm()
    assert marker.time is not None


def test_client_fleet_command_line_parses(monkeypatch, tmp_path):
    # the TCP workload starts its clients through perfbench/client.py, which
    # hands everything after its own three arguments to ``fedrk`` unchanged
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", TRACER_PATH.parent / "worker.py"
    )
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    commands = []

    def fake_popen(cmd, **kwargs):
        commands.append(cmd)
        return SimpleNamespace()

    monkeypatch.setattr(worker.subprocess, "Popen", fake_popen)
    args = SimpleNamespace(work=str(tmp_path), pass_index=0, trace=0)
    worker.ClientFleet(7571, 2, args)._spawn(0)
    (cmd,) = commands
    parsed = build_parser().parse_args(cmd[5:])
    assert (parsed.command, parsed.port, parsed.id) == ("client", 7571, 0)
