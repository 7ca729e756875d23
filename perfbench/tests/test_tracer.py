"""The tracer's self times, counters and clean uninstall."""

import sys
import types

import tracer as tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_module(clock):
    mod = types.ModuleType("fake_layers")

    def inner(n):
        clock.now += n
        return b"x" * n

    def outer():
        clock.now += 1.0
        mod.inner(2)
        mod.inner(3)
        clock.now += 4.0

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    return mod


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    mod = _fake_module(clock)
    original_inner = mod.inner
    tracer = tracing.Tracer(clock=clock)
    targets = [
        ("fake_layers", "outer", "fake.outer", None, "fake.outer.seen"),
        ("fake_layers", "inner", "fake.inner", lambda a, k, r: {"bytes": len(r)}, None),
    ]
    tracer.install(targets)
    mod.outer()
    tracer.uninstall()
    totals = tracer.totals()
    assert totals["fake.outer.calls"] == 1 and totals["fake.inner.calls"] == 2
    assert totals["fake.outer.self_s"] == 5.0
    assert totals["fake.inner.self_s"] == 5.0
    assert totals["fake.inner.bytes"] == 5
    assert totals["fake.outer.seen"] == 1
    outer_id = next(s[1] for s in tracer.spans if s[3] == "fake.outer")
    assert [s[2] for s in tracer.spans if s[3] == "fake.inner"] == [outer_id, outer_id]
    assert mod.inner is original_inner


def test_uninstall_restores_every_program_attribute():
    import fedrk.federation as federation
    import fedrk.solver as solver

    before = (federation.fed_round, federation.RoundStreams.__dict__["derive"],
              solver.LinearSystem.__dict__["__post_init__"])
    tracer = tracing.Tracer()
    tracer.install()
    assert federation.fed_round is not before[0]
    tracer.uninstall()
    after = (federation.fed_round, federation.RoundStreams.__dict__["derive"],
             solver.LinearSystem.__dict__["__post_init__"])
    assert after == before
    import fedrk.experiments as experiments
    assert experiments.fed_run is federation.fed_run


def test_first_call_marker_fires_once_and_restores():
    clock = FakeClock()
    mod = _fake_module(clock)
    original = mod.inner
    marker = tracing.FirstCall("fake_layers", "inner", clock=clock)
    marker.arm()
    clock.now = 7.0
    mod.inner(1)
    assert marker.time == 7.0 and mod.inner is original
    marker.disarm()
    assert mod.inner is original

