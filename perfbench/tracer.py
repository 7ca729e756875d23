"""In-memory span tracer for fedrk.

The tracer wraps the program's public functions at the module attributes
where the program looks them up, so nothing under ``src/`` changes. Each
call becomes one span (name, start, end, parent) kept in memory; a span's
self time is its duration minus the durations of its direct child spans.
``uninstall`` puts every original attribute back, so untraced passes run
the unmodified program.
"""

import importlib
import time
from collections import defaultdict


def _rk_label(args, kwargs):
    # The server always samples the derived system uniformly; every workload
    # runs its clients with squared-row-norm sampling, so the scheme argument
    # tells the two callers apart.
    scheme = args[4] if len(args) > 4 else kwargs["scheme"]
    return "solver.rk_iterate.server" if scheme.kind == "uniform" else "solver.rk_iterate.client"


def _rk_steps(args, kwargs, result):
    return {"steps": int(args[3] if len(args) > 3 else kwargs["iters"])}


def _encoded_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _decoded_bytes(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["data"])}


# (module, attribute path, span name or labeller, extra counters, call counter)
TARGETS = [
    ("fedrk.federation", "rk_iterate", _rk_label, _rk_steps, None),
    ("fedrk.solver", "rk_iterate", _rk_label, _rk_steps, None),
    ("fedrk.solver", "LinearSystem.residual_norm", "solver.residual_norm", None, None),
    ("fedrk.solver", "LinearSystem.__post_init__", "solver.LinearSystem.init", None, None),
    ("fedrk.solver", "sample_rows", "core.sample_rows", None, None),
    ("fedrk.core", "sample_rows", "core.sample_rows", None, None),
    ("fedrk.core", "RngStream.__init__", "core.RngStream", None, None),
    ("fedrk.core", "load_dmat", "core.load_dmat", None, None),
    ("fedrk.federation", "fed_round", "federation.fed_round", None, None),
    ("fedrk.federation", "fed_run", "federation.fed_run", None, None),
    ("fedrk.federation", "RoundStreams.derive", "federation.RoundStreams.derive", None, None),
    ("fedrk.federation", "sample_clients", "federation.sample_clients", None, None),
    ("fedrk.federation", "apply_server_round", "federation.apply_server_round", None, None),
    ("fedrk.federation", "client_local_update", "federation.client_local_update", None, None),
    ("fedrk.transport", "sample_clients", "federation.sample_clients", None, None),
    ("fedrk.transport", "apply_server_round", "federation.apply_server_round", None, None),
    ("fedrk.transport", "client_local_update", "federation.client_local_update", None, None),
    ("fedrk.transport", "encode", "transport.encode", _encoded_bytes, None),
    ("fedrk.transport", "decode", "transport.decode", _decoded_bytes, None),
    ("fedrk.transport", "write_frame", "transport.write_frame", None, None),
    ("fedrk.transport", "read_frame", "transport.read_frame", None, None),
    ("fedrk.experiments", "gen_gaussian_system", "experiments.gen_gaussian_system", None, None),
    ("fedrk.experiments", "fed_run", "federation.fed_run", None, "experiments.fed_run.calls"),
    ("fedrk.experiments", "run_convergence_experiment", "experiments.runner", None, None),
]


def _resolve(module_name, path):
    """Return (owner, attribute name, raw attribute) for a dotted path."""
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Records spans while installed; aggregates them per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (pass_id, span_id, parent_id, name, start, end, self_s)
        self.counters = defaultdict(float)
        self.pass_id = 0
        self._stack = []  # [name, child_time, span_id]
        self._next_id = 0
        self._saved = []

    def wrap(self, fn, name, extra=None, call_counter=None):
        """Return ``fn`` wrapped so that every call records one span."""
        stack, spans, counters, clock = self._stack, self.spans, self.counters, self.clock
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = stack[-1][2] if stack else -1
            frame = [label, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append(
                    (tracer.pass_id, span_id, parent_id, label, start, end, duration - frame[1])
                )
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counters[f"{label}.{key}"] += value
            if call_counter is not None:
                counters[call_counter] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        if self._saved:
            raise RuntimeError("tracer already installed")
        # Import every module first: a module imported after a patch would
        # bind the wrapper under its own name and keep it after uninstall.
        for module_name, *_ in targets:
            importlib.import_module(module_name)
        for module_name, path, name, extra, call_counter in targets:
            owner, attr, raw = _resolve(module_name, path)
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(raw.__func__, name, extra, call_counter))
            else:
                patched = self.wrap(raw, name, extra, call_counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def totals(self):
        """Per-name call counts and self times plus the extra counters."""
        out = defaultdict(float, self.counters)
        for _, _, _, name, _, _, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        return dict(out)

    def write_spans(self, path, extra_spans=()):
        """Append spans as CSV: process,pass,id,parent,name,start,end,self_s.

        The header is written when the file is new or empty."""
        with open(path, "a") as fh:
            if fh.tell() == 0:
                fh.write("process,pass,id,parent,name,start,end,self_s\n")
            for process, spans in [("worker", self.spans), *extra_spans]:
                for span in spans:
                    fh.write(process + "," + ",".join(repr(v) if isinstance(v, float) else str(v)
                                                      for v in span) + "\n")


class FirstCall:
    """One-shot hook: the first call through a module attribute records the
    time and puts the attribute back, so later calls run unwrapped."""

    def __init__(self, module_name, path, on_first=None, clock=time.monotonic):
        self.module_name, self.path = module_name, path
        self.on_first = on_first
        self.clock = clock
        self.time = None

    def arm(self):
        owner, attr, raw = _resolve(self.module_name, self.path)
        self.time = None

        def first(*args, **kwargs):
            setattr(owner, attr, raw)
            self.time = self.clock()
            if self.on_first is not None:
                self.on_first()
            return raw(*args, **kwargs)

        setattr(owner, attr, first)
        self._restore = (owner, attr, raw)

    def disarm(self):
        owner, attr, raw = self._restore
        setattr(owner, attr, raw)


def vm_hwm_kb():
    """This process's peak resident set size in KiB (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")
