"""Outside-in layer tracing: wrap the public functions of each module.

Each module of ``semigram`` is a layer. The traced run replaces every
function named in a layer's ``__all__`` at every place a layer module binds
it, so a call through ``semigram.gramian.opnorm`` is recorded as
``linalg.opnorm`` called from ``gramian``. The integrand that a layer hands
to ``integrate_operator_valued`` is wrapped too, so its evaluations are
counted. Private helpers are never wrapped: their work shows as the self
time of the public function that runs them.

Spans stay in memory while the workload runs and are written once, at the
end. Untraced runs install no wrappers.
"""

import importlib
import inspect
import json
import os
import time

LAYERS = ("cli", "matio", "semistability", "gramian", "reduction", "h2error",
          "heatbench", "linalg")

# the integrand of integrate_operator_valued is recorded under this name
INTEGRAND = "linalg.integrand"
_INTEGRATOR = ("linalg", "integrate_operator_valued")
# matio calls whose first argument is a file path; its size is counted
_READS = {("matio", "read_system"), ("matio", "read_matrix")}
_WRITES = {("matio", "write_matrix")}


class Tracer:
    """Collects spans (name, caller, start, end, parent, command) in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.command = -1
        self.bytes_read = 0
        self.bytes_written = 0
        self.public = set()  # (layer, function) pairs that were wrapped

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, caller, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, caller, t0, t1, parent, self.command)

    def _wrap(self, fn, layer, fname, caller):
        name = "%s.%s" % (layer, fname)
        key = (layer, fname)
        tracer = self

        def traced(*args, **kwargs):
            if key == _INTEGRATOR:
                args, kwargs = tracer._wrap_integrand(args, kwargs, caller)
            idx = tracer._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, caller, t0)
                if key in _READS or key in _WRITES:
                    tracer._count_bytes(key, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_integrand(self, args, kwargs, caller):
        tracer = self

        def integrand(f):
            def traced_f(t):
                idx = tracer._open()
                t0 = time.perf_counter()
                try:
                    return f(t)
                finally:
                    tracer._close(idx, INTEGRAND, caller, t0)
            return traced_f

        if args:
            args = (integrand(args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, f=integrand(kwargs["f"]))
        return args, kwargs

    def _count_bytes(self, key, args, kwargs):
        path = args[0] if args else kwargs.get("path")
        try:
            size = os.path.getsize(path)
        except (OSError, TypeError):
            return
        if key in _READS:
            self.bytes_read += size
        else:
            self.bytes_written += size

    def install(self):
        """Wrap every public function at every binding inside the layers."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module("semigram." + layer)
            except ModuleNotFoundError:
                continue
        public = {}
        for layer, mod in modules.items():
            for fname in getattr(mod, "__all__", ()):
                obj = getattr(mod, fname, None)
                if inspect.isfunction(obj):
                    public[id(obj)] = (obj, layer, fname)
                    self.public.add((layer, fname))
        for caller, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in public:
                    fn, layer, fname = public[id(obj)]
                    setattr(mod, attr, self._wrap(fn, layer, fname, caller))

    def write(self, path, commands):
        """Write the wrapped functions, one line per command, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"public": sorted(".".join(k) for k in self.public),
                                 "bytes_read": self.bytes_read,
                                 "bytes_written": self.bytes_written}) + "\n")
            for i, argv in enumerate(commands):
                fh.write(json.dumps({"command": i, "argv": argv}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "caller": s[1], "start": s[2],
                                     "end": s[3], "parent": s[4], "command": s[5]})
                         + "\n")


def read_spans(path):
    """Return (header, spans) from a file written by :meth:`Tracer.write`."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [rec for rec in map(json.loads, fh) if "name" in rec]
    return header, spans


def span_layer(span):
    """Layer whose code a span's self time belongs to.

    An integrand is a closure of the layer that passed it in, so its self
    time counts there; every other span belongs to its function's module.
    """
    if span["name"] == INTEGRAND:
        return span["caller"]
    return span["name"].split(".", 1)[0]


def aggregate(spans):
    """Sum calls and seconds per span name, per (name, caller) and per layer.

    Returns a flat dict: ``<name>.calls``, ``<name>.s``,
    ``<name>.from-<caller>.calls``, ``<name>.from-<caller>.s`` and
    ``<layer>.self_s``. Self time is a span's duration minus the time its
    direct children cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        for base in (s["name"], "%s.from-%s" % (s["name"], s["caller"])):
            add(base + ".calls", 1)
            add(base + ".s", dur)
        add(span_layer(s) + ".self_s", dur - child_time[i])
    return out
