"""Span tracing of the ``bosesemi`` layers, installed from outside the
package.

A layer is a module of ``bosesemi``.  Every public function a module
defines is replaced, at every module attribute that refers to it, by a
wrapper that records a span.  The modules import each other's functions
by name (``from .roots import quartic_roots``), so each such name is a
lookup site of its own and is rebound separately; calls inside a module
go through its globals and are caught the same way.

The integrand handed to ``quad.turning_point_integral`` is wrapped too:
it counts quadrature nodes, and its time is booked to the calling layer
(``actions`` or ``wavefun``), so quadrature self time excludes it.

Spans are kept in memory and written as JSON by ``write``.  A span's
self time is its duration minus the time its child spans cover; every
operation is one root span (layer ``bench``), so the self times of all
layers plus the root's add up to the operation's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import bosesemi

MODULES = ("actions", "cli", "meanfield", "model", "quad", "quantize", "quantum",
           "roots", "special", "tridiag", "wavefun")
ROOT = "bench"


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent, op, layer, name, t0, t1)
        self.ops = []              # (op, name, t0, t1)
        self.self_s = defaultdict(float)
        self.calls = Counter()     # layer -> calls of its public functions
        self.calls_by_name = Counter()
        self.quad_nodes = 0
        self.quad_evals = 0
        self.quad_max_nodes = 0
        self.quartic_calls = 0
        self.quartic_distinct = 0  # summed per operation
        self._coeffs = set()
        self._stack = []           # [id, t0, child time]
        self._next = 0
        self._op = -1
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"bosesemi.{name}") for name in MODULES}
        owner = {}
        for layer, mod in modules.items():
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    owner[id(fn)] = (layer, name)
        sites = [(ROOT, bosesemi)] + list(modules.items())
        for site, mod in sites:
            for attr, val in list(vars(mod).items()):
                if id(val) in owner and inspect.isfunction(val):
                    layer, name = owner[id(val)]
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, self._wrap(val, layer, name, site))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, fn, layer, name, site):
        call = self._call
        if (layer, name) == ("quad", "turning_point_integral"):
            integrand = self._integrand

            def wrapper(f, *args, **kw):
                return call(fn, layer, name, (integrand(f, site),) + args, kw)
        elif (layer, name) == ("roots", "quartic_roots"):
            coeffs = self._coeffs

            def wrapper(*args, **kw):
                coeffs.add(tuple(float(x) for x in args))
                return call(fn, layer, name, args, kw)
        else:
            def wrapper(*args, **kw):
                return call(fn, layer, name, args, kw)
        return functools.wraps(fn)(wrapper)

    def _integrand(self, f, layer):
        def traced(pts):
            n = getattr(pts, "size", 1)
            self.quad_nodes += n
            self.quad_evals += 1
            if n > self.quad_max_nodes:
                self.quad_max_nodes = n
            return self._call(f, layer, "integrand", (pts,), {}, count=False)
        return traced

    # -- spans --------------------------------------------------------------

    def _call(self, fn, layer, name, args, kw, count=True):
        frame = [self._next, time.perf_counter(), 0.0]
        self._next += 1
        self._stack.append(frame)
        try:
            return fn(*args, **kw)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - frame[1]
            parent = self._stack[-1]
            parent[2] += dur
            self.self_s[layer] += dur - frame[2]
            if count:
                self.calls[layer] += 1
                self.calls_by_name[(layer, name)] += 1
            self.spans.append((frame[0], parent[0], self._op, layer, name, frame[1], t1))

    def run_op(self, name, fn):
        """Run one operation as a root span; returns (output, exception,
        seconds)."""
        self._op += 1
        self._coeffs.clear()
        before = self.calls_by_name[("roots", "quartic_roots")]
        frame = [self._next, time.perf_counter(), 0.0]
        self._next += 1
        self._stack.append(frame)
        out = err = None
        try:
            out = fn()
        except Exception as exc:  # a failed operation is recorded, not fatal
            err = exc
        t1 = time.perf_counter()
        self._stack.pop()
        self.self_s[ROOT] += (t1 - frame[1]) - frame[2]
        self.spans.append((frame[0], None, self._op, ROOT, name, frame[1], t1))
        self.ops.append((self._op, name, frame[1], t1))
        self.quartic_calls += self.calls_by_name[("roots", "quartic_roots")] - before
        self.quartic_distinct += len(self._coeffs)
        return out, err, t1 - frame[1]

    # -- results ------------------------------------------------------------

    def metrics(self, levels):
        """Per-layer metrics, per operation unless the name says otherwise."""
        n = max(len(self.ops), 1)
        op_s = sum(t1 - t0 for _, _, t0, t1 in self.ops)
        by = self.calls_by_name
        m = {}
        for layer in ("tridiag", "roots", "quad", "actions", "special", "meanfield",
                      "wavefun", "cli"):
            m[f"{layer}.calls"] = (self.calls[layer] / n, "count")
        for layer in ("tridiag", "quantum", "roots", "quad", "actions", "special",
                      "meanfield", "quantize", "wavefun", "cli"):
            m[f"{layer}.self_s"] = (self.self_s[layer] / n, "s")
        m["roots.distinct_ratio"] = (self.quartic_distinct / max(self.quartic_calls, 1), "ratio")
        m["quad.nodes"] = (self.quad_nodes / n, "count")
        m["quad.evals_per_call"] = (self.quad_evals / max(self.calls["quad"], 1), "ratio")
        m["quad.max_nodes"] = (self.quad_max_nodes, "count")
        m["quantize.double_calls"] = (by[("quantize", "quantize_double")] / n, "count")
        m["quantize.single_calls"] = (by[("quantize", "quantize_single")] / n, "count")
        m["quantize.evals_per_level"] = (by[("actions", "lobe_phases")] / max(levels, 1), "ratio")
        m["trace.op_s"] = (op_s / n, "s")
        m["trace.unattributed_s"] = (self.self_s[ROOT] / n, "s")
        return m

    def layer_sum(self):
        """(sum of all self times, sum of operation wall times)."""
        return (sum(self.self_s.values()),
                sum(t1 - t0 for _, _, t0, t1 in self.ops))

    def write(self, path, meta):
        t_ref = self.ops[0][2] if self.ops else 0.0

        def rel(t):
            return round(t - t_ref, 7)

        doc = dict(meta)
        doc["ops"] = [[op, name, rel(t0), rel(t1)] for op, name, t0, t1 in self.ops]
        doc["span_fields"] = ["id", "parent", "op", "layer", "name", "t0", "t1"]
        doc["spans"] = [[i, p, op, layer, name, rel(t0), rel(t1)]
                        for i, p, op, layer, name, t0, t1 in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
