"""Span tracer that wraps the package's public functions from outside.

Every public function of each layer module (plus `PolyField.membership_residual`)
is replaced by a wrapper in every `diraclab` namespace that holds it, so the
wrapper is found wherever callers look the name up; `remove()` puts the
originals back.  Private names are never touched.

A span has a name, start, end and parent.  Self time is the span's duration
minus the time its child spans cover.  Spans are aggregated per
(name, parent name); raw spans are kept only up to `RAW_CAP` per key, so
functions called hundreds of thousands of times (`make_field`, `nabla`) cost
bounded memory.
"""

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("clifford", "weyl", "tensoridx", "fields", "dirac_ops", "symbols",
          "solver", "boundary", "cli")
METHODS = (("fields", "PolyField", "membership_residual"),)
RAW_CAP = 10_000


class Tracer:
    def __init__(self, package):
        self.package = package
        # frame: [name, start, child_seconds, span_id]
        self.stack = []
        self.agg = {}      # (name, parent) -> [calls, total_s, self_s]
        self.spans = []    # (id, name, parent_id, start, end)
        self.counters = {}
        self._next_id = 1
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if rec[0] <= RAW_CAP:
            self.spans.append((span_id, name, parent[3] if parent else None,
                               start, end))

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(frame)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
        return traced

    def install(self, hooks=None):
        hooks = hooks or {}
        namespaces = [m for key, m in sys.modules.items()
                      if key == self.package.__name__
                      or key.startswith(self.package.__name__ + ".")]
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(obj, module):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, hooks.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patches.append((ns, key, val))
                            setattr(ns, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(self.package, layer), cls_name)
            original = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, hooks.get(name)))

    def remove(self):
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, inclusive_s, self_s], summed over parents."""
        out = {}
        for (name, _), (calls, total, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def dump(self):
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.agg.items(),
                                                key=lambda kv: -kv[1][2])
            ],
            "raw_span_cap_per_key": RAW_CAP,
            "spans": self.spans,
            "counters": self.counters,
        }


def _is_traceable(obj, module):
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    # lru_cache wrappers are not plain functions but are public entry points
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info")
                                       and not inspect.isclass(obj))
