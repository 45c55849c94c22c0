"""Per-layer tracing from outside the library.

The layers are the modules of ``interlace``.  :class:`Tracer` replaces
every function that one module imports from another (``select``'s
``kth_largest_root``, not ``poly``'s own) with a wrapper that opens a span
when the call crosses into another layer, so spans sit exactly at layer
boundaries.  ``Polynomial`` arithmetic is counted and timed without spans:
the ring products inside ``mixed_char`` make too many calls to keep a span
each.  Methods of other classes are not wrapped; their time counts toward
the calling layer.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "select", "mixedchar", "matrices", "poly", "graphs", "barrier")
ARITH = ("__add__", "__sub__", "__mul__", "__rmul__", "derivative")


def _is_exact(matrix) -> bool:
    exact = getattr(matrix, "is_exact", None)
    return bool(exact) if exact is not None else getattr(matrix, "dtype", None) == object


# Extra counters, updated after a wrapped call returns.
def _count_char_poly(tr, args):
    tr.counts["matrices.char_poly.exact_calls"] += _is_exact(args[0])


def _count_batch(tr, args):
    tr.counts["matrices.charpoly_batch.mats"] += len(args[0])


def _count_outcomes(tr, args):
    tr.counts["mixedchar.expected.outcomes"] += math.prod(len(r.support) for r in args[1])


COUNTERS = {"matrices.char_poly": _count_char_poly,
            "matrices.charpoly_batch": _count_batch,
            "mixedchar._expected_char_with_base": _count_outcomes}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, parent index, start, end, instance]
        self.counts = Counter()  # calls per wrapped name, plus COUNTERS
        self.self_s = defaultdict(float)        # by span name
        self.layer_self_s = defaultdict(float)  # by layer
        self.arith_calls = 0
        self.arith_s = 0.0
        self.root_s = 0.0        # time inside root spans
        self.instance = None
        self._stack = []         # open span indices
        self._child_s = []       # child time of each open span
        self._arith_depth = 0
        self._patches = []

    def start(self, instance: str):
        """Tag the spans that follow; drop state a wall-cap interrupt left open."""
        self.instance = instance
        self._stack.clear()
        self._child_s.clear()
        self._arith_depth = 0

    # -- installation -------------------------------------------------

    def install(self):
        for importer in LAYERS:
            mod = importlib.import_module(f"interlace.{importer}")
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                pkg, _, owner = obj.__module__.rpartition(".")
                if pkg == "interlace" and owner in LAYERS and owner != importer:
                    name = f"{owner}.{obj.__name__}"
                    self._patch(mod, attr, self.wrap(obj, owner, name, importer))
        poly_cls = importlib.import_module("interlace.poly").Polynomial
        for attr in ARITH:
            self._patch(poly_cls, attr, self._wrap_arith(vars(poly_cls)[attr]))
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------

    def wrap(self, fn, layer: str, name: str, importer: str):
        """``fn`` with a span whenever the call enters ``layer`` from another.

        Calls are counted under ``name`` and under ``name@importer``.
        """
        tracer, counter, site = self, COUNTERS.get(name), f"{name}@{importer}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[name] += 1
            tracer.counts[site] += 1
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][1] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(fn, layer, name, args, kwargs)
            if counter is not None:
                counter(tracer, args)
            return result
        return traced

    def _span(self, fn, layer, name, args, kwargs):
        rec = [name, layer, self._stack[-1] if self._stack else -1, 0.0, 0.0,
               self.instance]
        self._stack.append(len(self.spans))
        self._child_s.append(0.0)
        self.spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
            own = rec[4] - rec[3]
            mine = own - self._child_s.pop()
            self.self_s[name] += mine
            self.layer_self_s[layer] += mine
            if self._child_s:
                self._child_s[-1] += own
            else:
                self.root_s += own

    def _wrap_arith(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args):
            tracer.arith_calls += 1
            if tracer._arith_depth:
                return fn(*args)
            tracer._arith_depth = 1
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                tracer.arith_s += time.perf_counter() - t0
                tracer._arith_depth = 0
        return counted

    # -- results ------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, layer, parent, t0, t1, inst in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "parent": parent,
                                     "start": t0, "end": t1, "instance": inst}) + "\n")

    def metrics(self, traced_wall: float, untraced_s: float, traced_s: float,
                exits: Counter) -> dict:
        """The per-layer metrics named in BENCHMARK.json.

        Shares divide by the traced pass's wall; the overhead compares the
        two passes' time in ``main()`` at reference speed, since the host
        may change speed between them.
        """
        c, s, ls = self.counts, self.self_s, self.layer_self_s
        m = {
            "poly.real_roots.calls": c["poly.real_roots"] + c["poly.kth_largest_root"],
            "poly.real_roots.self_s": s["poly.real_roots"] + s["poly.kth_largest_root"],
            "poly.shift.calls": c["poly.apply_shift_operator"],
            "poly.shift.self_s": s["poly.apply_shift_operator"],
            "poly.arith.calls": self.arith_calls,
            "poly.arith.s": self.arith_s,
            "matrices.char_poly.calls": c["matrices.char_poly"],
            "matrices.char_poly.exact_calls": c["matrices.char_poly.exact_calls"],
            "matrices.char_poly.self_s": s["matrices.char_poly"],
            "matrices.charpoly_batch.mats": c["matrices.charpoly_batch.mats"],
            "matrices.charpoly_batch.self_s": s["matrices.charpoly_batch"],
            "matrices.charpoly_batch.mats_per_s":
                c["matrices.charpoly_batch.mats"] / s["matrices.charpoly_batch"]
                if s["matrices.charpoly_batch"] > 0 else 0.0,
            "mixedchar.expected.calls": c["mixedchar._expected_char_with_base"]
                + c["mixedchar.expected_char_poly"],
            "mixedchar.expected.outcomes": c["mixedchar.expected.outcomes"],
            "mixedchar.expected.self_s": s["mixedchar._expected_char_with_base"]
                + s["mixedchar.expected_char_poly"],
            "mixedchar.mixed_char.calls": c["mixedchar.mixed_char"],
            "mixedchar.mixed_char.self_s": s["mixedchar.mixed_char"],
            "graphs.matching_poly.calls": c["graphs.matching_poly"],
            "select.children": c["poly.kth_largest_root@select"],
            "barrier.calls": sum(v for k, v in c.items()
                                 if k.startswith("barrier.") and "@" not in k),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = ls[layer]
            m[f"{layer}.share"] = ls[layer] / traced_wall
        for code in ("0", "1", "2", "3", "4", "cap", "wrong", "exception"):
            m[f"cli.exit.{code}"] = exits[code]
        m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        return m
