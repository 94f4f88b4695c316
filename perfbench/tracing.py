"""Per-layer tracing shims for the benchmark's traced runs.

A :class:`Tracer` swaps wrappers into the ``oltsp`` library at run time and
takes them out again; an untraced run never installs one.  Modules import
their helpers by name (``from .offline import exact_path``), so a function
is replaced under every name that refers to it in any loaded ``oltsp``
module, and a method is replaced on its class.

Spans are aggregated as they close: per layer, the number of calls and the
self time (span duration minus the time covered by its child spans).
"""
from __future__ import annotations

import importlib
import sys
import time
import weakref
from collections import defaultdict

# (metric name, module, function) for free functions
FUNCTION_SPANS = [
    ("offline.opt_bruteforce", "offline", "opt_bruteforce"),
    ("offline.exact_path", "offline", "exact_path"),
    ("offline.ring_cover", "offline", "ring_cover"),
    ("offline.segment_cover", "offline", "segment_cover"),
    ("offline.flower_cover", "offline", "flower_cover"),
    ("offline.solve_classical", "offline", "solve_classical"),
    ("engine.la_swag", "engine", "la_swag"),
    ("core.prediction_error", "core", "prediction_error"),
    ("harness.perturb_predictions", "harness", "perturb_predictions"),
    ("harness.sweep", "harness", "sweep"),
    ("fixtures.run_fixture", "fixtures", "run_fixture"),
]

# (metric name, module, class, method)
METHOD_SPANS = [
    ("offline.TreeIndex.span", "offline", "TreeIndex", "span"),
    ("offline.TreeIndex.path_cover", "offline", "TreeIndex", "path_cover"),
    ("oracles.step", "oracles", "DominationOracle", "step"),
    ("engine.decide", "engine", "LaSwagPolicy", "decide"),
    ("core.Simulation.run", "core", "Simulation", "run"),
]

# Counted, not timed: a span's two clock reads would cost about as much as
# one of these calls.
SPACE_CLASSES = ("Line", "Euclid2D", "Ring", "Tree", "Flower", "General")
METHOD_COUNTS = (
    [("spaces.distance", "spaces", c, "distance") for c in SPACE_CLASSES]
    + [("spaces.move_along", "spaces", c, "move_along") for c in SPACE_CLASSES]
    + [("fixtures.adversary_step", "fixtures", c, "step")
       for c in ("SmoothnessAdversary", "LineReleaseAdversary")]
)

LAYER_MODULES = ("core", "engine", "fixtures", "harness", "offline", "oracles", "spaces")

COUNTS = ["oracles.batch_perms", "oracles.new_perms", "core.events"]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    return list(Tracer().metrics(0.0))


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, self seconds
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []  # child time of each open span
        self._undo: list[tuple] = []
        self._batches_seen = weakref.WeakKeyDictionary()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        stats, stack = self.spans[name], self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt - child
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_step(self, args, _out):
        # DominationOracle.step appends one BatchRecord per non-repeat query
        oracle = args[0]
        seen = self._batches_seen.get(oracle, 0)
        for rec in oracle.batches[seen:]:
            self.counts["oracles.batch_perms"] += rec.batch_size
            self.counts["oracles.new_perms"] += rec.new_perms
        self._batches_seen[oracle] = len(oracle.batches)

    def _after_run(self, _args, result):
        self.counts["core.events"] += len(result.trajectory)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod in LAYER_MODULES:
            importlib.import_module(f"oltsp.{mod}")
        lib = {name: sys.modules[name] for name in list(sys.modules)
               if name == "oltsp" or name.startswith("oltsp.")}
        for metric, mod, fn_name in FUNCTION_SPANS:
            orig = getattr(lib[f"oltsp.{mod}"], fn_name)
            wrapper = self._span(metric, orig)
            for module in lib.values():
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._undo.append((module, attr, orig))
                        setattr(module, attr, wrapper)
        after = {"oracles.step": self._after_step, "core.Simulation.run": self._after_run}
        for metric, mod, cls_name, meth in METHOD_SPANS:
            cls = getattr(lib[f"oltsp.{mod}"], cls_name)
            orig = vars(cls)[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._span(metric, orig, after.get(metric)))
        for metric, mod, cls_name, meth in METHOD_COUNTS:
            cls = getattr(lib[f"oltsp.{mod}"], cls_name)
            orig = vars(cls)[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._count(f"{metric}.calls", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- report --------------------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in [s[0] for s in FUNCTION_SPANS + METHOD_SPANS]:
            calls, self_s = self.spans[span]
            out[f"{span}.calls"] = calls
            out[f"{span}.self_ms"] = self_s * 1e3
        for name in COUNTS:
            out[name] = self.counts[name]
        emitted = self.counts["oracles.batch_perms"]
        out["oracles.new_perm_ratio"] = self.counts["oracles.new_perms"] / emitted if emitted else 0.0
        for name in sorted({f"{c[0]}.calls" for c in METHOD_COUNTS}):
            out[name] = self.counts[name]
        out["trace.overhead_pct"] = overhead_pct
        return out
