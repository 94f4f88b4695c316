"""One benchmark process: set up a workload, then run its op list once.

    python3 perfbench/worker.py --workload NAME --seed N --ops N --mode MODE

MODE is ``setup`` (set up and stop), ``measure`` (run every op untraced) or
``trace`` (run each op of the first half of the list untraced, then
traced).
Prints one JSON object on stdout.  ``run.py`` starts a fresh worker for each
set-up sample and for the measured run, so none inherits another's caches.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


# Shared hosts change speed by up to 2x for seconds at a time, which moves a
# run's wall times by more than the benchmark's bounds.  Every time reported
# is therefore wall time scaled by the host's speed at that moment: fixed
# pure-Python reference work, which never calls the library, is timed just
# before and after each timed call, and the call's wall time is multiplied
# by REFERENCE_S over the reference's mean duration.
REFERENCE_S = 0.005


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def dist(self, other):
        return abs(self.x - other.x) + abs(self.y - other.y)


def _reference_work() -> None:
    for _ in range(8):
        pts = [_Point(i * 0.37 % 5.0, i * 0.91 % 3.0) for i in range(60)]
        memo, heap = {}, []
        for i, a in enumerate(pts):
            for j in range(i + 1, 60, 3):
                d = a.dist(pts[j])
                memo[(i, j)] = d
                heapq.heappush(heap, (d, i, j))
        order = sorted(memo.items(), key=lambda kv: kv[1])
        [heapq.heappop(heap) for _ in range(100)]
        frozenset(k for k, _ in order[:50])


def reference_s() -> float:
    gc.disable()  # the library's heap must not slow the reference down
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostClock:
    """Times calls in wall seconds and in host-speed-scaled seconds."""

    def __init__(self):
        self._before = reference_s()

    def time(self, fn):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = reference_s()
        scaled = wall * REFERENCE_S / ((self._before + after) / 2.0)
        self._before = after
        return out, wall, scaled


def set_up(workload: workloads.Workload, seed: int, n_ops: int):
    """Import, instance generation and one warm-up op; the warm-up fills
    the library's per-process caches (``offline._PERM_CACHE``).  Returns
    the ops and the scaled set-up time."""

    def work():
        import oltsp  # noqa: F401  first import of the library

        ops = workload.build(seed, n_ops)
        workload.warmup().run()
        return ops

    ops, _, scaled = HostClock().time(work)
    return ops, scaled


def _check(op: workloads.Op, out) -> tuple[bool, list[float]]:
    if out is None:
        return False, []
    try:
        return op.check(out)
    except Exception:
        print(f"check failed: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
        return False, []


def _guarded(op: workloads.Op):
    def run():
        try:
            return op.run()
        except Exception:
            print(f"op raised: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
            return None

    return run


class Digest:
    """Completion times and OPT values, to 9 significant digits, in op order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, values: list[float]) -> None:
        self._h.update((";".join(f"{v:.9g}" for v in values) + "\n").encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def measure(ops: list[workloads.Op]) -> dict:
    clock = HostClock()
    latencies, wall_total, failed, digest = [], 0.0, 0, Digest()
    for op in ops:
        out, wall, scaled = clock.time(_guarded(op))
        latencies.append(scaled)
        wall_total += wall
        passed, values = _check(op, out)
        failed += not passed
        digest.add(values)
    return {"latencies_s": latencies, "wall_s": wall_total, "failed": failed,
            "digest": digest.hexdigest()}


def trace(ops: list[workloads.Op]) -> dict:
    """Each op untraced, then traced; the overhead compares scaled times."""
    clock = HostClock()
    tracer = tracing.Tracer()
    plain = traced = 0.0
    failed, digest = 0, Digest()
    for op in ops:
        plain += clock.time(_guarded(op))[2]
        tracer.install()
        try:
            out, _, scaled = clock.time(_guarded(op))
        finally:
            tracer.uninstall()
        traced += scaled
        passed, values = _check(op, out)
        failed += not passed
        digest.add(values)
    overhead_pct = 100.0 * (traced - plain) / plain
    return {"layers": tracer.metrics(overhead_pct), "attempted": len(ops),
            "failed": failed, "digest": digest.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    ops, setup_s = set_up(workload, args.seed, args.ops)
    out: dict = {"setup_s": setup_s}
    if args.mode == "measure":
        out.update(measure(ops))
    elif args.mode == "trace":
        # untraced and traced in turn: half the list keeps the run as long as a measured one
        half = workload.cycle * max(1, len(ops) // workload.cycle // 2)
        out.update(trace(ops[:half]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
