"""Benchmark of the oltsp library: instances verified per second, and the
latency of one instance, on four workloads modelled on ``oltsp sweep``,
``oltsp run`` and ``oltsp fixture``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run builds a fixed op list from the
seed (its length set by ``--seconds`` at a nominal rate, never by a clock),
runs it single-threaded in a fresh process and checks every op's output.
Times are wall times scaled by the host's speed at that moment (see
``worker.REFERENCE_S``), so that a shared host's slow phases do not move
them.
It prints one line per metric with its unit and sample count, then, as the
last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``.  Workloads: see
``workloads.py`` and ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes per run; setup_s is their median
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, n_ops: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    # single-threaded numpy, and set/dict orders that repeat from run to run
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--ops", str(n_ops), "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the {TIME_LIMIT_S:.0f} s limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """90, or below 100 samples the highest percentile with ten samples beyond it."""
    return 90.0 if n >= 100 else max(50.0, 100.0 * (n - 10) / n)


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat = sorted(res["latencies_s"])
    n = len(lat)
    tail = tail_percentile(n)
    values = {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": percentile(lat, 50.0) * 1e3,
        "op_p90_ms": percentile(lat, tail) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"{n} ops; {n / res['wall_s']:.4g}/s in unscaled wall time",
        "op_p50_ms": f"p50 of {n} ops",
        "op_p90_ms": f"p{tail:.4g} of {n} ops",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "measured process",
    }
    lines = [f"  {k:<12} {v:12.4f} {END_TO_END_UNITS[k]:<4} ({notes[k]})" for k, v in values.items()]
    lines.append(f"  {'fail_rate':<12} {res['failed'] / n:12.4f} {'':<4} ({res['failed']} of {n} ops)")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    layers = res["layers"]
    metrics = {k: {"value": layers[k], "unit": layer_unit(k)} for k in tracing.metric_names()}
    lines = [f"  {k:<36} {m['value']:14.4f} {m['unit']}" for k, m in metrics.items()]
    n = res["attempted"]
    lines.append(f"  {'fail_rate':<36} {res['failed'] / n:14.4f} ({res['failed']} of {n} traced ops)")
    return metrics, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="oltsp benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "oltsp", "__init__.py")):
        print(f"error: library source src/oltsp not found under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    n_ops = workload.op_count(args.seconds)
    mode = "trace" if args.trace else "measure"
    try:
        setups = [run_worker(args.workload, args.seed, n_ops, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args.workload, args.seed, n_ops, mode, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        metrics, lines = per_layer(res)
        attempted = res["attempted"]
    else:
        metrics, lines = end_to_end(res, setups)
        attempted = len(res["latencies_s"])
    print(f"workload {args.workload} seed {args.seed} ops {attempted} "
          f"({'traced' if args.trace else 'untraced'}) digest {res['digest']}")
    print("\n".join(lines))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": attempted,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
