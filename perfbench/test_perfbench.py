"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that the tracing shims count what the library itself records.
"""
from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@functools.lru_cache(maxsize=None)
def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=175, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def spec_units(key: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, key):
    text, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = spec_units(key)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for name, unit in want.items():
        line = next(ln for ln in text.splitlines() if ln.split()[:1] == [name])
        assert unit in line.split()


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert {w["name"] for w in json.load(fh)["workloads"]} == set(workloads.WORKLOADS)
    assert set(spec_units("per_layer")) == set(tracing.metric_names())


def test_bruteforce_calls_equal_op_count():
    _, result = run_bench("consistency_pool", 1)
    assert result["metrics"]["offline.opt_bruteforce.calls"]["value"] == result["attempted"]


def test_step_calls_cover_policy_batches():
    from oltsp import engine, harness

    inst = harness.generate_one(
        harness.SweepSpec(space="ring", variant="open", n=6, count=1, seed=3), 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, policy = engine.la_swag(inst)
    finally:
        tracer.uninstall()
    batches = policy.oracle.batches
    assert tracer.spans["oracles.step"][0] >= len(batches) > 0
    assert tracer.counts["oracles.batch_perms"] == sum(b.batch_size for b in batches)
    assert tracer.counts["oracles.new_perms"] == sum(b.new_perms for b in batches)


def test_uninstall_restores_every_name():
    from oltsp import offline, oracles, spaces

    def current():
        return (offline.exact_path, oracles.exact_path, spaces.Ring.distance,
                oracles.DominationOracle.step, offline.TreeIndex.span)

    before = current()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the oracle module's own name for exact_path is shimmed, not only offline's
        assert all(a is not b for a, b in zip(current(), before))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(current(), before))
