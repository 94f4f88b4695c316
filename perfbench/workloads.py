"""The benchmark's workloads.  Each is a fixed list of ops built from a seed;
an op is one instance run through the public library and verified.

The library is imported inside the builders, never at module import, so a
worker process can time its first import as part of set-up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

SMOOTHNESS_ETAS = [0.05, 0.1, 0.25, 0.5, 1.0]  # acceptance criterion 2's levels
GENERAL_ETA = 0.25


@dataclass
class Op:
    label: str
    run: Callable[[], Any]  # the timed part; returns the outputs to check
    check: Callable[[Any], tuple[bool, list[float]]]  # (passed, values for the digest)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # ops in one round of the family/variant mix
    rate: float  # ops per second that sizes the list from --seconds
    build: Callable[[int, int], list[Op]]  # (seed, number of ops) -> ops
    warmup: Callable[[], Op]  # one op that does not depend on the seed

    def op_count(self, seconds: float) -> int:
        """Whole rounds of the mix, about ``seconds`` long at the nominal rate.
        The list never depends on a clock, so every run of a seed does the
        same work."""
        return self.cycle * max(1, round(seconds * self.rate / self.cycle))


def op_seed(seed: int, k: int) -> int:
    return seed * 100_000 + k


def _mix_workload(name: str, combos: list[tuple[str, str]], rate: float,
                  make_op: Callable[[str, str, int], Op]) -> Workload:
    """Op k runs combo k mod len(combos) on an instance from op_seed(seed, k)."""

    def build(seed, count):
        return [make_op(*combos[k % len(combos)], op_seed(seed, k)) for k in range(count)]

    return Workload(name, len(combos), rate, build, lambda: make_op(*combos[0], op_seed(0, 0)))


# ---------------------------------------------------------------------------
# Sweep ops: `oltsp sweep` with one pinned-n instance
# ---------------------------------------------------------------------------

def sweep_op(family: str, variant: str, n: int, etas: list[float], seed: int) -> Op:
    from oltsp import harness

    # count=1 pins n (generate_one draws n from 0..n otherwise)
    spec = harness.SweepSpec(space=family, variant=variant, n=n, count=1,
                             eta=list(etas), seed=seed)

    def run():
        return harness.sweep(spec)

    def check(out):
        rows, violations, skipped = out  # a skipped eta counts as a refused op
        passed = not violations and not skipped and len(rows) == len(etas)
        return passed, [x for r in rows for x in (r.alg, r.opt)]

    return Op(f"sweep {family}/{variant} n={n} seed={seed}", run, check)


# ---------------------------------------------------------------------------
# General-metric ops: `oltsp run` (perturb, then LA-SWAG; no OPT)
# ---------------------------------------------------------------------------

def general_op(family: str, variant: str, n: int, seed: int) -> Op:
    import numpy as np
    from oltsp import engine, harness, offline

    inst = harness.generate_one(
        harness.SweepSpec(space=family, variant=variant, n=n, count=1, seed=seed), 0)

    def run():
        rng = np.random.default_rng(seed)
        trial = harness.perturb_predictions(inst, GENERAL_ETA, rng, clip=True)
        result, _policy = engine.la_swag(trial)
        return trial, result

    def check(out):
        trial, result = out
        F = offline.shortest_serving_path_length(trial)
        last = max(r.release for r in trial.requests)
        tol = 1e-9 * max(1.0, F, last)
        served = result.served_at
        passed = (
            sorted(served) == list(range(trial.n))
            and all(served[r.id] >= r.release - tol for r in trial.requests)
            and result.completion_time >= max(F, last) - tol
        )
        return passed, [result.completion_time]

    return Op(f"run {family}/{variant} n={n} seed={seed}", run, check)


# ---------------------------------------------------------------------------
# Fixture ops: `oltsp fixture`, including the adaptive adversaries
# ---------------------------------------------------------------------------

def fixture_op(name: str, params: dict) -> Op:
    from oltsp import fixtures

    def run():
        return fixtures.run_fixture(name, **params)

    def check(report):
        return report.passed, [report.alg, report.opt]

    return Op(f"fixture {name} {params}", run, check)


def _fixture_build(seed: int, count: int) -> list[Op]:
    """Rounds of every fixture at its defaults plus the grid-41 line
    adversary.  The fixtures take no random input; the seed only shuffles
    the order within each round."""
    import numpy as np
    from oltsp import fixtures

    base = [(name, {}) for name in fixtures.FIXTURES] + [("open_lb_line_adversary", {"grid": 41})]
    ops = []
    for r in range(math.ceil(count / len(base))):
        order = np.random.default_rng([seed, r]).permutation(len(base))
        ops += [fixture_op(*base[i]) for i in order]
    return ops[:count]


# ---------------------------------------------------------------------------

# Flower/open is left out of the consistency pool: at n=9 its policy takes
# 0.1-0.4 s per instance against about 0.06 s for OPT, so it would swamp the
# OPT share and put the tail on a handful of instances per run.
# smoothness_open covers it.
CONSISTENCY_COMBOS = [(f, v) for f in ("line", "tree", "ring", "flower") for v in ("closed", "open")
                      if (f, v) != ("flower", "open")]
SMOOTHNESS_COMBOS = [(f, "open") for f in ("tree", "ring", "flower")]
GENERAL_COMBOS = [(f, v) for f in ("general", "euclid2d") for v in ("closed", "open")]

# Nominal rates: ops per second on a 2-core x86-64 Linux box, Python 3.11.
WORKLOADS = {
    w.name: w
    for w in [
        _mix_workload("consistency_pool", CONSISTENCY_COMBOS, 11.5,
                      lambda f, v, s: sweep_op(f, v, 9, [0.0], s)),
        _mix_workload("smoothness_open", SMOOTHNESS_COMBOS, 17.0,
                      lambda f, v, s: sweep_op(f, v, 5, SMOOTHNESS_ETAS, s)),
        _mix_workload("general_n9", GENERAL_COMBOS, 5.2, lambda f, v, s: general_op(f, v, 9, s)),
        Workload("adaptive_line", 7, 3.2, _fixture_build,
                 lambda: fixture_op("open_lb_line_adversary", {})),
    ]
}
