"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.
"""
import itertools
import math
import random

import numpy as np
import pytest

from oltsp.core import Instance, Request, prediction_error, route_stats, simulate
from oltsp.engine import EngineConfig, LaSwagPolicy, la_swag, la_swag_policy
from oltsp.fixtures import (
    OPEN_LINE_LB,
    open_lb_line_adversary,
    remark_2_5_closed_line,
    remark_8_3_open_line,
    smoothness_lb_graph,
)
from oltsp.harness import SweepSpec, adversarial_predictions, ceiling, generate, perturb_predictions
from oltsp.offline import (
    CLOSED,
    FREE,
    PathQuery,
    eval_serving_order,
    flower_tsp,
    held_karp,
    opt_bruteforce,
    ring_tsp,
    shortest_serving_path_length,
    solve_classical,
    tree_tsp,
)
from oltsp.oracles import make_oracle
from sensible import (
    sensible_flower_perms,
    sensible_ring_perms,
    sensible_tree_open_perms,
    sensible_tree_perms,
)
from oltsp.spaces import Euclid2D, Flower, Line, Ring, Tree

from conftest import random_flower, random_general, random_point, random_space, random_tree

POOL_SIZE = 500
POOLS = {
    "general": dict(n=7),
    "tree": dict(n=9, leaves=4),
    "ring": dict(n=9),
    "flower": dict(n=9, petals=2),
}
ETAS = [0.05, 0.1, 0.25, 0.5, 1.0]

_pool_cache: dict = {}


def _pool(family: str, variant: str):
    key = (family, variant)
    if key not in _pool_cache:
        spec = SweepSpec(space=family, count=POOL_SIZE, seed=2024, variant=variant,
                         **POOLS[family])
        instances = generate(spec)
        opts = [opt_bruteforce(inst).length for inst in instances]
        _pool_cache[key] = (instances, opts)
    return _pool_cache[key]


def _ratio(alg: float, opt: float) -> float:
    if opt <= 1e-12:
        assert alg <= 1e-9
        return 1.0
    return alg / opt


def test_criterion_1_consistency():
    worst = 0.0
    runs = 0
    for family in POOLS:
        for variant in ("closed", "open"):
            instances, opts = _pool(family, variant)
            for inst, opt in zip(instances, opts):
                res = la_swag_policy(inst)
                r = _ratio(res.completion_time, opt)
                worst = max(worst, r)
                runs += 1
                assert r <= 1.5 + 1e-9, (family, variant, inst.to_json(), r)
    print(f"\ncriterion 1 (consistency <= 3/2): PASS  max ratio {worst:.9f} over {runs} runs")


def test_criterion_2_smoothness():
    worst_excess = -math.inf
    runs = 0
    for family in POOLS:
        for variant in ("closed", "open"):
            instances, opts = _pool(family, variant)
            for idx, (inst, opt) in enumerate(zip(instances, opts)):
                if inst.n == 0:
                    continue
                for eta in ETAS:
                    rng = np.random.default_rng([7, idx, int(eta * 100)])
                    try:
                        trial = perturb_predictions(inst, eta, rng, clip=True)
                    except ValueError:
                        continue
                    achieved = prediction_error(trial)
                    res = la_swag_policy(trial)
                    r = _ratio(res.completion_time, opt)
                    bound = 1.5 + 5.0 * achieved
                    worst_excess = max(worst_excess, r - bound)
                    runs += 1
                    assert r <= bound + 1e-6, (family, variant, idx, eta, achieved, r)
    print(f"\ncriterion 2 (smoothness <= 3/2 + 5 eta): PASS  max excess {worst_excess:.3e} over {runs} runs")


def test_criterion_3_robustness_ceilings():
    per_instance = 50
    count = 24
    worst: dict = {}
    for family in ("general", "euclid2d", "tree", "ring", "flower"):
        for variant in ("closed", "open"):
            spec = SweepSpec(space=family, count=count, n=6, seed=555, variant=variant,
                             leaves=4, petals=2)
            cap = ceiling(family, variant)
            for idx, inst in enumerate(generate(spec)):
                if inst.n == 0:
                    continue
                opt = opt_bruteforce(inst).length
                if opt <= 1e-12:
                    continue
                worst_ratio = 0.0
                for k in range(per_instance):
                    rng = np.random.default_rng([3, idx, k])
                    trial = adversarial_predictions(inst, rng)
                    res = la_swag_policy(trial)
                    worst_ratio = max(worst_ratio, res.completion_time / opt)
                key = (family, variant)
                worst[key] = max(worst.get(key, 0.0), worst_ratio)
                assert worst_ratio <= cap + 1e-6, (family, variant, idx, worst_ratio, cap)
                assert worst_ratio <= 3.0 + 1e-6
    summary = "; ".join(f"{f}/{v}:{worst[(f, v)]:.3f}<= {ceiling(f, v):.3f}" for f, v in sorted(worst))
    print(f"\ncriterion 3 (robustness ceilings): PASS  {summary}")


def test_criterion_4_tightness_fixtures():
    r1 = remark_2_5_closed_line()
    assert r1.passed, r1
    r2 = remark_8_3_open_line()
    assert r2.passed, r2
    print(f"\ncriterion 4 (tightness fixtures): PASS  closed {r1.ratio:.9f}==2.5, open {r2.ratio:.9f}==8/3")


def test_criterion_5_adaptive_lower_bounds():
    parts = []
    for eta in (0.0, 0.1, 0.2, 1.0 / 3.0):
        rep = smoothness_lb_graph(eta=eta)
        assert rep.passed, rep
        parts.append(f"eta={eta:.3g}:{rep.ratio:.4f}>={rep.expected:.4f}")
    rep = open_lb_line_adversary(grid=21)
    assert rep.passed, rep
    parts.append(f"line:{rep.ratio:.4f}>={OPEN_LINE_LB:.4f}")
    print(f"\ncriterion 5 (adaptive lower bounds): PASS  {'; '.join(parts)}")


def _safe_set(kind, space, locs, variant):
    n = len(locs)
    if kind in ("general", "euclid2d"):
        return list(itertools.permutations(range(n)))
    if kind in ("line", "tree"):
        return sensible_tree_perms(space, locs) if variant == "closed" else sensible_tree_open_perms(space, locs)
    if kind == "ring":
        return sensible_ring_perms(space, locs) if variant == "closed" else list(itertools.permutations(range(n)))
    if kind == "flower":
        return sensible_flower_perms(space, locs) if variant == "closed" else []
    raise ValueError(kind)


def test_criterion_6_domination_soundness():
    per_space = 50
    rng_master = random.Random(606)
    checked = 0
    for kind in ("general", "euclid2d", "line", "tree", "ring", "flower"):
        for trial in range(per_space):
            rng = random.Random(rng_master.randrange(10 ** 9))
            variant = "closed" if trial % 2 == 0 else "open"
            space = random_space(kind, rng, 6)
            n = rng.randint(1, 6)
            locs = [random_point(space, rng) for _ in range(n)]
            rels = [round(rng.uniform(0, 3), 4) for _ in range(n)]
            inst = Instance(space, [Request(i, locs[i], rels[i]) for i in range(n)], list(locs), variant)
            safe = _safe_set(kind, space, locs, variant)
            opt_perm = tuple(opt_bruteforce(inst).order)
            oracle = make_oracle(space, locs, variant)
            stats = {perm: route_stats(inst, perm) for perm in set(safe) | {opt_perm}}
            events = sorted({0.0} | set(rels))
            extra = [rng.uniform(0, max(rels) + 1.0) for _ in range(20)]
            for t in sorted(set(events) | set(extra)):
                released = frozenset(i for i in range(n) if rels[i] <= t + 1e-12)
                oracle.step(t, released)
                entry_l = np.array([e.length for e in oracle.entries.values()])
                entry_r = np.array([
                    (1 - e.alpha_released(released)) * e.length for e in oracle.entries.values()
                ])
                for perm, st in stats.items():
                    a = st.alpha_released(released)
                    ok = bool(np.any(
                        (entry_l <= st.length + 1e-9)
                        & (entry_r <= (1 - a) * st.length + 1e-9)
                    ))
                    assert ok, (kind, variant, inst.to_json(), t, perm)
            checked += 1
    print(f"\ncriterion 6 (domination soundness): PASS  {checked} exhaustive instances")


def test_criterion_7_oracle_cardinality():
    rng = random.Random(707)
    # general: cumulative set never exceeds 2^n
    for _ in range(25):
        n = rng.randint(1, 7)
        sp = random_general(rng, n + 2)
        locs = [rng.randrange(sp.n) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = make_oracle(sp, locs, rng.choice(["open", "closed"]), "general")
        for t in sorted({0.0} | set(rels)):
            o.step(t, {i for i in range(n) if rels[i] <= t + 1e-12})
            assert len(o.entries) <= 2 ** n
    # tree: per-event batch within |U*| * 2^l
    for _ in range(25):
        sp = random_tree(rng)
        n = rng.randint(1, 9)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = make_oracle(sp, locs, "closed", "tree")
        idx = o.idx
        leaves = max(1, len([v for v in range(idx.n) if not any(idx.par[w] == v for w in range(idx.n))]))
        for t in sorted({0.0} | set(rels)):
            rel = {i for i in range(n) if rels[i] <= t + 1e-12}
            unrel_nodes = {idx.node_of[i] for i in range(n) if i not in rel}
            ustar = max(1, len(idx.maximal_nodes(unrel_nodes, 0)))
            o.step(t, rel)
            assert o.batches[-1].batch_size <= ustar * 2 ** leaves
    # ring closed: 3n crescents plus the split-line part
    for _ in range(25):
        n = rng.randint(1, 9)
        sp = Ring(1.0)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = make_oracle(sp, locs, "closed", "ring")
        for t in sorted({0.0} | set(rels)):
            o.step(t, {i for i in range(n) if rels[i] <= t + 1e-12})
            assert o.batches[-1].batch_size <= 3 * n + 2 * 2 ** 2
    # flower: c * 6^p * n with documented constant c = 8
    for _ in range(25):
        sp = random_flower(rng)
        p = len(sp.petals)
        n = rng.randint(1, 8)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = make_oracle(sp, locs, "closed", "flower")
        for t in sorted({0.0} | set(rels)):
            o.step(t, {i for i in range(n) if rels[i] <= t + 1e-12})
            assert o.batches[-1].batch_size <= 8 * 6 ** p * max(n, 1)
    print("\ncriterion 7 (oracle cardinality bounds): PASS")


def test_criterion_8_offline_solver_equivalence():
    rng = random.Random(808)
    solvers = {"tree": tree_tsp, "ring": ring_tsp, "flower": flower_tsp}
    total = 0
    for trial in range(1000):
        kind = ("tree", "ring", "flower")[trial % 3]
        if kind == "tree":
            sp = random_tree(rng)
        elif kind == "ring":
            sp = Ring(round(rng.uniform(0.5, 2.0), 6))
        else:
            sp = random_flower(rng, 3)
        n = rng.randint(0, 10)
        pts = [random_point(sp, rng) for _ in range(n)]
        start = random_point(sp, rng) if rng.random() < 0.5 else sp.origin()
        end = rng.choice([CLOSED, FREE, "pt"])
        if end == "pt":
            end = random_point(sp, rng)
        q = PathQuery(sp, start, pts, end)
        res = solvers[kind](q)
        ref = held_karp(q)
        assert res.length == pytest.approx(ref.length, abs=1e-9), (kind, trial)
        total += 1
    # held_karp against the full permutation minimum
    for trial in range(40):
        sp = Euclid2D()
        n = rng.randint(1, 8)
        pts = [random_point(sp, rng) for _ in range(n)]
        end = rng.choice([CLOSED, FREE])
        q = PathQuery(sp, (0.0, 0.0), pts, end)
        res = held_karp(q)
        best = math.inf
        for order in itertools.permutations(range(n)):
            total_len = 0.0
            prev = q.start
            for i in order:
                total_len += sp.distance(prev, pts[i])
                prev = pts[i]
            if end == CLOSED:
                total_len += sp.distance(prev, q.start)
            best = min(best, total_len)
        assert res.length == pytest.approx(best, abs=1e-9)
    print(f"\ncriterion 8 (offline solver equivalence): PASS  {total}+40 instances")


def test_criterion_9_sensible_set_safety():
    rng = random.Random(909)
    checked = 0
    for trial in range(200):
        kind = "tree" if trial % 2 == 0 else "ring"
        sp = random_tree(rng) if kind == "tree" else Ring(round(rng.uniform(0.5, 2.0), 6))
        n = rng.randint(1, 7)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [round(rng.uniform(0, 3), 4) for _ in range(n)]
        inst = Instance(sp, [Request(i, locs[i], rels[i]) for i in range(n)], list(locs), "closed")
        opt = opt_bruteforce(inst).length
        sensible = sensible_tree_perms(sp, locs) if kind == "tree" else sensible_ring_perms(sp, locs)
        best = min(eval_serving_order(inst, perm) for perm in sensible)
        assert best == pytest.approx(opt, abs=1e-9), (kind, inst.to_json())
        checked += 1
    print(f"\ncriterion 9 (sensible-set safety): PASS  {checked} instances")


def test_criterion_10_property_suite():
    trials = {"eta_scale": 0, "alpha_monotone": 0, "unit_speed": 0, "breaking_rule": 0}
    rng = random.Random(1010)

    # eta scale invariance: 3000 trials
    for _ in range(3000):
        kind = rng.choice(["line", "ring", "flower", "tree", "euclid2d"])
        sp = random_space(kind, rng)
        n = rng.randint(1, 4)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 2)) for i in range(n)]
        preds = [random_point(sp, rng) for _ in range(n)]
        inst = Instance(sp, reqs, preds, rng.choice(["open", "closed"]))
        eta = prediction_error(inst)
        c = rng.uniform(0.1, 100)
        scaled, f = sp.scaled(c)
        inst2 = Instance(scaled, [Request(r.id, f(r.location), r.release * c) for r in reqs],
                         [f(p) for p in preds], inst.variant)
        assert prediction_error(inst2) == pytest.approx(eta, rel=1e-9, abs=1e-12)
        trials["eta_scale"] += 1

    # alpha monotonicity: 3000 trials (one random time pair each)
    for _ in range(3000):
        kind = rng.choice(["line", "ring", "flower", "tree"])
        sp = random_space(kind, rng)
        n = rng.randint(1, 5)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 3)) for i in range(n)]
        inst = Instance(sp, reqs, [r.location for r in reqs], rng.choice(["open", "closed"]))
        perm = list(range(n))
        rng.shuffle(perm)
        st = route_stats(inst, perm)
        t1, t2 = sorted((rng.uniform(0, 4), rng.uniform(0, 4)))
        a1, a2 = (st.alpha_released({i for i, r in enumerate(reqs) if r.release <= t + 1e-12})
                  for t in (t1, t2))
        assert a2 >= a1 - 1e-12
        assert min(a1, 0.5) <= 0.5
        trials["alpha_monotone"] += 1

    # unit-speed and serve invariants over full trajectories: 2500 sims
    for k in range(2500):
        kind = rng.choice(["line", "ring", "flower", "euclid2d"])
        sp = random_space(kind, rng)
        n = rng.randint(1, 4)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 3)) for i in range(n)]
        preds = [random_point(sp, rng) for _ in range(n)] if k % 3 == 0 else [r.location for r in reqs]
        inst = Instance(sp, reqs, preds, rng.choice(["open", "closed"]))
        res = la_swag_policy(inst)
        traj = res.trajectory
        for a, b in zip(traj, traj[1:]):
            assert sp.distance(a.point, b.point) <= (b.time - a.time) + 1e-9
        for e in traj:
            if e.kind == "serve":
                r = inst.requests[e.detail]
                assert e.time >= r.release - 1e-9
                assert sp.distance(e.point, r.location) <= 1e-9
        trials["unit_speed"] += 1

    # breaking rule monotonicity: 1500 paired runs
    for _ in range(1500):
        kind = rng.choice(["line", "ring", "flower"])
        sp = random_space(kind, rng)
        n = rng.randint(1, 4)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 3)) for i in range(n)]
        preds = [random_point(sp, rng) for _ in range(n)]
        inst = Instance(sp, reqs, preds, rng.choice(["open", "closed"]))
        on = la_swag_policy(inst, EngineConfig(breaking_rule=True))
        off = la_swag_policy(inst, EngineConfig(breaking_rule=False))
        assert on.completion_time <= off.completion_time + 1e-9
        trials["breaking_rule"] += 1

    total = sum(trials.values())
    assert total >= 10000
    print(f"\ncriterion 10 (property suite): PASS  {total} randomized trials {trials}")
