import math
import random

import pytest

from oltsp.core import Instance, Request, route_stats
from oltsp.engine import EngineConfig, LaSwagPolicy, la_swag, la_swag_policy, swag_policy
from oltsp.offline import opt_bruteforce
from oltsp.oracles import make_oracle
from oltsp.spaces import Euclid2D, Flower, Line, Ring, Tree

from conftest import random_point, random_space

TOL = 1e-9


def _instance(space, locs, rels, variant, preds=None):
    reqs = [Request(i, x, t) for i, (x, t) in enumerate(zip(locs, rels))]
    return Instance(space, reqs, list(preds or locs), variant)


def _start(inst):
    """The policy's strategic start decision; with the breaking rule off it
    always plans, even when every request is released before the start."""
    return la_swag(inst, EngineConfig(breaking_rule=False))[1].start


def _grid_scan_start(inst, step=1e-4):
    """Dense time-grid reference for the strategic start time."""
    oracle = make_oracle(inst.space, inst.predictions, inst.variant)
    events = sorted({0.0} | {r.release for r in inst.requests})
    horizon = max(events) + max(
        (e for e in (0.0,)), default=0.0
    )
    # upper bound: after the last release some route has alpha == 1
    oracle_probe = make_oracle(inst.space, inst.predictions, inst.variant)
    oracle_probe.step(max(events), frozenset(range(inst.n)))
    horizon = max(events) + max(e.length for e in oracle_probe.entries.values()) + 1.0
    t = 0.0
    k = 0
    while t <= horizon:
        released = frozenset(i for i, r in enumerate(inst.requests) if r.release <= t + 1e-12)
        while k < len(events) and events[k] <= t:
            oracle.step(events[k], frozenset(i for i, r in enumerate(inst.requests) if r.release <= events[k] + 1e-12))
            k += 1
        for e in oracle.entries.values():
            if t >= e.length / 2 - 1e-12 and e.alpha_released(released) >= 0.5 - 1e-12:
                return t
        t += step
    raise AssertionError("grid scan found no start")


def test_find_start_all_at_origin():
    inst = _instance(Line(), [0.0, 0.0], [0.7, 1.9], "closed")
    sd = _start(inst)
    assert sd.T == 0.0


def test_find_start_remark_fixture():
    inst = _instance(Line(), [1.0, 0.0], [1.0, 2.0], "closed", preds=[0.0, -1.0])
    sd = _start(inst)
    assert sd.T == pytest.approx(1.0)
    assert sd.sigma1 == (1, 0)


def test_find_start_witness_conditions():
    rng = random.Random(31)
    for _ in range(30):
        sp = random_space(rng.choice(["line", "ring", "flower"]), rng)
        n = rng.randint(1, 5)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        inst = _instance(sp, locs, rels, rng.choice(["open", "closed"]))
        sd = _start(inst)
        st = route_stats(inst, sd.sigma0)
        released = {i for i, r in enumerate(inst.requests) if r.release <= sd.T + 1e-12}
        assert sd.T >= st.length / 2 - 1e-9
        assert st.alpha_released(released) >= 0.5 - 1e-9


def test_find_start_matches_grid_scan():
    rng = random.Random(7)
    for _ in range(20):
        sp = random_space(rng.choice(["line", "ring"]), rng)
        n = rng.randint(1, 4)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [round(rng.uniform(0, 2), 3) for _ in range(n)]
        inst = _instance(sp, locs, rels, rng.choice(["open", "closed"]))
        sd = _start(inst)
        ref = _grid_scan_start(inst)
        assert abs(sd.T - ref) <= 1e-4 + 1e-9


# -- SWAG --------------------------------------------------------------------

def test_swag_requires_perfect_predictions():
    inst = _instance(Line(), [1.0], [0.0], "open", preds=[0.5])
    with pytest.raises(ValueError):
        swag_policy(inst)


def test_swag_single_request_at_origin():
    inst = _instance(Line(), [0.0], [3.0], "closed")
    res = swag_policy(inst)
    assert res.completion_time == pytest.approx(3.0)


def test_swag_consistency_random():
    rng = random.Random(13)
    for trial in range(120):
        kind = ["line", "ring", "euclid2d", "flower", "tree", "general"][trial % 6]
        sp = random_space(kind, rng, 5)
        n = rng.randint(1, 5)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 4) for _ in range(n)]
        inst = _instance(sp, locs, rels, rng.choice(["open", "closed"]))
        res = swag_policy(inst)
        opt = opt_bruteforce(inst).length
        assert res.completion_time <= 1.5 * opt + 1e-9


# -- LA-SWAG -----------------------------------------------------------------

def test_la_swag_remark_25():
    inst = _instance(Line(), [1.0, 0.0], [1.0, 2.0], "closed", preds=[0.0, -1.0])
    res = la_swag_policy(inst)
    opt = opt_bruteforce(inst).length
    assert res.completion_time == pytest.approx(5.0)
    assert res.completion_time / opt == pytest.approx(2.5, abs=1e-6)


def test_la_swag_remark_83():
    inst = _instance(Line(), [1.5], [1.5], "open", preds=[-1.0])
    res = la_swag_policy(inst)
    opt = opt_bruteforce(inst).length
    assert res.completion_time == pytest.approx(4.0)
    assert res.completion_time / opt == pytest.approx(8.0 / 3.0, abs=1e-6)


def test_la_swag_perfect_predictions_match_swag_bound():
    rng = random.Random(3)
    for trial in range(60):
        kind = ["line", "ring", "flower"][trial % 3]
        sp = random_space(kind, rng)
        n = rng.randint(1, 5)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 4) for _ in range(n)]
        inst = _instance(sp, locs, rels, rng.choice(["open", "closed"]))
        res = la_swag_policy(inst)
        swag = swag_policy(inst)
        opt = opt_bruteforce(inst).length
        assert res.completion_time <= swag.completion_time + 1e-9
        assert res.completion_time <= 1.5 * opt + 1e-9


def test_breaking_rule_never_hurts():
    rng = random.Random(19)
    for trial in range(40):
        kind = ["line", "ring", "flower", "euclid2d"][trial % 4]
        sp = random_space(kind, rng, 5)
        n = rng.randint(1, 5)
        locs = [random_point(sp, rng) for _ in range(n)]
        preds = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 4) for _ in range(n)]
        inst = _instance(sp, locs, rels, rng.choice(["open", "closed"]), preds=preds)
        with_rule = la_swag_policy(inst, EngineConfig(breaking_rule=True))
        without = la_swag_policy(inst, EngineConfig(breaking_rule=False))
        assert with_rule.completion_time <= without.completion_time + 1e-9


def test_policy_records_start_decision():
    inst = _instance(Line(), [1.0, 0.0], [1.0, 2.0], "closed", preds=[0.0, -1.0])
    res, policy = la_swag(inst)
    assert policy.start is not None
    assert policy.start.T == pytest.approx(1.0)
    assert policy.start.sigma1 == (1, 0)


def test_oracle_selection_override():
    inst = _instance(Line(), [1.0, 0.0], [1.0, 2.0], "closed", preds=[0.0, -1.0])
    res = la_swag_policy(inst, EngineConfig(oracle="general"))
    assert res.completion_time == pytest.approx(5.0)


def test_empty_instance():
    inst = Instance(Line(), [], [], "closed")
    res = la_swag_policy(inst)
    assert res.completion_time == 0.0


def test_duplicate_locations():
    inst = _instance(Line(), [1.0, 1.0, -0.5], [0.5, 2.0, 1.0], "closed")
    res = la_swag_policy(inst)
    opt = opt_bruteforce(inst).length
    assert res.completion_time <= 1.5 * opt + 1e-9
    assert len(res.served_at) == 3


def test_requests_closer_than_the_tolerance_are_all_served():
    # two requests 3e-10 apart used to hide each other from the tree
    # oracle, and the run finished with both unserved
    inst = _instance(Line(), [1.0, 1.0 + 3e-10, -0.5], [2.0, 2.0, 0.2], "open")
    res = la_swag_policy(inst)
    assert sorted(res.served_at) == [0, 1, 2]
    assert res.completion_time <= 1.5 * opt_bruteforce(inst).length + 1e-9


def test_unbounded_leaf_edges():
    tree = Tree([(0, 1, math.inf), (0, 2, 1.0)])
    inst = _instance(tree, [(0, 2.5), (1, 0.7)], [1.0, 0.2], "open")
    res = la_swag_policy(inst)
    opt = opt_bruteforce(inst).length
    assert res.completion_time <= 1.5 * opt + 1e-9
