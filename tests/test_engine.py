import hashlib
import math
import random

import pytest

from oltsp.core import Instance, Request, route_stats, run_adaptive, simulate
from oltsp.engine import EngineConfig, LaSwagPolicy, _minimizer, la_swag, la_swag_policy, swag_policy
from oltsp.fixtures import LineReleaseAdversary
from oltsp.offline import opt_bruteforce
from oltsp.oracles import make_oracle
from oltsp.spaces import Line, Tree

from conftest import pin_pool, random_point, random_space
from sensible import FollowOrderPolicy, witness_by_scan

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


# -- incremental scores --------------------------------------------------------

class _RescoringPolicy(LaSwagPolicy):
    """LA-SWAG that, after each plan, checks the scores kept on the oracle's
    entries against every entry scored afresh over the released set."""

    plans = 0

    def _plan(self, sim):
        act = super()._plan(sim)
        released = frozenset(sim.released)
        entries = list(self.oracle.entries.values())
        ref = [(e.alpha_released(released), e) for e in entries]
        # an entry at alpha >= 1/2 is no longer moved, so only min(alpha, 1/2) is kept exact
        assert [min(e.alpha, 0.5).hex() for e in entries] == [min(a, 0.5).hex() for a, _ in ref]
        # every entry is scored; one below 1/2 waits on its first unreleased request
        assert all(e.cursor >= 0 for e in entries)
        for e in entries:
            if e.alpha < 0.5:
                assert e.perm[e.cursor] not in released and released.issuperset(e.perm[:e.cursor])
                assert e in self._waiting.get(e.perm[e.cursor], ())
        assert self._sigma0 is witness_by_scan(ref)
        assert _minimizer((e.alpha, e) for e in entries) == _minimizer(ref)
        if act is None:
            assert (self.start.sigma0, self.start.sigma1) == (witness_by_scan(ref).perm, _minimizer(ref))
        _RescoringPolicy.plans += 1
        return act


@pytest.mark.parametrize("family, variant", [(f, v) for f in ("line", "tree", "ring", "flower", "general", "euclid2d")
                                             for v in ("closed", "open")]
                         + [("line-adversary", 21), ("line-adversary", 41)])
def test_incremental_scores_match_rescoring(family, variant):
    """At every plan on the pinned pools, with perfect and shifted
    predictions and the breaking rule on and off, the policy's scores (kept
    on each entry and moved only by the releases it waits on, until they
    reach 1/2) equal each entry's ``alpha_released`` capped at 1/2 bit for
    bit, in entry order, each entry below 1/2 is filed under its first
    unreleased request, and the running witness and sigma1 are the
    rescan's.  The
    line-adversary rows run the adaptive path instead: the open line
    adversary on a grid of ``variant`` points releases requests in reaction
    to the server."""
    _RescoringPolicy.plans = 0
    if family == "line-adversary":
        adversary = LineReleaseAdversary(variant)
        run_adaptive(adversary, _RescoringPolicy(adversary.space, adversary.predictions, adversary.variant))
    else:
        for space, locs, rels in pin_pool(family, variant):
            reqs = [Request(i, x, t) for i, (x, t) in enumerate(zip(locs, rels))]
            for preds in (locs, locs[1:] + locs[:1]):
                inst = Instance(space, reqs, list(preds), variant)
                for rule in (True, False):
                    simulate(inst, _RescoringPolicy(space, inst.predictions, variant, EngineConfig(breaking_rule=rule)))
    assert _RescoringPolicy.plans > 0


# -- pinned trajectories -----------------------------------------------------

def _run_text(res, start=None):
    return f"{res.to_csv()}{res.completion_time!r}\n{res.served_at!r}\n{start!r}"


def _trajectories_digest(family, variant):
    texts = []
    for space, locs, rels in pin_pool(family, variant):
        reqs = [Request(i, x, t) for i, (x, t) in enumerate(zip(locs, rels))]
        # perfect predictions, then each request predicted at the next one's spot
        for preds in (locs, locs[1:] + locs[:1]):
            inst = Instance(space, reqs, list(preds), variant)
            for rule in (True, False):
                res, policy = la_swag(inst, EngineConfig(breaking_rule=rule))
                texts.append(_run_text(res, policy.start))
        inst = Instance(space, reqs, list(locs), variant)
        texts.append(_run_text(simulate(inst, FollowOrderPolicy(inst, opt_bruteforce(inst).order))))
    return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()


_TRAJECTORY_DIGESTS = {
    ("line", "closed"): "fdc6e25f886128381f0b651f746bb0f09532851bec4ad6aa157f7d7c560335c5",
    ("line", "open"): "647219177926538b83f425fe16a960dcfac3470a0c6c1327138297017e0909a9",
    ("tree", "closed"): "52400691f359758f03dd38dc4d93252cc92676c70d0687ad2a787a367c5780cf",
    ("tree", "open"): "77fa2825170b7e8727eb1891769df5020bab1bf62a36679e83607714b82a78ec",
    ("ring", "closed"): "7696ad32b0c4d567b9d7f4c5eb6961405e0de2ea3e04a4b719168572d302c197",
    ("ring", "open"): "65f725bddc765a94432ea008fca4ba6681ecc8b10d64204d93f7793037a0b4ef",
    ("flower", "closed"): "10c85a1506db36ed7480c8083e68e9cf956217a47012ecade7f76dca51bc8fa8",
    ("flower", "open"): "913c9e2e4c293be257a1f5b4827fb85d0b349133dc39af6de2486bf8cbd2454b",
    ("general", "closed"): "0d6b16082c97719a4e76a822b369df8d2dd69ebf5657511b426560ee1da0460b",
    ("general", "open"): "57356eb05c3dc7ba51bb398d2d2dc93ab6dc7201f8c380e4f9a364d503ab7958",
    ("euclid2d", "closed"): "d14c25ef182bb297986f62f5aa37bb5ad682ee1f49f83721dbd45b963996d9f5",
    ("euclid2d", "open"): "40f3b6fe9cd00619ca8dfd7e7c8416f655bb835a4cd5862bcdee33c7e08df25d",
}


@pytest.mark.parametrize("family, variant", list(_TRAJECTORY_DIGESTS))
def test_trajectories_unchanged(family, variant):
    """Every run of LA-SWAG on the pinned pools, with perfect and with
    shifted predictions and the breaking rule on and off, and of
    ``FollowOrderPolicy`` along each instance's optimal order, is pinned
    by one sha256 per family and variant over its CSV trajectory, its
    exact completion and serve times, and its start decision.  Only a
    change meant to alter trajectories may update a digest, and it must
    say so in CHANGES.md."""
    assert _trajectories_digest(family, variant) == _TRAJECTORY_DIGESTS[family, variant]
