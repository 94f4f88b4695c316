import hashlib
import itertools
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from oltsp import offline, oracles
from oltsp.core import Instance, Request, RouteStats, route_stats, run_adaptive, simulate
from oltsp.engine import EngineConfig, LaSwagPolicy, la_swag
from oltsp.fixtures import LineReleaseAdversary, run_fixture
from oltsp.harness import SweepSpec, generate_one
from oltsp.offline import (
    CLOSED,
    FREE,
    PathQuery,
    PathTable,
    TreeIndex,
    flower_cover,
    held_karp,
    opt_bruteforce,
    ring_cover,
    tree_tsp,
)
from oltsp.oracles import (
    GeneralOracle,
    OutOfOrderEvent,
    RingOracle,
    TreeOracle,
    default_oracle_kind,
    make_oracle,
)
from sensible import (
    flower_batch_by_variants,
    general_batch_by_walks,
    items_along,
    sensible_flower_perms,
    sensible_ring_perms,
    sensible_tree_open_perms,
    sensible_tree_perms,
    tree_batch_by_finals,
    tree_row_by_rest,
    walk_by_dfs,
)
from oltsp.spaces import Euclid2D, Flower, General, Line, Ring, SpaceError, Tree
from oltsp.tolerance import SNAP, TIE

from conftest import (
    pin_pool,
    pin_space,
    random_flower,
    random_general,
    random_point,
    random_space,
    random_tree,
)

TOL = 1e-9


def _instance(space, locs, rels, variant):
    reqs = [Request(i, x, t) for i, (x, t) in enumerate(zip(locs, rels))]
    return Instance(space, reqs, list(locs), variant)


def _released(inst, t):
    return frozenset(i for i, r in enumerate(inst.requests) if r.release <= t + 1e-12)


def _is_dominated(oracle, released, length, remainder):
    for e in oracle.entries.values():
        if e.length <= length + TOL and (1 - e.alpha_released(released)) * e.length <= remainder + TOL:
            return True
    return False


def _check_domination(inst, safe_perms, extra_times=8, check_opt=True):
    oracle = make_oracle(inst.space, inst.predictions, inst.variant)
    rng = random.Random(99)
    times = sorted({0.0} | {r.release for r in inst.requests})
    horizon = (max(times) if times else 0.0) + 1.0
    all_times = sorted(set(times) | {rng.uniform(0, horizon) for _ in range(extra_times)})
    opt_perm = tuple(opt_bruteforce(inst).order) if check_opt else None
    for t in all_times:
        released = _released(inst, t)
        oracle.step(t, released)
        perms = list(safe_perms) + ([opt_perm] if opt_perm is not None else [])
        for perm in perms:
            st = route_stats(inst, perm)
            a = st.alpha_released(released)
            assert _is_dominated(oracle, released, st.length, (1 - a) * st.length), (
                inst.to_json(), t, perm,
            )
    return oracle


# -- general oracle ----------------------------------------------------------

def test_general_all_released_single_tour():
    o = GeneralOracle(Euclid2D(), [(1.0, 0.0), (0.0, 1.0)], "closed")
    batch = o.step(0.0, {0, 1})
    assert len(o.entries) == 1


def test_general_singleton_unreleased():
    o = GeneralOracle(Euclid2D(), [(1.0, 0.0)], "closed")
    o.step(0.0, set())
    assert set(o.entries) == {(0,)}


def test_general_dominates_all_permutations():
    rng = random.Random(42)
    for trial in range(12):
        n = rng.randint(2, 5)
        sp = random_general(rng, n + 2)
        locs = [rng.randrange(sp.n) for _ in range(n)]
        rels = [round(rng.uniform(0, 3), 3) for _ in range(n)]
        inst = _instance(sp, locs, rels, rng.choice(["open", "closed"]))
        _check_domination(inst, list(itertools.permutations(range(n))))


def test_general_cumulative_cap():
    rng = random.Random(17)
    for trial in range(12):
        n = rng.randint(1, 6)
        sp = Euclid2D()
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = GeneralOracle(sp, locs, rng.choice(["open", "closed"]))
        for t in sorted({0.0} | set(rels)):
            o.step(t, {i for i in range(n) if rels[i] <= t + 1e-12})
            assert len(o.entries) <= 2 ** n


# -- tree oracle -------------------------------------------------------------

def _scan(tree, q, leaves):
    """A scan: the shortest root-start walk over ``leaves`` ending at q."""
    res = tree_tsp(PathQuery(tree, tree.origin(), leaves, q))
    return res.length, [leaves[j] for j in res.order]


def test_tree_scan_examples():
    # single chosen leaf hosting the endpoint: direct path
    path = Tree([(0, 1, 1.5)])
    length, _ = _scan(path, path.node_point(1), [path.node_point(1)])
    assert length == pytest.approx(1.5)
    # star with two unit rays, endpoint at the second tip
    star = Tree([(0, 1, 1.0), (0, 2, 1.0)])
    length, order = _scan(star, star.node_point(2), [star.node_point(1), star.node_point(2)])
    assert length == pytest.approx(3.0)
    assert order == [star.node_point(1), star.node_point(2)]


def test_tree_scan_matches_held_karp():
    rng = random.Random(66)
    for _ in range(25):
        tree = random_tree(rng)
        pts = [random_point(tree, rng) for _ in range(rng.randint(1, 5))]
        # pick q on the path to one of the chosen leaves
        leaf = rng.choice(pts)
        d = tree.distance
        q = tree.move_along(tree.origin(), leaf, rng.uniform(0, d(tree.origin(), leaf)))
        length, _ = _scan(tree, q, pts)
        ref = held_karp(PathQuery(tree, tree.origin(), pts, q))
        assert length == pytest.approx(ref.length, abs=1e-9)


def test_tree_batch_line_partition_size():
    line = Line()
    o = make_oracle(line, [1.0, -1.0, 0.5], "closed", "tree")
    batch = o.step(0.0, set())
    # 2 leaves at most, so at most 4 scans per pivot
    assert o.batches[0].batch_size <= 3 * 4


def test_make_oracle_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown oracle kind 'bogus'"):
        make_oracle(Line(), [1.0], "closed", "bogus")


def test_tree_all_released_single():
    o = make_oracle(Line(), [1.0, -1.0], "closed", "tree")
    o.step(0.0, {0, 1})
    assert len(o.entries) == 1


@pytest.mark.parametrize("variant", ["closed", "open"])
def test_tree_dominates_sensible(variant):
    rng = random.Random({'closed': 41, 'open': 42}[variant])
    for trial in range(12):
        sp = random_tree(rng)
        n = rng.randint(2, 5)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [round(rng.uniform(0, 3), 3) for _ in range(n)]
        inst = _instance(sp, locs, rels, variant)
        safe = (
            sensible_tree_perms(sp, locs)
            if variant == "closed"
            else sensible_tree_open_perms(sp, locs)
        )
        _check_domination(inst, safe)


def test_tree_batch_cardinality():
    rng = random.Random(5)
    for trial in range(15):
        sp = random_tree(rng)
        n = rng.randint(1, 6)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = make_oracle(sp, locs, "closed", "tree")
        idx = o.idx
        leaves = len([v for v in range(1, idx.n) if not any(idx.par[w] == v for w in range(idx.n))]) or 1
        for t in sorted({0.0} | set(rels)):
            rel = {i for i in range(n) if rels[i] <= t + 1e-12}
            unrel_nodes = {idx.node_of[i] for i in range(n) if i not in rel}
            ustar = len(idx.maximal_nodes(unrel_nodes, 0))
            new = o.step(t, rel)
            bound = max(ustar, 1) * 2 ** leaves
            assert o.batches[-1].batch_size <= bound


# -- ring oracle -------------------------------------------------------------

def test_ring_single_request_batch():
    o = RingOracle(Ring(1.0), [0.25], "closed")
    o.step(0.0, set())
    assert set(o.entries) == {(0,)}
    (e,) = o.entries.values()
    assert e.length == pytest.approx(0.5)


def test_ring_all_released_single():
    o = RingOracle(Ring(1.0), [0.2, 0.6], "closed")
    o.step(0.0, {0, 1})
    assert len(o.entries) == 1


def test_ring_split_is_one_rule():
    """A request a hair past the antipode lies on the counter-clockwise
    arm of the split index, and its arm and depth on the ring's arc say
    the same."""
    o = RingOracle(Ring(1.0), [0.5 + 5e-13, 0.25], "closed")
    assert o.idx.node_of == {0: 1, 1: 2}
    assert o.idx.par[1] == 0 and o.idx.plen[1] == o.arc.depth[0] == 1.0 - (0.5 + 5e-13)
    assert o.arc.arm == {0: -1, 1: 1}


@pytest.mark.parametrize("variant", ["closed", "open"])
def test_ring_domination(variant):
    rng = random.Random({'closed': 51, 'open': 52}[variant])
    for trial in range(12):
        sp = Ring(round(rng.uniform(0.5, 2.0), 3))
        n = rng.randint(2, 5)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [round(rng.uniform(0, 3), 3) for _ in range(n)]
        inst = _instance(sp, locs, rels, variant)
        safe = (
            sensible_ring_perms(sp, locs)
            if variant == "closed"
            else list(itertools.permutations(range(n)))
        )
        _check_domination(inst, safe)


def test_ring_closed_batch_cardinality():
    rng = random.Random(8)
    for trial in range(15):
        n = rng.randint(1, 7)
        sp = Ring(1.0)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = make_oracle(sp, locs, "closed", "ring")
        for t in sorted({0.0} | set(rels)):
            o.step(t, {i for i in range(n) if rels[i] <= t + 1e-12})
            assert o.batches[-1].batch_size <= 3 * n + 8


# -- flower oracle -----------------------------------------------------------

def test_flower_single_petal_equals_ring_batches():
    """A one-petal flower with no stem holds the ring's entries.  The first
    input has a request a hair past the antipode, which the flower's one
    petal-split rule puts on the backward half, as the ring does."""
    cases = [([0.5 + 5e-13, 0.25, 0.75], [(0.0, {1, 2})])]
    rng = random.Random(2)
    for trial in range(20):
        n = rng.randint(1, 5)
        pos = [rng.uniform(0, 1) for _ in range(n)]
        rels = [rng.uniform(0, 2) for _ in range(n)]
        cases.append((pos, [(t, {i for i in range(n) if rels[i] <= t + 1e-12})
                            for t in sorted({0.0} | set(rels))]))
    for pos, steps in cases:
        of = make_oracle(Flower((1.0,), 0.0), [(0, p) for p in pos], "closed", "flower")
        og = make_oracle(Ring(1.0), pos, "closed", "ring")
        for t, rel in steps:
            of.step(t, rel)
            og.step(t, rel)
        assert set(of.entries) == set(og.entries), pos


def test_petal_arc_is_the_ring_arc():
    """On a one-petal flower with no stem, with every request off the
    origin's ``SNAP`` band, the petal's arc equals the ring's: arms,
    depths and the four scan orders, for a request a hair past the
    antipode and for ties in position and depth too.  The open ring's
    line-extent and out-and-back rows read from that petal arc give the
    ring's own heads, each a dominator of the ring's batch."""
    cases = [[0.5 + 5e-13, 0.25, 0.75], [0.5, 0.5 + 5e-13, 0.25, 0.75, 0.25]]
    rng = random.Random(21)
    for trial in range(30):
        cases.append([rng.choice([0.25, 0.5, 0.75, round(rng.uniform(0.01, 0.99), 3)])
                      for _ in range(rng.randint(1, 6))])
    for pos in cases:
        ring = RingOracle(Ring(1.0), pos, "open")
        flower = make_oracle(Flower((1.0,), 0.0), [(0, p) for p in pos], "open", "flower")
        assert flower.arcs == {0: ring.arc}, pos
        released = frozenset(i for i in range(len(pos)) if rng.random() < 0.5)
        unrel = sorted(ring.ids - released)
        ring.step(0.0, released)
        batch = set(ring.batches[-1].perms)
        for rows in (oracles._line_extents, oracles._out_and_back):
            heads = list(rows(flower.arcs[0].restrict(released), unrel))
            assert heads == list(rows(ring.arc.restrict(released), unrel)), (pos, released)
            assert {ring._dominator(head, q) for head, q in heads} <= batch, (pos, released)


def test_flower_tip_of_a_stem_within_snap_is_the_root():
    """On a stem no longer than ``SNAP``, a request at the canonical tip is
    at the origin to ``distance``, and the snipped star puts it at the
    root, beside a request at the origin, in both variants."""
    sp = Flower((1.0, 2.0), 0.1 * SNAP)
    locs = [("stem", 1.05 * SNAP), (0, 0.3), ("stem", 0.0)]
    for variant in ("closed", "open"):
        o = make_oracle(sp, locs, variant)
        assert o.predictions[0] == ("stem", 0.1 * SNAP) and o.D[1][3] == 0.0
        assert o._arm[0] == ("stem", 0.0) and o.idx.node_of[0] == o.idx.node_of[2]


def test_flower_all_released_single():
    o = make_oracle(Flower((1.0,), 0.5), [(0, 0.3), ("stem", 0.2)], "closed", "flower")
    o.step(0.0, {0, 1})
    assert len(o.entries) == 1


@pytest.mark.parametrize("variant", ["closed", "open"])
def test_flower_domination(variant):
    rng = random.Random({'closed': 61, 'open': 62}[variant])
    for trial in range(10):
        sp = random_flower(rng)
        n = rng.randint(2, 5)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [round(rng.uniform(0, 3), 3) for _ in range(n)]
        inst = _instance(sp, locs, rels, variant)
        safe = (
            sensible_flower_perms(sp, locs)
            if variant == "closed"
            else list(itertools.permutations(range(n)))
        )
        _check_domination(inst, safe)


def test_flower_batch_cardinality():
    rng = random.Random(12)
    c_const = 8
    for trial in range(10):
        sp = random_flower(rng)
        p = len(sp.petals)
        n = rng.randint(1, 6)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = make_oracle(sp, locs, "closed", "flower")
        for t in sorted({0.0} | set(rels)):
            o.step(t, {i for i in range(n) if rels[i] <= t + 1e-12})
            assert o.batches[-1].batch_size <= c_const * (6 ** p) * max(n, 1)


# -- structured oracles against the general oracle --------------------------

def _cross_check(inst):
    """At every release event, each entry of the general oracle is dominated
    by some entry of the space's own oracle, in length and remainder."""
    own = make_oracle(inst.space, inst.predictions, inst.variant)
    general = make_oracle(inst.space, inst.predictions, inst.variant, "general")
    for t in sorted({0.0} | {r.release for r in inst.requests}):
        released = _released(inst, t)
        own.step(t, released)
        general.step(t, released)
        for perm, e in general.entries.items():
            remainder = (1 - e.alpha_released(released)) * e.length
            assert _is_dominated(own, released, e.length, remainder), (inst.to_json(), t, perm)


@pytest.mark.parametrize("variant", ["closed", "open"])
@pytest.mark.parametrize("kind", ["line", "tree", "ring", "flower"])
def test_structured_oracle_dominates_general_oracle(kind, variant):
    rng = random.Random(f"cross-{kind}-{variant}")
    for trial in range(30):
        sp = random_space(kind, rng)
        n = rng.randint(1, 6)
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [round(rng.uniform(0, 3), 3) for _ in range(n)]
        _cross_check(_instance(sp, locs, rels, variant))


# An open flower whose oracle missed a few orders while no pivot on the stem
# walked the final's petal: at t=2.171, 4 of the 5040 orders were dominated
# by no entry, (0,1,6,4,5,3,2) by a gap of 0.067.  The optimum's order stayed
# dominated, and LA-SWAG's ratio is 1.056.
_OPEN_FLOWER_GAP = {
    "space": {"kind": "flower", "petals": [0.522511], "stem": 0.150027},
    "variant": "open",
    "requests": [
        {"x": [0, 0.489106], "t": 1.979}, {"x": ["stem", 0.134791], "t": 2.171},
        {"x": [0, 0.277861], "t": 0.696}, {"x": [0, 0.256098], "t": 2.806},
        {"x": [0, 0.055207], "t": 1.11}, {"x": [0, 0.158696], "t": 2.213},
        {"x": ["stem", 0.027626], "t": 2.824},
    ],
    "predictions": [
        [0, 0.489106], ["stem", 0.134791], [0, 0.277861], [0, 0.256098],
        [0, 0.055207], [0, 0.158696], ["stem", 0.027626],
    ],
}


# A smaller one: at t=0 the order (5,4,1,2,3,0) was dominated by no entry.
# It serves the request at the origin, then sweeps petal 0 forward across
# its antipode; its pivot, at the origin, is never a maximal node, and only
# the walks along the final's petal from the origin hold it.
_OPEN_FLOWER_GAP_N6 = {
    "space": {"kind": "flower", "petals": [2.0, 1.0], "stem": 0.0},
    "variant": "open",
    "requests": [
        {"x": [0, 1.452], "t": 1.068}, {"x": [0, 0.389], "t": 1.666},
        {"x": [0, 0.69], "t": 0.427}, {"x": [0, 1.033], "t": 1.76},
        {"x": [0, 0.116], "t": 0.859}, {"x": ["stem", 0.0], "t": 0.637},
    ],
    "predictions": [
        [0, 1.452], [0, 0.389], [0, 0.69], [0, 1.033], [0, 0.116], ["stem", 0.0],
    ],
}


@pytest.mark.parametrize("spec", [_OPEN_FLOWER_GAP, _OPEN_FLOWER_GAP_N6], ids=["n7", "n6"])
def test_open_flower_domination_gap(spec):
    inst = Instance.from_json(spec)
    _check_domination(inst, list(itertools.permutations(range(inst.n))))


# An open flower that still has a gap: a one-petal flower with no stem, trial
# 160 of a 300-instance scan of open flowers at n 3-6 (``_cross_check`` on
# ``random_space``/``random_point`` draws from
# ``random.Random("scan-flower-open-3-6-300")``).  At t=2.493 the order
# (0,1,3,5,4,2) turns at id 0, loops out through the antipode to id 5 and
# descends to its pivot, id 4: the ring's out-and-back shape, which the ring
# oracle holds on ``Ring(0.973688)`` and no flower row family builds.
_OPEN_FLOWER_OUT_AND_BACK = {
    "space": {"kind": "flower", "petals": [0.973688], "stem": 0.0},
    "variant": "open",
    "requests": [
        {"x": [0, 0.930648], "t": 2.493}, {"x": [0, 0.364041], "t": 2.083},
        {"x": [0, 0.642416], "t": 2.632}, {"x": [0, 0.555079], "t": 2.436},
        {"x": [0, 0.767819], "t": 2.625}, {"x": [0, 0.781182], "t": 1.167},
    ],
    "predictions": [
        [0, 0.930648], [0, 0.364041], [0, 0.642416], [0, 0.555079], [0, 0.767819], [0, 0.781182],
    ],
}


@pytest.mark.xfail(strict=True, reason="open FlowerOracle has no out-and-back rows on a petal (ROADMAP item 27)")
def test_open_flower_out_and_back_gap():
    inst = Instance.from_json(_OPEN_FLOWER_OUT_AND_BACK)
    _check_domination(inst, list(itertools.permutations(range(inst.n))))


def _undominated(space, locs, rels, variant, kind):
    """(time, order) for each order of all requests that no entry of the
    ``kind`` oracle dominates, in length and remainder, at each release
    time and 4 random times.  The orders are priced once, on one distance
    matrix per instance."""
    oracle = make_oracle(space, locs, variant, kind)
    D = offline.distance_matrix(space, [space.origin()] + list(locs))
    orders = [RouteStats(perm, D, variant == "closed") for perm in itertools.permutations(range(len(locs)))]
    lengths = np.array([o.length for o in orders])
    rng = random.Random(repr((locs, rels)))
    missed = []
    for t in sorted({0.0, *rels, *(rng.uniform(0, max(rels) + 1.0) for _ in range(4))}):
        released = frozenset(i for i, r in enumerate(rels) if r <= t)
        oracle.step(t, released)
        entries = list(oracle.entries.values())
        e_len = np.array([e.length for e in entries])
        e_rem = np.array([(1 - e.alpha_released(released)) * e.length for e in entries])
        rem = np.array([(1 - o.alpha_released(released)) * o.length for o in orders])
        held = ((e_len <= lengths[:, None] + TOL) & (e_rem <= rem[:, None] + TOL)).any(axis=1)
        missed += [(t, orders[k].perm) for k in np.flatnonzero(~held)]
    return missed


def _audit_cells():
    for family, variant in _BATCH_DIGESTS:
        default = default_oracle_kind(next(pin_pool(family, variant))[0])
        for kind in dict.fromkeys([default, "general"]):
            yield pytest.param(family, variant, kind, id=f"{family}-{variant}-{kind}")


@pytest.mark.parametrize("family, variant, kind", _audit_cells())
def test_every_order_is_dominated(family, variant, kind):
    """The reference-free domination audit: on each pinned pool (n <= 6),
    every order of all requests is dominated by an entry of the space's
    default oracle and of the general oracle, at each release time and 4
    random times.  It checks no generated order set, so a gap that an
    oracle shares with its reference generator shows here."""
    missed = {}
    for space, locs, rels in pin_pool(family, variant, count=40, n_max=6):
        hits = _undominated(space, locs, rels, variant, kind)
        if hits:
            missed[repr((space, locs, rels))] = hits[:3]
    assert not missed, missed


def _random_open_ring(seed):
    """A seeded random open ring instance: circumference 1 or 2 and 3-6
    requests, as (space, predictions, release times)."""
    rng = random.Random(f"open-ring/{seed}")
    c = rng.choice([1.0, 2.0])
    n = rng.randint(3, 6)
    return Ring(c), [round(rng.uniform(0, c), 3) for _ in range(n)], [round(rng.uniform(0, 2), 3) for _ in range(n)]


# Seeds of random open rings (of 400 tried) that leave an order undominated
# once `_line_extents` yields nothing, and two (139, 333) that do once
# `_out_and_back` does: the pinned pools witness neither row family.
_OPEN_RING_SEEDS = [14, 38, 98, 139, 228, 333, 338]


def test_open_ring_rows_dominate_every_order():
    missed = {seed: _undominated(*_random_open_ring(seed), "open", "ring")[:3] for seed in _OPEN_RING_SEEDS}
    assert not any(missed.values()), missed


@pytest.mark.parametrize("rows", ["_line_extents", "_out_and_back"])
def test_open_ring_pool_needs_each_row_family(monkeypatch, rows):
    """The pool above is a witness: without either row family some of its
    orders go undominated."""
    monkeypatch.setattr(oracles, rows, lambda arc, unrel: iter(()))
    assert any(_undominated(*_random_open_ring(seed), "open", "ring") for seed in _OPEN_RING_SEEDS)


# -- pinned batches ----------------------------------------------------------

def _batches_digest(family, variant):
    texts = []
    n_max = 8 if family in ("general", "euclid2d") else 6
    for space, locs, rels in pin_pool(family, variant, n_max=n_max):
        oracle = make_oracle(space, locs, variant)
        for t in sorted({0.0, *rels}):
            oracle.step(t, [i for i, r in enumerate(rels) if r <= t])
        texts.append(oracle.dump_batches())
    return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()


_BATCH_DIGESTS = {
    ("line", "closed"): "e50e7984779dbb774180ff089edcda01d3ed011f864d044f7ccdc0ea41bfed92",
    ("line", "open"): "0b27d965e40dbbeed4eb35509a478d1705d795d53cddc5264c1f441f289a0a37",
    ("tree", "closed"): "f874946446b2aa49c5bad81caa04a94877b6fe0a03e2b04fca4c9a6333be4e83",
    ("tree", "open"): "6f75eeadd123def2a7c5981d469a52d14ea5230031e598adad7db71c7da5fc8e",
    ("ring", "closed"): "df07ed37f7226c56e193c58e2eae93322c364454e77b59dbcb01d5efb60cb41e",
    ("ring", "open"): "b612e6e3154ba58dba870326c74d828a1ae3c7052c96cfd6f8a16cfb30fa3fdf",
    ("flower", "closed"): "7256c4cfcee51f78b0c4e0448447a2af50c24bd2a74a6be577457c15ff6122d4",
    ("flower", "open"): "d6c5a272559ea44b5e3229e54835efdb3a01c1092484ad9137a12106498751c0",
    ("general", "closed"): "a0063b946a96f6f4ad84e41b10ea216da6690ec07c21e205f48034066851b79e",
    ("general", "open"): "51cccb53fa6ac2ba2af7d35f1e846844faa3818562121bca4109496f86a4a3bb",
    ("euclid2d", "closed"): "a3c68318f95a55016594b7f3d331c64b3328a3848c491654bd8d3897997a37be",
    ("euclid2d", "open"): "77c3491f729ca1435a60b94799b908435ceb22141c4a0dcaf5a9c84619493324",
}


@pytest.mark.parametrize("family, variant", list(_BATCH_DIGESTS))
def test_batches_unchanged(family, variant):
    """Every batch of each oracle, stepped at each release time of a seeded
    random pool and a tie-heavy grid pool, is pinned by one sha256 per
    family and variant.  On the general oracle's pools (n <= 8) the
    ``TIE`` rule of Held-Karp decides some steps.  Only a change meant to
    alter batches (a new dominator, such as a fix for the open-flower gap
    above) may update a digest, and it must say so in CHANGES.md."""
    assert _batches_digest(family, variant) == _BATCH_DIGESTS[family, variant]


@pytest.mark.parametrize("family, variant", list(_BATCH_DIGESTS))
def test_all_released_batch_is_the_classical_tour(family, variant):
    """Once every request is released, the batch is one optimal classical
    tour from the origin, back to it (closed) or to no fixed end (open):
    exactly ``solve_classical``'s for the default structured oracle, and
    ``held_karp``'s for a general oracle on any space.  Each oracle is
    stepped at every release time first, so its memos are warm."""
    for space, locs, rels in pin_pool(family, variant):
        for kind in dict.fromkeys([default_oracle_kind(space), "general"]):
            oracle = make_oracle(space, locs, variant, kind)
            for t in sorted({0.0, *rels}):
                oracle.step(t, [i for i, r in enumerate(rels) if r <= t])
            origin = space.origin()
            query = PathQuery(space, origin, oracle.predictions, origin if variant == "closed" else FREE)
            solve = held_karp if kind == "general" else offline.solve_classical
            assert oracle.batches[-1].perms == (tuple(solve(query).order),), (space, locs, kind)


_LINE_ADVERSARY_DIGESTS = {
    21: "a93f043b1cbd9dd02dee464399213b238144a7aa611cc1f5026c2eac3af2e210",
    41: "3fa9fe9411d112e161de741eb9cb9c5808d8bbeba7d2e12e36e1f9df9ab40176",
}


@pytest.mark.parametrize("grid", sorted(_LINE_ADVERSARY_DIGESTS))
def test_line_adversary_batches_unchanged(grid):
    """The tree oracle's batches against the open line adversary, pinned by
    sha256 of ``dump_batches()``.  Its open variant guesses each of up to
    41 requests as the final one per step, loops that the n <= 6 pools
    above never reach."""
    adversary = LineReleaseAdversary(grid)
    policy = LaSwagPolicy(adversary.space, adversary.predictions, adversary.variant, EngineConfig(oracle="tree"))
    run_adaptive(adversary, policy)
    text = policy.oracle.dump_batches()
    assert hashlib.sha256(text.encode()).hexdigest() == _LINE_ADVERSARY_DIGESTS[grid]


@pytest.mark.parametrize("family", ["line", "tree"])
@pytest.mark.parametrize("variant", ["closed", "open"])
def test_tree_cleanups_match_node_walk_reference(family, variant):
    """A tree oracle's clean-up, its index's item walk filtered to the rest
    (what ``TreeOracle._cleanup`` reads), from the origin and from every
    request, over random subsets of the requests, to the origin and to
    every request, equals the items emitted along the whole node walk of
    an independent depth-first search (``walk_by_dfs``)."""
    rng = random.Random(f"cleanups/{family}/{variant}")
    for space, locs, _ in pin_pool(family, variant):
        oracle = make_oracle(space, locs, variant)
        idx, node_of = oracle.idx, oracle.idx.node_of
        for qid in [None, *range(len(locs))]:
            s = 0 if qid is None else node_of[qid]
            for _ in range(3):
                rest = frozenset(i for i in range(len(locs)) if rng.random() < 0.6)
                for end in [CLOSED, *range(len(locs))]:
                    e = 0 if end == CLOSED else node_of[end]
                    got = [i for i in idx.walk_items(s, e) if i in rest]
                    assert got == items_along(idx, walk_by_dfs(idx, s, e)[0], rest)


@pytest.mark.parametrize("family", ["line", "tree"])
@pytest.mark.parametrize("variant", ["closed", "open"])
def test_tree_rows_match_rest_reference(family, variant, monkeypatch):
    """Every row of a tree oracle's batch, at every proper released set of
    the pin pool, equals ``tree_row_by_rest``: its item walk filtered
    against the ids outside the head and the final, a set built per row."""
    dominator, rows = TreeOracle._dominator, Counter()

    def checked(self, prefix, q, final=None):
        want = tree_row_by_rest(self, list(prefix), q, final)
        row = dominator(self, prefix, q, final)
        assert row == want, (self.predictions, prefix, q, final)
        rows[final is None] += 1
        return row

    monkeypatch.setattr(TreeOracle, "_dominator", checked)
    for space, locs, _ in pin_pool(family, variant):
        oracle = make_oracle(space, locs, variant)
        for mask in range((1 << len(locs)) - 1):
            oracle._batch(frozenset(i for i in range(len(locs)) if mask >> i & 1))
    assert list(rows) == [variant == "closed"] and rows[variant == "closed"] > 1000


@pytest.mark.parametrize("space, preds, variant", [
    (Line(), [1.0], "half"),
    (Line(), [math.nan], "open"),
    (Flower((1.0,), 0.5), [(3, 0.2)], "open"),
    (Tree([(0, 1, 1.0)]), [(0, 1, 2.0)], "closed"),
    (General([[0, 1], [1, 0]]), [(0, 1, 2.0)], "closed"),
])
def test_oracle_and_policy_reject_what_an_instance_rejects(space, preds, variant):
    """A bad variant or a prediction outside the space raises, before any
    oracle or policy state is built, the error an ``Instance`` raises."""
    with pytest.raises(ValueError) as want:
        Instance(space, [Request(0, space.origin(), 0.0)], preds, variant)
    for build in (make_oracle, LaSwagPolicy):
        with pytest.raises(ValueError) as got:
            build(space, preds, variant)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), build
    assert isinstance(want.value, SpaceError if variant != "half" else ValueError)


@pytest.mark.parametrize("family", ["line", "tree", "ring"])
@pytest.mark.parametrize("variant", ["closed", "open"])
def test_tree_batches_match_per_final_reference(family, variant):
    """Tree-style batches (the whole line and tree batch, the ring's tree
    part), at every release time of one oracle in turn and then over
    random released sets, equal perm for perm and in order those that
    emit each scan afresh for every final request and clean up with no
    memo."""
    rng = random.Random(f"tree-batches/{family}/{variant}")
    for space, locs, rels in pin_pool(family, variant):
        oracle = make_oracle(space, locs, variant)
        ref = make_oracle(space, locs, variant)
        ref._tree_batch = lambda idx, released, ref=ref: tree_batch_by_finals(ref, idx, released)
        steps = [frozenset(i for i, r in enumerate(rels) if r <= t) for t in sorted({0.0, *rels})]
        drawn = [frozenset(i for i in oracle.ids if rng.random() < 0.5) for _ in range(4)]
        for released in steps + drawn:
            if released != oracle.ids:
                assert oracle._batch(released) == ref._batch(released), (space, locs, sorted(released))


def test_tree_pivot_beside_its_final():
    """An unreleased final that shares its node with another unreleased
    request leaves that request as the node's pivot: with requests 0 and 1
    at one point and the others released, final 0 pivots on 1, final 1 on
    0, and a released final on 0.  At every released set the batch equals
    the per-final reference's."""
    tree = Tree([(0, 1, 1.0), (0, 2, 1.0)])
    for space, locs in ((Line(), [1.0, 1.0, -1.0, 2.0]), (tree, [(0, 1.0), (0, 1.0), (1, 0.5), (0, 0.5)])):
        oracle = make_oracle(space, locs, "open")
        ref = make_oracle(space, locs, "open")
        ref._tree_batch = lambda idx, released, ref=ref: tree_batch_by_finals(ref, idx, released)
        for mask in range(15):
            released = frozenset(i for i in range(4) if mask >> i & 1)
            assert oracle._batch(released) == ref._batch(released), (space, sorted(released))
        # (final, pivot): the first of the unreleased 0 and 1 in each row
        rows = oracle._batch(frozenset({2, 3}))
        assert {(row[-1], next(i for i in row if i < 2)) for row in rows} == {(0, 1), (1, 0), (2, 0), (3, 0)}, space


_LINE_ADVERSARY_WORK = {
    21: {"root tables": 14, "item walks": 237, "slices": 632,
         "scorings": 1283, "reads": 3404, "scan misses": 50, "tip passes": 14},
    41: {"root tables": 23, "item walks": 791, "slices": 2214,
         "scorings": 6664, "reads": 21594, "scan misses": 90, "tip passes": 24},
}


def test_line_adversary_work_counts():
    """Work done against the open line adversary at grids 21 and 41,
    counted, not timed: item preorders built (one per root walked for
    items), item walks assembled (one per (start, end) new to an index),
    the preorder slices those walks and ``path_cover`` join, oracle-entry
    scorings (calls to ``RouteStats.advance``) and the perm positions they
    pass, the scans a tree oracle filters from an item walk, one per
    (nodes, end) new to its step's table, and the maximal-node passes
    (calls to ``tips``), two per step, whatever the number of finals.  Any
    count rising fails; a fall may lower its pin."""
    walk_items, item_preorder, tips = TreeIndex.walk_items, TreeIndex._item_preorder, TreeIndex.tips
    pieces, advance, scanner = TreeIndex._pieces, RouteStats.advance, oracles._scanner
    for grid, pins in _LINE_ADVERSARY_WORK.items():
        counts = Counter()

        def counted_items(self, s, e):
            counts["item walks"] += (s, e) not in self._item_walks
            return walk_items(self, s, e)

        def counted_preorder(self, root):
            counts["root tables"] += root not in self._item_pres
            return item_preorder(self, root)

        def counted_pieces(self, s, e):
            out = pieces(self, s, e)
            counts["slices"] += len(out)
            return out

        def counted_tips(self, nodes):
            counts["tip passes"] += 1
            return tips(self, nodes)

        def counted_advance(self, released):
            k = self.cursor + 1
            out = advance(self, released)
            counts["scorings"] += 1
            counts["reads"] += min(self.cursor + 1, len(self.perm)) - k
            return out

        def counted_scanner(idx, released):
            scan, asked = scanner(idx, released), set()

            def counted_scan(nodes, e, final=None):
                counts["scan misses"] += (nodes, e) not in asked
                asked.add((nodes, e))
                return scan(nodes, e, final)
            return counted_scan

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TreeIndex, "walk_items", counted_items)
            mp.setattr(TreeIndex, "_item_preorder", counted_preorder)
            mp.setattr(TreeIndex, "_pieces", counted_pieces)
            mp.setattr(TreeIndex, "tips", counted_tips)
            mp.setattr(RouteStats, "advance", counted_advance)
            mp.setattr(oracles, "_scanner", counted_scanner)
            run_fixture("open_lb_line_adversary", grid=grid)
        for key, most in pins.items():
            assert 0 < counts[key] <= most, (grid, key, counts[key])


@pytest.mark.parametrize("kind, variant, rows, misses", [
    ("flower", "closed", 1851, 484), ("flower", "open", 10067, 2470),
    ("ring", "closed", 1488, 498), ("ring", "open", 6155, 1849)])
def test_flower_work_counts(kind, variant, rows, misses):
    """Work a flower or ring oracle does on a fixed pool (``pin_pool`` at
    n <= 7, stepped at every release time), counted, not timed: batch rows
    (calls to ``_dominator``) and clean-up misses (calls to ``_cover``,
    each a walk the memo did not hold).  Any count rising fails; a fall
    may lower its pin."""
    counts = Counter()
    cls = oracles.ORACLES[kind][0]
    dominator, cover = oracles.DominationOracle._dominator, cls._cover

    def counted_dominator(self, *args):
        counts["rows"] += 1
        return dominator(self, *args)

    def counted_cover(self, *args):
        counts["misses"] += 1
        return cover(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles.DominationOracle, "_dominator", counted_dominator)
        mp.setattr(cls, "_cover", counted_cover)
        for space, locs, rels in pin_pool(kind, variant, count=20, n_max=7):
            oracle = make_oracle(space, locs, variant)
            for t in sorted({0.0, *rels}):
                oracle.step(t, [i for i, r in enumerate(rels) if r <= t])
    assert counts["rows"] <= rows
    assert counts["misses"] <= misses


def _walks_pool(family, variant):
    """The pin pool at n <= 9, or, for "general-edge", seeded random
    General spaces with every prediction inside an edge."""
    if family != "general-edge":
        yield from pin_pool(family, variant, count=10, n_max=9)
        return
    rng = random.Random(f"{family}/{variant}")
    for _ in range(20):
        space = pin_space("general", rng)
        n = rng.randint(1, 9)
        edges = [rng.sample(range(space.n), 2) for _ in range(n)]
        locs = [space.canon((a, b, round(rng.uniform(0, space.matrix[a][b]), 3))) for a, b in edges]
        yield space, locs, [round(rng.uniform(0, 2), 3) for _ in range(n)]


def _head_length(D, head):
    """Forward length of the walk from the origin through the ids ``head``."""
    stops = [0] + [i + 1 for i in head]
    return sum(D[a][b] for a, b in zip(stops, stops[1:]))


@pytest.mark.parametrize("family", ["general", "euclid2d", "tree", "general-edge"])
@pytest.mark.parametrize("variant", ["closed", "open"])
def test_general_batches_match_walks_reference(family, variant):
    """Stepped at every release time, each (pivot, subset) dominator that
    the general oracle reads from its back table has the pivot, the tail
    and the head's request set of the one walked from a head table of that
    pivot's own, and a head whose forward length is within ``TIE`` per
    head request of the reference's: the two differ only between
    equal-length heads.  On each instance where no head differs, LA-SWAG's
    completion time is bit-identical to that of a policy whose oracle runs
    the reference.  On seeded random and grid instances up to n = 9, and on
    two inputs whose ``D`` need not be bitwise symmetric, so that a head
    reversed is exact only within ``TIE``: tree spaces served by the
    general oracle, and General points inside an edge."""
    asymmetric = untied = 0
    for space, locs, rels in _walks_pool(family, variant):
        oracle = GeneralOracle(space, locs, variant)
        tied = False
        for t in sorted({0.0, *rels}):
            released = frozenset(i for i, r in enumerate(rels) if r <= t)
            if released == oracle.ids:
                break
            want_batch = general_batch_by_walks(oracle, released)
            for perm, want in zip(oracle._batch(released), want_batch, strict=True):
                k = next(j for j, i in enumerate(want) if i not in released)
                assert (perm[k], perm[k + 1:], set(perm[:k])) == (want[k], want[k + 1:], set(want[:k]))
                assert abs(_head_length(oracle.D, perm[:k + 1]) - _head_length(oracle.D, want[:k + 1])) <= TIE * k
                tied |= perm != want
        if not tied:
            untied += 1
            inst = _instance(space, locs, rels, variant)
            ref = LaSwagPolicy(space, locs, variant, EngineConfig(oracle="general"))
            ref.oracle._batch = lambda released, o=ref.oracle: general_batch_by_walks(o, released)
            policy = LaSwagPolicy(space, locs, variant, EngineConfig(oracle="general"))
            assert simulate(inst, policy).completion_time == simulate(inst, ref).completion_time, (space, locs, rels)
        D = oracle.D
        asymmetric += any(D[a][b] != D[b][a] for a in range(len(D)) for b in range(a))
    assert untied
    if family in ("tree", "general-edge"):
        assert asymmetric


@pytest.mark.parametrize("variant", ["closed", "open"])
def test_flower_batches_match_variants_reference(variant):
    """Batches from the flower oracle's single option loop equal, perm for
    perm and in order, those built one approach at a time, and so do their
    counts of new perms; on seeded random and grid instances up to n = 7."""
    for space, locs, rels in pin_pool("flower", variant, n_max=7):
        oracle = make_oracle(space, locs, variant)
        ref = make_oracle(space, locs, variant)
        ref._batch = lambda released, ref=ref: flower_batch_by_variants(ref, released)
        for t in sorted({0.0, *rels}):
            released = [i for i, r in enumerate(rels) if r <= t]
            oracle.step(t, released)
            ref.step(t, released)
        assert oracle.batches == ref.batches, (space, locs, rels)


def test_flower_finds_maximal_nodes_once(monkeypatch):
    """Within one step, the star index makes one tip pass per distinct node
    set that some set of kept petals leaves to its scans, its released
    nodes and its unreleased ones, and no other: every final's maximal
    nodes are read from those passes."""
    calls: Counter = Counter()
    real = TreeIndex.tips

    def tips(idx, nodes):
        calls[id(idx), frozenset(nodes)] += 1
        return real(idx, nodes)

    monkeypatch.setattr(TreeIndex, "tips", tips)
    locs = [(0, 0.5), (0, 1.5), (1, 0.4), (1, 1.0), ("stem", 0.5), ("stem", 1.0), (0, 1.0)]
    oracle = make_oracle(Flower((2.0, 1.5), 1.0), locs, "open")
    idx = oracle.idx
    order = [4, 0, 2, 5, 1, 3]
    for t in range(len(order)):  # released sets grow one id at a time
        released = frozenset(order[:t])
        calls.clear()
        oracle.step(float(t), released)
        member_sets = {frozenset(idx.node_of[i] for i in ids)
                       for on in oracle._scanned.values() for ids in (on & released, on - released)}
        assert calls == Counter({(id(idx), nodes): 1 for nodes in member_sets}), t


def test_general_walks_each_dominator_once(monkeypatch):
    """A general oracle fills one Held-Karp table when closed and two when
    open, and each step reads one back chain of next hops (the head,
    reversed) and one tail chain for each (pivot, subset) of its batch that
    no earlier step held, and nothing else: n - 1 next hops per fresh
    dominator in all.  The chains are counted at ``PathTable.hops``, and
    ``PathTable.walk``, which prices its steps from the cost table without
    the next hops, is counted too: no step here releases every request, so
    no step walks, and a walk added beside the chains shows here too.  The
    all-released batch is one walk from the origin on the oracle's own tail
    table, and reads no chain."""
    filled = []

    def counted_exact_path(*args, **kwargs):
        filled.append(offline.exact_path(*args, **kwargs))
        return filled[-1]

    monkeypatch.setattr(oracles, "exact_path", counted_exact_path)
    chains = []
    real_hops, real_walk = PathTable.hops, PathTable.walk
    walks = []
    rng = random.Random(12)
    n = 7
    full = (1 << n) - 1
    locs = [random_point(Euclid2D(), rng) for _ in range(n)]
    for variant, tables in [("closed", 1), ("open", 2)]:
        filled.clear()
        oracle = GeneralOracle(Euclid2D(), locs, variant)
        assert len(filled) == tables
        tail = "back" if oracle._tail is oracle._back else "tail"
        hops_read = []

        def hops(table, j, remaining, oracle=oracle):
            chains.append(("back" if table is oracle._back else "tail", j, remaining))
            chain = real_hops(table, j, remaining)
            hops_read.append(len(chain))
            return chain

        def walk(table, start, remaining, oracle=oracle):
            walks.append((table is oracle._tail, start, remaining))
            return real_walk(table, start, remaining)

        monkeypatch.setattr(PathTable, "hops", hops)
        monkeypatch.setattr(PathTable, "walk", walk)
        seen: set = set()
        order = [3, 0, 5, 1, 6, 2]
        for t in range(len(order) + 1):  # released sets grow one id at a time
            rel_mask = sum(1 << i for i in order[:t])
            chains.clear()
            hops_read.clear()
            oracle.step(float(t), order[:t])
            keys = {(u, mask) for u in range(n) if not rel_mask >> u & 1
                    for mask in range(full + 1) if not mask & ~rel_mask}
            fresh = keys - seen
            assert sorted(chains) == sorted([("back", u, mask) for u, mask in fresh]
                                            + [(tail, u, full ^ (1 << u) ^ mask) for u, mask in fresh])
            assert sum(hops_read) == (n - 1) * len(fresh)
            assert walks == []
            seen |= keys
        # the all-released batch is one walk on the oracle's own tail table
        chains.clear()
        oracle.step(float(n), range(n))
        assert (chains, walks) == ([], [(True, 0, full)])
        walks.clear()
        assert len(filled) == tables and all(table.nxt is not None for table in filled)


# flower predictions at the origin, which the oracle's clean-ups group by
# the origin rule without the public cover's wrapper: the n = 6 open
# instance whose origin request starts an undominated order, and two
# petals and a stem with the origin given two ways
_ORIGIN_FLOWERS = [
    (Flower((2.0, 1.0), 0.0), [(0, 1.452), (0, 0.389), (0, 0.69), (0, 1.033), (0, 0.116), ("stem", 0.0)],
     [1.068, 1.666, 0.427, 1.76, 0.859, 0.637]),
    (Flower((2.0, 1.5), 1.0), [("stem", 0.0), (0, 0.5), (1, 1.0), ("stem", 0.5), (0, 2.0), (1, 0.4)],
     [0.5, 0.0, 1.0, 0.5, 1.5, 0.0]),
]


@pytest.mark.parametrize("kind, variant", [("ring", "closed"), ("flower", "closed"), ("ring", "open"),
                                           ("flower", "open")],
                         ids=["ring", "flower", "ring-open", "flower-open"])
def test_oracle_covers_match_public_covers(kind, variant):
    """An oracle's clean-up, read from its per-instance positions, is the
    public cover of the same points: every request as the start, every
    rest set and end, on a fresh oracle and on one that has stepped
    through its releases.  The flower oracle's leg table is warm in the
    second, and fills as the queries run in both, so a leg read back must
    walk as it would alone.  Flowers add inputs with predictions at the
    origin, as start, rest member and end."""
    extra = _ORIGIN_FLOWERS if kind == "flower" else []
    for sp, locs, rels in [*pin_pool(kind, variant, count=5), *extra]:
        n = len(locs)
        stepped = make_oracle(sp, locs, variant)
        for t in sorted({0.0, *rels}):
            stepped.step(t, [i for i, r in enumerate(rels) if r <= t])
        origin = sp.origin()
        for oracle in (make_oracle(sp, locs, variant), stepped):
            for qid in range(n):
                for mask in range(1 << n):
                    rest = frozenset(i for i in range(n) if mask >> i & 1 and i != qid)
                    items = [(locs[i], i) for i in sorted(rest)]
                    # the canonical end points: on a flower a raw point may name the origin another way
                    for end_pt in [origin, FREE] + oracle.predictions:
                        if kind == "ring":
                            want = ring_cover(sp.circumference, locs[qid], items, end_pt)[1]
                        else:
                            want = flower_cover(sp, locs[qid], items, end_pt)[1]
                        assert oracle._cover(qid, rest, end_pt) == want, (sp, locs, qid, rest, end_pt)


def test_flower_oracle_prices_each_leg_once(monkeypatch):
    """Across a whole open-flower policy run, the oracle's clean-ups price
    no leg twice: its leg table outlives the clean-up that filled it.  The
    breaking rule is off, since its one exact clean-up solves a fresh
    query of its own."""
    priced: Counter = Counter()
    ring_price, segment_price = offline._ring_price, offline._segment_price

    def ring(C, s, positions, end):
        priced["ring", C, s, tuple(positions), end] += 1
        return ring_price(C, s, positions, end)

    def segment(s, positions, end):
        priced["segment", s, tuple(positions), end] += 1
        return segment_price(s, positions, end)

    monkeypatch.setattr(offline, "_ring_price", ring)
    monkeypatch.setattr(offline, "_segment_price", segment)
    locs = [(0, 0.5), (0, 1.5), (1, 0.4), (1, 1.0), ("stem", 0.5), ("stem", 1.0), (0, 1.2)]
    inst = _instance(Flower((2.0, 1.5), 1.0), locs, [0.0, 0.3, 0.6, 1.1, 1.7, 2.4, 3.0], "open")
    la_swag(inst, EngineConfig(breaking_rule=False))
    assert priced and max(priced.values()) == 1


@pytest.mark.parametrize("variant", ["closed", "open"])
@pytest.mark.parametrize("kind", ["line", "tree", "ring", "flower"])
def test_tree_indexes_walk_each_cover_once(kind, variant, monkeypatch):
    """Across whole policy runs, each tree index builds the item walk of one
    (start, end) once: every scan and clean-up that asks again, at any step
    or for any final, reads back the list built first."""
    asked: dict = {}  # (index, start, end) -> every list returned
    walk_items = TreeIndex.walk_items

    def counted(idx, s, e):
        items = walk_items(idx, s, e)
        asked.setdefault((idx, s, e), []).append(items)
        return items

    monkeypatch.setattr(TreeIndex, "walk_items", counted)
    for seed in range(20):
        inst = generate_one(SweepSpec(space=kind, count=1, n=7, seed=seed, variant=variant), 0)
        la_swag(inst)
    assert max(len(lists) for lists in asked.values()) > 1
    assert all(items is lists[0] for lists in asked.values() for items in lists)


# -- protocol ----------------------------------------------------------------

def test_oracle_step_idempotent_and_monotone():
    o = make_oracle(Line(), [1.0, -0.5], "closed", "tree")
    o.step(0.0, set())
    size = len(o.entries)
    o.step(0.0, set())
    assert len(o.entries) == size
    o.step(1.0, {0})
    assert len(o.entries) >= size
    with pytest.raises(OutOfOrderEvent):
        o.step(0.5, {0})
    with pytest.raises(OutOfOrderEvent):
        o.step(2.0, set())


@pytest.mark.parametrize("family, variant", list(_BATCH_DIGESTS))
def test_step_returns_the_perms_it_appends(family, variant):
    """At each release time of the pinned pool, for the family's default
    oracle and the general oracle, ``step`` returns exactly the perms it
    appended to ``entries``, in insertion order, and a repeat of the same
    query returns [] and adds nothing: a plan scores only what ``step``
    returns."""
    for space, locs, rels in pin_pool(family, variant):
        for kind in dict.fromkeys([default_oracle_kind(space), "general"]):
            oracle = make_oracle(space, locs, variant, kind)
            for t in sorted({0.0, *rels}):
                released = [i for i, r in enumerate(rels) if r <= t]
                before = list(oracle.entries)
                new = oracle.step(t, released)
                assert list(oracle.entries) == before + new
                assert oracle.step(t, released) == []
                assert list(oracle.entries) == before + new


@pytest.mark.parametrize("kind, space, locs", [
    ("tree", Line(), [1.0, -0.5]),
    ("ring", Ring(1.0), [0.25, 0.6]),
    ("flower", Flower((1.0,), 0.5), [(0, 0.3), ("stem", 0.2)]),
    ("general", Euclid2D(), [(1.0, 0.0), (0.0, 1.0)]),
])
def test_step_rejects_bad_ids_and_times(kind, space, locs):
    """A released id outside 0..n-1, or not an int (a bool is not one),
    and a time that is not finite or is negative are refused by name
    before the oracle changes."""
    o = make_oracle(space, locs, "open", kind)
    for t, released, named in [(0.0, {2}, "[2]"), (0.0, {0, -1}, "[-1]"), (0.0, {0.0}, "[0.0]"),
                               (0.0, {True}, "[True]"), (math.nan, {0}, "nan"), (math.inf, {0}, "inf"),
                               (-math.inf, set(), "-inf"), (-5.0, {0}, "-5.0"), (-1e-300, set(), "-1e-300")]:
        with pytest.raises(ValueError, match=re.escape(named)):
            o.step(t, released)
        assert (o.batches, o.entries, o.released) == ([], {}, frozenset())
    o.step(0.0, {0})
    assert len(o.batches) == 1 and o.entries


def test_monotone_growth_of_permutation_set():
    rng = random.Random(77)
    for kind in ("tree", "ring", "flower", "general"):
        sp = random_space(kind, rng, 5)
        n = 5
        locs = [random_point(sp, rng) for _ in range(n)]
        rels = [rng.uniform(0, 3) for _ in range(n)]
        o = make_oracle(sp, locs, "closed")
        prev: set = set()
        for t in sorted({0.0} | set(rels)):
            o.step(t, {i for i in range(n) if rels[i] <= t + 1e-12})
            cur = set(o.entries)
            assert prev <= cur
            prev = cur


def test_default_oracle_kinds():
    assert default_oracle_kind(Line()) == "tree"
    assert default_oracle_kind(Tree([(0, 1, 1.0)])) == "tree"
    assert default_oracle_kind(Ring(1.0)) == "ring"
    assert default_oracle_kind(Flower((1.0,), 0.0)) == "flower"
    assert default_oracle_kind(Euclid2D()) == "general"
    assert default_oracle_kind(General([[0.0]])) == "general"
