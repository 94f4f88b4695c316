import hashlib
import itertools
import math
import random

import pytest

from oltsp.core import Instance, Request, route_stats
from oltsp.offline import PathQuery, held_karp, opt_bruteforce, tree_index_for, tree_tsp, FREE, CLOSED
from oltsp.oracles import (
    GeneralOracle,
    OutOfOrderEvent,
    RingOracle,
    default_oracle_kind,
    make_oracle,
)
from sensible import (
    sensible_flower_perms,
    sensible_ring_perms,
    sensible_tree_open_perms,
    sensible_tree_perms,
)
from oltsp.spaces import Euclid2D, Flower, General, Line, Ring, Tree

from conftest import random_flower, random_general, random_point, random_space, random_tree

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
    rng = random.Random(2)
    for trial in range(20):
        n = rng.randint(1, 5)
        pos = [rng.uniform(0, 1) for _ in range(n)]
        rels = [rng.uniform(0, 2) for _ in range(n)]
        of = make_oracle(Flower((1.0,), 0.0), [(0, p) for p in pos], "closed", "flower")
        og = make_oracle(Ring(1.0), pos, "closed", "ring")
        for t in sorted({0.0} | set(rels)):
            rel = {i for i in range(n) if rels[i] <= t + 1e-12}
            of.step(t, rel)
            og.step(t, rel)
        assert set(of.entries) == set(og.entries)


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


# An open flower whose oracle misses a few orders: at t=2.171, 4 of the 5040
# orders are dominated by no entry, (0,1,6,4,5,3,2) by a gap of 0.067.  The
# optimum's order stays dominated, and LA-SWAG's ratio is 1.056.
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


@pytest.mark.xfail(strict=True, reason="open FlowerOracle leaves some orders undominated")
def test_open_flower_domination_gap():
    inst = Instance.from_json(_OPEN_FLOWER_GAP)
    _check_domination(inst, list(itertools.permutations(range(inst.n))))


# -- pinned batches ----------------------------------------------------------

_GRID_TREE = Tree([(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (0, 4, 1.0)])
_GRID_FLOWER = Flower((2.0, 2.0), 1.0)


def _pin_space(family, rng):
    if family == "line":
        return Line()
    if family == "ring":
        return Ring(rng.choice([1.0, 2.0, 3.0]))
    if family == "tree":
        return Tree([(rng.randrange(child), child, rng.choice([0.5, 1.0, 1.5]))
                     for child in range(1, rng.randint(2, 5))])
    return Flower(tuple(rng.choice([1.0, 2.0]) for _ in range(rng.randint(1, 2))),
                  rng.choice([0.0, 1.0]))


def _pin_point(space, rng):
    if isinstance(space, Line):
        return round(rng.uniform(-2, 2), 3)
    if isinstance(space, Ring):
        return round(rng.uniform(0, space.circumference), 3)
    if isinstance(space, Tree):
        ei = rng.randrange(len(space.edges))
        return space.canon((ei, round(rng.uniform(0, space.edges[ei][2]), 3)))
    c = rng.choice(list(range(len(space.petals))) + (["stem"] if space.stem > 0 else []))
    ln = space.stem if c == "stem" else space.petals[c]
    return space.canon((c, round(rng.uniform(0, ln), 3)))


def _grid_point(space, rng):
    # on the grid spaces: ties in position, depth, antipode and petal middle
    if isinstance(space, Line):
        return rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])
    if isinstance(space, Ring):
        return rng.choice([0.0, 0.5, 1.0, 1.5])
    if isinstance(space, Tree):
        return space.canon((rng.randrange(len(space.edges)), rng.choice([0.5, 1.0])))
    c = rng.choice([0, 1, "stem"])
    return space.canon((c, rng.choice([0.5, 1.0]) if c == "stem" else rng.choice([0.5, 1.0, 1.5])))


def _pin_pool(family, variant, count=40, n_max=6):
    """``count`` seeded random instances (30% of them with a duplicated
    prediction), then ``count`` tie-heavy ones on a fixed grid space, as
    (space, predictions, release times)."""
    rng = random.Random(f"{family}/{variant}")
    for _ in range(count):
        space = _pin_space(family, rng)
        n = rng.randint(1, n_max)
        locs = [_pin_point(space, rng) for _ in range(n)]
        if rng.random() < 0.3:
            locs[rng.randrange(n)] = rng.choice(locs)
        yield space, locs, [round(rng.uniform(0, 2), 3) for _ in range(n)]
    space = {"line": Line(), "ring": Ring(2.0), "tree": _GRID_TREE, "flower": _GRID_FLOWER}[family]
    for _ in range(count):
        n = rng.randint(1, n_max)
        yield (space, [_grid_point(space, rng) for _ in range(n)],
               [rng.choice([0.0, 0.5, 1.0, 1.5]) for _ in range(n)])


def _batches_digest(family, variant):
    texts = []
    for space, locs, rels in _pin_pool(family, variant):
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
    ("ring", "closed"): "b491c2a5915d186d79dab095cd40cdc751441f242e1d0f00ab6f4abcc6df79fb",
    ("ring", "open"): "d433a8a57fc174dc716439f426ce23e99325bd71278145a2a564f24282d22f59",
    ("flower", "closed"): "9fc34e3f27ecea212d66809df2b9800196048feb713b723ea25c62262b3b2382",
    ("flower", "open"): "01a5610f10da0e5f94ce6c03222a0b00a6c99fa418646ddbc1a04f52259e4c5f",
}


@pytest.mark.parametrize("family, variant", list(_BATCH_DIGESTS))
def test_batches_unchanged(family, variant):
    """Every batch of the structured oracles, stepped at each release time
    of a seeded random pool and a tie-heavy grid pool, is pinned by one
    sha256 per family and variant.  Only a change meant to alter batches
    (a new dominator, such as a fix for the open-flower gap above) may
    update a digest, and it must say so in CHANGES.md."""
    assert _batches_digest(family, variant) == _BATCH_DIGESTS[family, variant]


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
