import hashlib
import itertools
import math
import random
from collections import Counter

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
    tree_index_for,
    tree_tsp,
)
from oltsp.oracles import (
    GeneralOracle,
    OutOfOrderEvent,
    RingOracle,
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
    walk_by_dfs,
)
from oltsp.spaces import Euclid2D, Flower, General, Line, Ring, Tree
from oltsp.tolerance import TIE

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
    arm of the split index, and its arm and depth say the same."""
    o = RingOracle(Ring(1.0), [0.5 + 5e-13, 0.25], "closed")
    assert o.idx.node_of == {0: 1, 1: 2}
    assert o.idx.par[1] == 0 and o.idx.plen[1] == o.depth[0] == 1.0 - (0.5 + 5e-13)
    assert o.arm == [-1, 1]


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


# A smaller one: at t=0 the order (5,4,1,2,3,0) is dominated by no entry.
# It serves the request at the origin, then sweeps petal 0 forward across
# its antipode; its pivot, at the origin, is never a maximal node.
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


@pytest.mark.xfail(strict=True, reason="open FlowerOracle leaves some orders undominated")
@pytest.mark.parametrize("spec", [_OPEN_FLOWER_GAP, _OPEN_FLOWER_GAP_N6], ids=["n7", "n6"])
def test_open_flower_domination_gap(spec):
    inst = Instance.from_json(spec)
    _check_domination(inst, list(itertools.permutations(range(inst.n))))


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
    ("flower", "open"): "3180a76c045ffb16629ccdb386682e86b4c038cf59248e600808ce09a9052f45",
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
    """``TreeOracle._cover`` from the origin and from every request, over
    random subsets of the requests, to the origin and to every request,
    equals the items emitted along the whole node walk of an independent
    depth-first search (``walk_by_dfs``); to no fixed end it equals the
    items along an uncached ``path_cover``."""
    rng = random.Random(f"cleanups/{family}/{variant}")
    for space, locs, _ in pin_pool(family, variant):
        oracle = make_oracle(space, locs, variant)
        idx, node_of = oracle.idx, oracle.idx.node_of
        for qid in [None, *range(len(locs))]:
            s = 0 if qid is None else node_of[qid]
            for _ in range(3):
                rest = frozenset(i for i in range(len(locs)) if rng.random() < 0.6)
                for end in [CLOSED, *range(len(locs))]:
                    walk = walk_by_dfs(idx, s, 0 if end == CLOSED else node_of[end])[0]
                    assert oracle._cover(qid, rest, end) == items_along(idx, walk, rest)
                free = idx.path_cover(s, {node_of[i] for i in rest}, FREE)[1] if rest else []
                assert oracle._cover(qid, rest, FREE) == items_along(idx, free, rest)


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


_LINE_ADVERSARY_WORK = {
    21: {"root tables": 14, "item walks": 237, "slices": 632,
         "scorings": 1283, "reads": 3404, "scan misses": 50},
    41: {"root tables": 23, "item walks": 791, "slices": 2214,
         "scorings": 6664, "reads": 21594, "scan misses": 90},
}


def test_line_adversary_work_counts():
    """Work done against the open line adversary at grids 21 and 41,
    counted, not timed: item preorders built (one per root walked for
    items), item walks assembled (one per (start, end) new to an index),
    the preorder slices those walks and ``path_cover`` join, oracle-entry
    scorings (calls to ``first_unreleased``) and the perm positions they
    read, and the scans a tree oracle filters from an item walk, one per
    (nodes, end) new to its step's table.  Any count rising fails; a fall
    may lower its pin."""
    walk_items, item_preorder = TreeIndex.walk_items, TreeIndex._item_preorder
    pieces, first_unreleased, scanner = TreeIndex._pieces, RouteStats.first_unreleased, oracles._scanner
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

        def counted_first(self, released, k=0):
            out = first_unreleased(self, released, k)
            counts["scorings"] += 1
            counts["reads"] += min(out + 1, len(self.perm)) - k
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
            mp.setattr(RouteStats, "first_unreleased", counted_first)
            mp.setattr(oracles, "_scanner", counted_scanner)
            run_fixture("open_lb_line_adversary", grid=grid)
        for key, most in pins.items():
            assert counts[key] <= most, (grid, key, counts[key])


@pytest.mark.parametrize("variant, rows, misses", [("closed", 1851, 524), ("open", 9685, 2432)])
def test_flower_work_counts(variant, rows, misses):
    """Work a flower oracle does on a fixed pool (``pin_pool`` at n <= 7,
    stepped at every release time), counted, not timed: batch rows (calls
    to ``_dominator``) and clean-up misses (calls to ``_cover``, each a
    walk the memo did not hold).  Any count rising fails; a fall may lower
    its pin."""
    counts = Counter()
    dominator, cover = oracles.DominationOracle._dominator, oracles.FlowerOracle._cover

    def counted_dominator(self, *args):
        counts["rows"] += 1
        return dominator(self, *args)

    def counted_cover(self, *args):
        counts["misses"] += 1
        return cover(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles.DominationOracle, "_dominator", counted_dominator)
        mp.setattr(oracles.FlowerOracle, "_cover", counted_cover)
        for space, locs, rels in pin_pool("flower", variant, count=20, n_max=7):
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
    """Within one step, the star index is asked for the maximal released
    nodes a scan reads at most once per (kept petals, root), and for the
    maximal unreleased ones at most once per (kept petals, final, pivot is
    the final)."""
    calls: Counter = Counter()
    real = TreeIndex.maximal_nodes

    def maximal_nodes(idx, nodes, root=0):
        calls[id(idx), root, frozenset(nodes)] += 1
        return real(idx, nodes, root)

    monkeypatch.setattr(TreeIndex, "maximal_nodes", maximal_nodes)
    locs = [(0, 0.5), (0, 1.5), (1, 0.4), (1, 1.0), ("stem", 0.5), ("stem", 1.0), (0, 1.0)]
    n = len(locs)
    oracle = make_oracle(Flower((2.0, 1.5), 1.0), locs, "open")
    order = [4, 0, 2, 5, 1, 3]
    for t in range(len(order)):  # released sets grow one id at a time
        released = frozenset(order[:t])
        calls.clear()
        oracle.step(float(t), released)
        allowed: Counter = Counter()
        idx = oracle.idx
        for kept, on in oracle._scanned.items():
            rel_nodes = frozenset(idx.node_of[i] for i in on if i in released)
            roots = set()
            for qf in [None, *range(n)]:
                root = idx.node_of[qf] if qf in on else 0
                roots.add(root)
                is_final = oracle.ids - released == {qf}
                allowed[id(idx), root, frozenset(
                    idx.node_of[i] for i in on if i not in released and (i != qf or is_final))] += 1
            for root in roots:
                allowed[id(idx), root, rel_nodes] += 1
        assert calls and calls <= allowed, t


def test_general_walks_each_dominator_once(monkeypatch):
    """A general oracle fills one Held-Karp table when closed and two when
    open, and each step walks one back walk (the head, reversed) and one
    tail walk for each (pivot, subset) of its batch that no earlier step
    held, and nothing else."""
    filled = []

    def counted_exact_path(*args):
        filled.append(offline.exact_path(*args))
        return filled[-1]

    monkeypatch.setattr(oracles, "exact_path", counted_exact_path)
    walked = []
    real_walk = PathTable.walk
    rng = random.Random(12)
    n = 7
    full = (1 << n) - 1
    locs = [random_point(Euclid2D(), rng) for _ in range(n)]
    for variant, tables in [("closed", 1), ("open", 2)]:
        filled.clear()
        oracle = GeneralOracle(Euclid2D(), locs, variant)
        assert len(filled) == tables
        tail = "back" if oracle._tail is oracle._back else "tail"

        def walk(table, start, remaining, oracle=oracle):
            walked.append(("back" if table is oracle._back else "tail", start, remaining))
            return real_walk(table, start, remaining)

        monkeypatch.setattr(PathTable, "walk", walk)
        seen: set = set()
        order = [3, 0, 5, 1, 6, 2]
        for t in range(len(order) + 1):  # released sets grow one id at a time
            rel_mask = sum(1 << i for i in order[:t])
            walked.clear()
            oracle.step(float(t), order[:t])
            keys = {(u, mask) for u in range(n) if not rel_mask >> u & 1
                    for mask in range(full + 1) if not mask & ~rel_mask}
            fresh = keys - seen
            assert sorted(walked) == sorted([("back", u + 1, mask) for u, mask in fresh]
                                            + [(tail, u + 1, full ^ (1 << u) ^ mask) for u, mask in fresh])
            seen |= keys
        assert len(filled) == tables


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
    public cover of the same points: every start, rest set and end, on a
    fresh oracle and on one that has stepped through its releases.  The
    flower oracle's leg table is warm in the second, and fills as the
    queries run in both, so a leg read back must walk as it would alone.
    Flowers add inputs with predictions at the origin, as start, rest
    member and end."""
    extra = _ORIGIN_FLOWERS if kind == "flower" else []
    for sp, locs, rels in [*pin_pool(kind, variant, count=5), *extra]:
        n = len(locs)
        stepped = make_oracle(sp, locs, variant)
        for t in sorted({0.0, *rels}):
            stepped.step(t, [i for i, r in enumerate(rels) if r <= t])
        origin = sp.origin()
        for oracle in (make_oracle(sp, locs, variant), stepped):
            for qid in [None] + list(range(n)):
                start = origin if qid is None else locs[qid]
                for mask in range(1 << n):
                    rest = frozenset(i for i in range(n) if mask >> i & 1 and i != qid)
                    items = [(locs[i], i) for i in sorted(rest)]
                    for end in [CLOSED, FREE] + list(range(n)):
                        end_pt = origin if end == CLOSED else (FREE if end == FREE else locs[end])
                        if kind == "ring":
                            want = ring_cover(sp.circumference, start, items, end_pt)[1]
                        else:
                            want = flower_cover(sp, start, items, end_pt)[1]
                        assert oracle._cover(qid, rest, end) == want, (sp, locs, qid, rest, end)


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
