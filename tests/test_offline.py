import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oltsp import offline
from oltsp.cli import main as cli_main
from oltsp.core import Instance, Request
from oltsp.fixtures import run_fixture
from oltsp.harness import SweepSpec, sweep
from oltsp.offline import (
    CLOSED,
    FREE,
    HELD_KARP_CAP,
    PathQuery,
    SizeCapExceeded,
    TreeIndex,
    distance_matrix,
    eval_serving_order,
    exact_path,
    flower_cover,
    flower_cover_grouped,
    flower_tsp,
    held_karp,
    opt_bruteforce,
    ring_cover,
    ring_tsp,
    segment_cover,
    shortest_serving_path_length,
    star_index,
    tree_index_for,
    tree_tsp,
)
from oltsp.engine import la_swag
from oltsp.oracles import FlowerOracle, RingOracle, make_oracle
from oltsp.spaces import Euclid2D, Flower, Line, Ring, Tree, trim_tree

from oltsp.tolerance import FEAS

from conftest import (
    asymmetric_tree_instances,
    pin_pool,
    random_flower,
    random_point,
    random_space,
    random_tree,
)
from sensible import (
    _latest,
    exact_path_by_loop,
    finish_by_loop,
    flower_cover_by_masks,
    items_along,
    maximal_nodes_by_walk,
    opt_by_enumeration,
    opt_value_by_loop,
    path_cover_by_dfs,
    ring_cover_all_cuts,
    serving_order_by_latest_times,
    snipped_index_by_round_trip,
    span_by_counts,
    tree_index_by_round_trip,
    walk_by_dfs,
)

TOL = 1e-9


def _route_cost(space, start, pts, order, end):
    total = 0.0
    prev = start
    for i in order:
        total += space.distance(prev, pts[i])
        prev = pts[i]
    if end == CLOSED:
        total += space.distance(prev, start)
    elif end != FREE:
        total += space.distance(prev, end)
    return total


def _brute_path(space, start, pts, end):
    best = math.inf
    for order in itertools.permutations(range(len(pts))):
        best = min(best, _route_cost(space, start, pts, order, end))
    return best


def _rand_query(rng, kind):
    if kind == "tree":
        sp = random_tree(rng)
    elif kind == "ring":
        sp = Ring(round(rng.uniform(0.5, 2.0), 6))
    elif kind == "flower":
        sp = random_flower(rng)
    else:
        sp = Euclid2D()
    n = rng.randint(0, 6)
    pts = [random_point(sp, rng) for _ in range(n)]
    start = random_point(sp, rng) if rng.random() < 0.5 else sp.origin()
    end = rng.choice([CLOSED, FREE, "pt"])
    if end == "pt":
        end = random_point(sp, rng)
    return PathQuery(sp, start, pts, end)


def test_held_karp_trivial():
    q = PathQuery(Euclid2D(), (0.0, 0.0), [], CLOSED)
    res = held_karp(q)
    assert res.length == 0.0 and res.order == []


def test_held_karp_line_tour():
    q = PathQuery(Line(), 0.0, [1.0, 2.0, -1.0], CLOSED)
    assert held_karp(q).length == pytest.approx(6.0)


def test_held_karp_matches_brute_force():
    rng = random.Random(42)
    for _ in range(20):
        sp = Euclid2D()
        n = rng.randint(1, 6)
        pts = [random_point(sp, rng) for _ in range(n)]
        for end in (CLOSED, FREE, random_point(sp, rng)):
            q = PathQuery(sp, (0.0, 0.0), pts, end)
            res = held_karp(q)
            assert res.length == pytest.approx(_brute_path(sp, q.start, pts, end), abs=TOL)
            assert _route_cost(sp, q.start, pts, res.order, end) == pytest.approx(res.length, abs=TOL)


def test_held_karp_lex_smallest_among_optima():
    # four corners of a square: several optimal tours exist
    pts = [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    q = PathQuery(Euclid2D(), (0.0, 0.0), pts, CLOSED)
    res = held_karp(q)
    best = res.length
    orders = [
        o for o in itertools.permutations(range(3))
        if _route_cost(q.space, q.start, pts, o, CLOSED) <= best + TOL
    ]
    assert res.order == list(min(orders))


def test_path_table_reads_any_start_and_remaining_set():
    # a walk from any start row, a target or not, over any set that leaves
    # it out, is optimal and the lexicographically smallest such order
    rng = random.Random(7)
    pts = [(0.0, 0.0)] + [(rng.randint(0, 2) / 2, rng.randint(0, 2) / 2) for _ in range(6)]
    D = [[math.dist(a, b) for b in pts] for a in pts]
    targets = (1, 2, 3, 4, 5)
    for end in (0, FREE, 6):
        table = exact_path(D, targets, end)
        for start in range(6):
            for S in range(1 << len(targets)):
                if start in targets and S >> targets.index(start) & 1:
                    continue

                def cost(order):
                    rows = [start] + [targets[j] for j in order]
                    legs = sum(D[a][b] for a, b in zip(rows, rows[1:]))
                    return legs + (0.0 if end == FREE else D[rows[-1]][end])

                length, order = table.walk(start, S)
                members = [j for j in range(len(targets)) if S >> j & 1]
                best = min(cost(o) for o in itertools.permutations(members))
                assert length == pytest.approx(best, abs=TOL)
                optimal = [o for o in itertools.permutations(members) if cost(o) <= best + TOL]
                assert order == list(min(optimal))


def test_held_karp_cap():
    pts = [(float(i), 0.0) for i in range(HELD_KARP_CAP + 1)]
    with pytest.raises(SizeCapExceeded) as info:
        held_karp(PathQuery(Euclid2D(), (0.0, 0.0), pts, CLOSED))
    assert (info.value.size, info.value.cap) == (HELD_KARP_CAP + 1, HELD_KARP_CAP)
    assert str(info.value) == f"{HELD_KARP_CAP + 1} targets exceeds bitmask cap {HELD_KARP_CAP}"


def _assert_walks_match(D, targets, end, pairs):
    table, ref = exact_path(D, targets, end), exact_path_by_loop(D, targets, end)
    for start, S in pairs:
        cost, order = table.walk(start, S)
        want_cost, want_order = ref.walk(start, S)
        assert type(cost) is float, (start, S)
        assert (float.hex(cost), order) == (float.hex(want_cost), want_order), (end, start, S)


def test_exact_path_matches_loop_bit_for_bit():
    """The numpy table and its next-hop walk give the pure-Python loop's cost
    to the last bit and its order, from every row (a target outside or
    inside the set, or not a target) and, at m <= 8, every remaining set;
    on random points and on a half-integer grid whose equal-looking sums
    differ in the last bits, so the ``TIE`` rule decides steps; and on
    tree matrices that are not bitwise symmetric.  The index tables are
    built per size, so m = 13 and 14 get one random matrix each too."""
    rng = random.Random(41)
    for m in range(15):
        rows = m + 2  # row 0 a start, rows 1..m the targets, row m + 1 an end
        for grid in (False, True) if m <= 12 else (False,):
            pts = [(rng.randint(0, 4) / 2, rng.randint(0, 2) / 2) if grid else (rng.random(), rng.random())
                   for _ in range(rows)]
            D = [[math.dist(a, b) for b in pts] for a in pts]
            targets = tuple(range(1, m + 1))
            for end in (m + 1, FREE) if m > 8 else (0, m + 1, FREE):
                if m <= 8:
                    pairs = [(start, S) for start in range(rows) for S in range(1 << m)]
                else:
                    pairs = [(rng.randrange(rows), rng.randrange(1 << m)) for _ in range(300)]
                _assert_walks_match(D, targets, end, pairs)

    # from target 0, going on to target 1 costs 1e-13 more than going on to
    # target 2: both are within TIE, so the walk takes target 1
    D = [[0.0, 0.1, 10.0, 10.0],
         [0.1, 0.0, 1.0, 1.0 - 1e-13],
         [10.0, 1.0, 0.0, 1.0],
         [10.0, 1.0 - 1e-13, 1.0, 0.0]]
    _assert_walks_match(D, (1, 2, 3), FREE, [(start, S) for start in range(4) for S in range(8)])
    cost, order = exact_path(D, (1, 2, 3), FREE).walk(0, 0b111)
    assert order == [0, 1, 2] and cost == 0.1 + ((1.0 - 1e-13) + 1.0)

    # tree matrices whose two triangles differ in the last bits
    for inst in asymmetric_tree_instances():
        D = distance_matrix(inst.space, [inst.origin] + inst.locations())
        targets = tuple(range(1, inst.n + 1))
        for end in (0, FREE):
            _assert_walks_match(D, targets, end,
                                [(start, S) for start in range(inst.n + 1) for S in range(1 << inst.n)])


def test_tree_tsp_examples():
    q = PathQuery(Line(), 0.0, [-1.0, 1.0], CLOSED)
    assert tree_tsp(q).length == pytest.approx(4.0)
    q = PathQuery(Line(), 0.0, [-1.0, 1.0], 1.0)
    assert tree_tsp(q).length == pytest.approx(3.0)
    # fixed end beyond the span: 2*2.5 - 1.5
    q = PathQuery(Line(), 0.0, [-1.0, 1.5], 1.5)
    assert tree_tsp(q).length == pytest.approx(3.5)


def _nudged(space, p, rng):
    """A point 1e-10 to 5e-10 away from ``p``: closer than ``FEAS``."""
    gap = rng.uniform(1e-10, 5e-10)
    if isinstance(space, Line):
        return p + rng.choice([-gap, gap])
    ei, off = p if p[0] != -1 else (0, 0.0)  # edge 0 of a random tree leaves the root
    ln = space.edges[ei][2]
    return (ei, off - gap) if off + gap > ln else (ei, off + gap)


def test_tree_tsp_serves_points_closer_than_the_tolerance():
    # ancestry is decided on the parent array, so a point 1e-10 past
    # another is still a separate stop, not swallowed by a float test
    rng = random.Random(29)
    for trial in range(80):
        sp = Line() if trial % 2 else random_tree(rng)
        pts = []
        for _ in range(rng.randint(1, 3)):
            p = random_point(sp, rng)
            pts += [p, _nudged(sp, p, rng)]
        start = _nudged(sp, sp.origin(), rng) if rng.random() < 0.5 else random_point(sp, rng)
        end = rng.choice([CLOSED, FREE, _nudged(sp, rng.choice(pts), rng)])
        q = PathQuery(sp, start, pts, end)
        res = tree_tsp(q)
        assert sorted(res.order) == list(range(len(pts))), (trial, q)
        assert res.length == pytest.approx(held_karp(q).length, abs=1e-9), (trial, q)
    idx = tree_index_for(Line(), {"a": 1.0, "b": 1.0 + 3e-10})
    a, b = idx.node_of["a"], idx.node_of["b"]
    assert idx.maximal_nodes({a, b}, 0) == [b]
    # even within SNAP of another, a point keeps its own node: every leaf
    # of an index hosts an item
    for space, a, b in ((Line(), 1.0, 1.0 + 5e-13), (Tree([(0, 1, 2.0)]), (0, 1.0), (0, 1.0 + 5e-13))):
        assert tree_index_for(space, {"a": a, "b": b}).node_of == {"a": 1, "b": 2}, space


def _snipped_indexes(rng):
    """The flower oracle's star index over a random flower."""
    flower = random_flower(rng, 3)
    preds = [random_point(flower, rng) for _ in range(6)]
    return [FlowerOracle(flower, preds, "closed").idx]


def test_tree_index_numbers_parents_first():
    # TreeIndex.span counts members per subtree in one pass over v = n-1..1
    rng = random.Random(31)
    for _ in range(60):
        tree = random_tree(rng)
        indexes = [tree_index_for(Line(), dict(enumerate(random_point(Line(), rng) for _ in range(6)))),
                   tree_index_for(tree, dict(enumerate(random_point(tree, rng) for _ in range(6))))]
        for idx in indexes + _snipped_indexes(rng):
            assert all(idx.par[v] < v for v in range(1, idx.n)), (idx.tree, idx.node_of)


def _cross_check_indexes(rng, count):
    """Tree indexes over random trees, over lines with pairs of points
    1e-10 apart, and over snipped flowers."""
    for _ in range(count):
        tree = random_tree(rng)
        yield tree_index_for(tree, dict(enumerate(random_point(tree, rng)
                                                  for _ in range(rng.randint(1, 8)))))
        pts = []
        for _ in range(rng.randint(1, 4)):
            p = random_point(Line(), rng)
            pts += [p, _nudged(Line(), p, rng)]
        yield tree_index_for(Line(), dict(enumerate(pts)))
        yield from _snipped_indexes(rng)


def _index_tables(idx):
    return ([(v, ln.hex()) for v, ln in zip(idx.par, idx.plen)], idx.node_of, idx.items_at)


def test_star_indexes_match_round_trip_reference():
    """Lines, split rings and snipped flowers indexed by the star builder
    equal the whole trees built before, read back point by point: the
    same parents, lengths bit for bit, nodes and co-located items."""
    rng = random.Random(47)
    for _ in range(300):
        xs = []
        for _ in range(rng.randint(1, 4)):
            x = rng.choice([random_point(Line(), rng), float(rng.randint(-2, 2)), -0.0])
            xs += [x, _nudged(Line(), x, rng)] if x and x not in xs and rng.random() < 0.5 else [x]
        items = dict(enumerate(xs))
        assert _index_tables(tree_index_for(Line(), items)) == _index_tables(
            tree_index_by_round_trip(Line(), items)), xs

        C = round(rng.uniform(0.5, 2.0), 6)
        pos = [rng.choice([0.0, C / 2, C / 2 + 1e-10, C - 1e-9, round(rng.uniform(0, C), 6)])
               for _ in range(rng.randint(1, 6))]
        ring = RingOracle(Ring(C), pos, "closed")
        split = {i: p if p <= C / 2.0 else p - C for i, p in ring.arc.pos.items()}
        assert _index_tables(ring.idx) == _index_tables(tree_index_by_round_trip(Line(), split)), (C, pos)

        flower = random_flower(rng, 3)
        preds = []
        for _ in range(rng.randint(1, 6)):  # some within SNAP of a half's or the stem's tip
            k = rng.randrange(len(flower.petals) + 1)
            if k == len(flower.petals):
                ln = flower.stem
                preds.append(("stem", rng.choice([ln, ln - 5e-13, ln + 5e-13, round(rng.uniform(0, ln), 6)])))
            else:
                half = flower.petals[k] / 2
                preds.append((k, rng.choice([half, half - 5e-13, half + 5e-13, round(rng.uniform(0, 2 * half), 6)])))
        preds = [p for p in preds if flower.contains(p)]
        oracle = FlowerOracle(flower, preds, "closed")
        assert _index_tables(oracle.idx) == _index_tables(
            snipped_index_by_round_trip(flower, preds, ())), (flower, preds)
        for kept, on in oracle._scanned.items():
            assert on == set(snipped_index_by_round_trip(flower, preds, kept).node_of), (flower, preds, kept)


def _tip_cases(idx, req, root) -> list[str]:
    """The cases of ``TreeIndex.tips`` and its read that ``maximal_nodes(req,
    root)`` meets, told from the parent array alone."""
    req = set(req)
    if len(req) < 2:
        return ["single" if req else "empty"]
    cases = ["root in set" if root in req else "root outside set"] + ["member at node 0"] * (0 in req)
    top = min(req)
    kids = set()  # the children of the smallest member that the others hang from
    for v in req - {top}:
        while v != -1 and idx.par[v] != top:
            v = idx.par[v]
        kids.add(v)
    if -1 not in kids:
        cases.append("top over one branch" if len(kids) == 1 else "top over two branches")
    return cases


def test_tree_index_tables_match_reference():
    """Walks, spans and maximal nodes read from the per-index tables equal
    the per-call recomputation bit for bit: every start, with closed,
    free and every node as the end, and the maximal nodes at every root,
    over sets that meet each case of the tips they are read from.  The
    whole tree's item walk toward a closed or node end holds each walk's
    span items in the walk's order, as ``TreeOracle._dominator`` and the
    oracles' scans read them with no span."""
    rng = random.Random(43)
    cases = Counter()
    for idx in _cross_check_indexes(rng, 40):
        nodes = list(range(idx.n))
        for s in nodes:
            for _ in range(3):
                req = rng.sample(nodes, rng.randint(0, idx.n))
                for end in [CLOSED, FREE] + nodes:
                    cost, order = idx.path_cover(s, req, end)
                    ref_cost, ref_order = path_cover_by_dfs(idx, s, req, end)
                    assert (cost.hex(), order) == (ref_cost.hex(), ref_order), (idx.tree, s, req, end)
                    if end != FREE:
                        span = set(ref_order)
                        walk = idx.walk_items(s, s if end == CLOSED else end)
                        assert [i for i in walk if idx.node_of[i] in span] == items_along(
                            idx, ref_order, idx.node_of), (idx.tree, s, req, end)
                for root in nodes:
                    assert idx.maximal_nodes(req, root) == maximal_nodes_by_walk(idx, req, root), (
                        idx.tree, req, root)
                    cases.update(_tip_cases(idx, req, root))
                W, edges = idx.span(req)
                ref_W, ref_edges = span_by_counts(idx, req)
                assert (W.hex(), edges) == (ref_W.hex(), ref_edges), (idx.tree, req)
    assert len(cases) == 7, cases


def _walk_indexes(rng):
    """Tree indexes with empty and co-located nodes: random trees of 1-25
    nodes (a non-int key among the ids in some), stars of 1-5 arms and
    line stars; then each tree-style oracle's own index on the pin
    pools."""
    for _ in range(60):
        n = rng.randint(1, 25)
        edges = [(rng.choice([v - 1, rng.randrange(v)]), v, 1.0) for v in range(1, n)]
        node_of = {i: rng.randrange(n) for i in range(rng.randint(0, n + 3))}
        if rng.random() < 0.3:
            node_of[("s",)] = rng.randrange(n)
        yield TreeIndex(Tree(edges), node_of)
        ids = itertools.count()
        yield star_index([[(rng.choice([0.0, 0.5, 1.0, 1.5]), next(ids)) for _ in range(rng.randint(0, 4))]
                          for _ in range(rng.randint(1, 5))])
        yield tree_index_for(Line(), {i: rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
                                      for i in range(rng.randint(1, 12))})
    for family in ("line", "tree", "ring", "flower"):
        for variant in ("closed", "open"):
            for space, locs, _ in pin_pool(family, variant):
                yield make_oracle(space, locs, variant).idx


def test_tree_walks_match_dfs_reference():
    """``walk_items``, slices of one item preorder per start, equals for
    every (start, end) pair the items of a depth-first walk over the
    tree's own edges."""
    for idx in _walk_indexes(random.Random(53)):
        for s in range(idx.n):
            for e in range(idx.n):
                assert idx.walk_items(s, e) == walk_by_dfs(idx, s, e)[1], (idx.tree, idx.node_of, s, e)


def test_deep_path_tree_needs_no_recursion():
    # depths, the trim and every walk are iterative: no call nests per edge
    path = Tree([(v, v + 1, 1.0) for v in range(1500)])
    assert path.distance((0, 0.5), (1499, 0.5)) == 1499.0
    assert path.move_along((0, 0.5), (1499, 0.5), 1200.0) == (1200, 0.5)
    trimmed, nodes = trim_tree(path, [(1200, 0.5), (1499, 1.0)])
    assert trimmed.edges == [(0, 1, 1200.5), (1, 2, 299.5)] and nodes == [1, 2]
    q = PathQuery(path, (1100, 0.25), [(1200, 0.5), (1300, 1.0), (5, 0.0)], CLOSED)
    res = tree_tsp(q)
    assert (res.length, res.order) == (2592.0, [2, 0, 1])
    reqs = [Request(0, (1200, 0.5), 0.0), Request(1, (1010, 1.0), 1.0), Request(2, (1400, 0.0), 2.0)]
    result, _ = la_swag(Instance(path, reqs, [r.location for r in reqs], "open"))
    # every request is out at t = 2, so the clean-up runs straight up the path
    assert result.completion_time == 1402.0 and sorted(result.served_at) == [0, 1, 2]


def test_co_located_items_served_by_id():
    # id 10 sorts before 2 as a string; the index orders co-located ids as ints
    idx = tree_index_for(Line(), {i: 0.5 if i in (2, 10) else -1.0 - i for i in range(11)})
    assert idx.items_at[idx.node_of[2]] == [2, 10]
    q = PathQuery(Line(), 0.0, [0.5 if i in (2, 10) else -1.0 - i for i in range(11)], CLOSED)
    order = tree_tsp(q).order
    assert order.index(2) + 1 == order.index(10)
    # the full loop (every gap under half the circle) serves them the same way
    loop = ring_cover(1.0, 0.0, [(0.5, 10), (0.5, 2), (0.25, 11), (0.75, 12)], CLOSED)
    assert loop == (1.0, [11, 2, 10, 12])


# Co-located pairs listed larger id first: every walk serves each pair
# smaller id first, on either side of its start and in either direction.

@pytest.mark.parametrize("end", [CLOSED, FREE, 0.5])
@pytest.mark.parametrize("near", [-1.0, 1.0])
def test_segment_cover_serves_co_located_ids_smaller_first(end, near):
    req = [(near, 10), (near, 2), (-2.0 * near, 11), (-2.0 * near, 3)]
    # the closed walk and this point end sweep left first, the free walk
    # the near side first (right first when near is 1.0)
    near_first = end == FREE or near < 0
    assert segment_cover(0.0, req, end)[1] == ([2, 10, 3, 11] if near_first else [3, 11, 2, 10])


@pytest.mark.parametrize("req, end, want", [
    # a cut swept left first: 3.5 lies just left of the start
    ([(1.0, 10), (1.0, 2), (3.5, 11), (3.5, 3)], CLOSED, [3, 11, 2, 10]),
    # a cut swept right first
    ([(0.5, 10), (0.5, 2), (3.0, 11), (3.0, 3)], FREE, [2, 10, 3, 11]),
    # every gap a quarter of the circle: the full loop
    ([(1.0, 10), (1.0, 2), (3.0, 11), (3.0, 3), (2.0, 12), (2.0, 4)], CLOSED, [2, 10, 4, 12, 3, 11]),
], ids=["cut-left-first", "cut-right-first", "full-loop"])
def test_ring_cover_serves_co_located_ids_smaller_first(req, end, want):
    assert ring_cover(4.0, 0.0, req, end)[1] == want


def test_flower_cover_serves_co_located_ids_smaller_first():
    """A stem leg swept toward the origin, then a petal cut swept left
    first (1.5 lies left of the origin on a petal of length 2)."""
    flower = Flower((2.0,), 1.0)
    req = [(("stem", 0.3), 10), (("stem", 0.3), 2), ((0, 1.5), 12), ((0, 1.5), 4),
           ((0, 0.4), 11), ((0, 0.4), 3)]
    assert flower_cover(flower, ("stem", 0.8), req, flower.origin())[1] == [2, 10, 4, 12, 3, 11]


def test_tree_index_needs_a_tree_shaped_space():
    with pytest.raises(TypeError, match="not a tree-shaped space"):
        tree_index_for(Ring(1.0), {})


@pytest.mark.parametrize("kind,solver", [("tree", tree_tsp), ("ring", ring_tsp), ("flower", flower_tsp)])
def test_structured_solvers_match_held_karp(kind, solver):
    rng = random.Random({'tree': 1, 'ring': 2, 'flower': 3}[kind])
    for trial in range(120):
        q = _rand_query(rng, kind)
        res = solver(q)
        ref = held_karp(q)
        assert res.length == pytest.approx(ref.length, abs=1e-9), (trial, q.space, q.start, q.required, q.end)
        assert _route_cost(q.space, q.start, q.required, res.order, q.end) == pytest.approx(
            res.length, abs=1e-9
        )
        assert sorted(res.order) == list(range(len(q.required)))


def test_ring_tsp_examples():
    dense = [k / 10 for k in range(10)]
    q = PathQuery(Ring(1.0), 0.0, dense, CLOSED)
    assert ring_tsp(q).length == pytest.approx(1.0)
    q = PathQuery(Ring(1.0), 0.0, [0.1, 0.9], CLOSED)
    assert ring_tsp(q).length == pytest.approx(0.4)


def test_flower_tsp_examples():
    # single petal fully covered: closed cost is one loop
    pts = [(0, k / 10) for k in range(1, 10)]
    q = PathQuery(Flower((1.0,), 0.0), ("stem", 0.0), pts, CLOSED)
    assert flower_tsp(q).length == pytest.approx(1.0)
    # only stem requests behave like a line
    q = PathQuery(Flower((1.0,), 2.0), ("stem", 0.0), [("stem", 1.5), ("stem", 0.5)], CLOSED)
    assert flower_tsp(q).length == pytest.approx(3.0)


def _resimulate(instance, order):
    """Independent step-by-step re-simulation of eager serving."""
    t, pos = 0.0, instance.origin
    for i in order:
        r = instance.requests[i]
        t += instance.space.distance(pos, r.location)
        pos = r.location
        if t < r.release:
            t = r.release
    if instance.variant == "closed":
        t += instance.space.distance(pos, instance.origin)
    return t


def test_eval_serving_order():
    inst = Instance(Line(), [Request(0, 1.0, 1.0), Request(1, 0.0, 2.0)], [1.0, 0.0], "closed")
    assert eval_serving_order(inst, [1, 0]) == pytest.approx(4.0)
    assert eval_serving_order(inst, [0, 1]) == pytest.approx(2.0)


def test_eval_matches_resimulation():
    rng = random.Random(77)
    for _ in range(60):
        sp = random_tree(rng)
        n = rng.randint(1, 6)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 5)) for i in range(n)]
        inst = Instance(sp, reqs, [r.location for r in reqs], rng.choice(["open", "closed"]))
        order = list(range(n))
        rng.shuffle(order)
        assert eval_serving_order(inst, order) == pytest.approx(_resimulate(inst, order), abs=TOL)


def test_eval_zero_releases_equals_route_length():
    rng = random.Random(5)
    sp = Ring(1.0)
    locs = [random_point(sp, rng) for _ in range(5)]
    inst = Instance(sp, [Request(i, x, 0.0) for i, x in enumerate(locs)], locs, "closed")
    order = [3, 1, 4, 0, 2]
    assert eval_serving_order(inst, order) == pytest.approx(
        _route_cost(sp, inst.origin, locs, order, CLOSED)
    )


def test_opt_bruteforce_paper_instances():
    closed = Instance(Line(), [Request(0, 1.0, 1.0), Request(1, 0.0, 2.0)], [1.0, 0.0], "closed")
    assert opt_bruteforce(closed).length == pytest.approx(2.0)
    open_i = Instance(Line(), [Request(0, 1.5, 1.5)], [1.5], "open")
    assert opt_bruteforce(open_i).length == pytest.approx(1.5)
    single = Instance(Line(), [Request(0, 0.7, 1.3)], [0.7], "closed")
    assert opt_bruteforce(single).length == pytest.approx(max(1.3, 0.7) + 0.7)


def test_opt_bruteforce_matches_exhaustive_eval():
    rng = random.Random(11)
    for _ in range(25):
        sp = random_flower(rng)
        n = rng.randint(1, 5)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 3)) for i in range(n)]
        inst = Instance(sp, reqs, [r.location for r in reqs], rng.choice(["open", "closed"]))
        res = opt_bruteforce(inst)
        expect = min(
            eval_serving_order(inst, order) for order in itertools.permutations(range(n))
        )
        assert res.length == pytest.approx(expect, abs=TOL)
        assert eval_serving_order(inst, res.order) == pytest.approx(res.length, abs=TOL)


def test_opt_bruteforce_lower_bounds():
    rng = random.Random(23)
    for _ in range(40):
        sp = Ring(1.0)
        n = rng.randint(1, 5)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 3)) for i in range(n)]
        variant = rng.choice(["open", "closed"])
        inst = Instance(sp, reqs, [r.location for r in reqs], variant)
        val = opt_bruteforce(inst).length
        if variant == "closed":
            lb = max(r.release + sp.distance(r.location, inst.origin) for r in reqs)
        else:
            lb = max(r.release for r in reqs)
        assert val >= lb - TOL
        assert val >= shortest_serving_path_length(inst) - TOL


def test_opt_bruteforce_cap():
    sp = Ring(2.0 * HELD_KARP_CAP)
    reqs = [Request(i, float(i), 0.0) for i in range(HELD_KARP_CAP + 1)]
    with pytest.raises(SizeCapExceeded) as info:
        opt_bruteforce(Instance(sp, reqs, [r.location for r in reqs], "open"))
    assert (info.value.size, info.value.cap) == (HELD_KARP_CAP + 1, HELD_KARP_CAP)
    assert str(info.value) == "17 requests exceeds subset-DP cap 16"


def test_latest_is_the_largest_float_that_still_arrives_in_time():
    rng = random.Random(13)
    cases = [(1.0, 1.0 - 2.0 ** -53), (1.0, 1.0), (0.0, 0.0), (2.5, 2.0), (3.0, 0.1), (1e-300, 1.0)]
    for _ in range(2000):
        c = rng.choice([rng.uniform(0, 4), round(rng.uniform(0, 4), 1)])
        cases.append((c, rng.choice([rng.uniform(0, 4), c * rng.uniform(0.999, 1.0), c])))
    for c, d in cases:
        t = _latest(c, d)
        assert t + d <= c < math.nextafter(t, math.inf) + d


GRID_POSITIONS = [-0.3, -0.1, 0.1, 0.2, 0.3, 0.7, 1.0]
GRID_RELEASES = [0.0, 0.1, 0.3, 0.6, 1.0, 1.3]


def test_opt_matches_enumeration_bit_for_bit():
    """Same length and same (lexicographically smallest optimal) order as
    evaluating every order, on random instances of every family, on
    tie-heavy grids where many orders share the optimum and on trees whose
    distance is not bitwise symmetric."""
    rng = random.Random(2024)
    cases = []
    for kind in ("line", "euclid2d", "ring", "tree", "flower", "general"):
        for variant in ("open", "closed"):
            for _ in range(8):
                n = rng.randint(1, 8)
                sp = random_space(kind, rng, n)
                reqs = [Request(i, random_point(sp, rng), round(rng.uniform(0, 3), rng.choice([1, 6])))
                        for i in range(n)]
                cases.append(Instance(sp, reqs, [r.location for r in reqs], variant))
    for sp in (Line(), Ring(1.0)):
        for variant in ("open", "closed"):
            for _ in range(40):
                n = rng.randint(2, 8)
                reqs = [Request(i, rng.choice(GRID_POSITIONS), rng.choice(GRID_RELEASES))
                        for i in range(n)]
                cases.append(Instance(sp, reqs, [r.location for r in reqs], variant))
    for inst in cases + asymmetric_tree_instances():
        got, want = opt_bruteforce(inst), opt_by_enumeration(inst)
        assert (got.length, got.order) == (want.length, want.order)


def test_opt_matches_loop_dp_bit_for_bit():
    """Above the enumeration's reach, the numpy layers give the pure-Python
    forward loop's value to the last bit, on random instances of five
    families and on tie-heavy line and ring grids; and below it on trees
    whose distance is not bitwise symmetric."""
    rng = random.Random(31)
    for n in range(10, HELD_KARP_CAP + 1):
        cases = []
        for k, kind in enumerate(("line", "tree", "ring", "flower", "general")):
            sp = random_space(kind, rng, n)
            reqs = [Request(i, random_point(sp, rng), round(rng.uniform(0, 3), rng.choice([1, 6])))
                    for i in range(n)]
            cases.append(Instance(sp, reqs, [r.location for r in reqs], ("open", "closed")[(n + k) % 2]))
        for sp in (Line(), Ring(1.0)):
            for variant in ("open", "closed"):
                reqs = [Request(i, rng.choice(GRID_POSITIONS), rng.choice(GRID_RELEASES))
                        for i in range(n)]
                cases.append(Instance(sp, reqs, [r.location for r in reqs], variant))
        for inst in cases:
            assert float.hex(opt_bruteforce(inst).length) == float.hex(opt_value_by_loop(inst))
    for inst in asymmetric_tree_instances():
        assert float.hex(opt_bruteforce(inst).length) == float.hex(opt_value_by_loop(inst))


def test_finish_matches_loop_bit_for_bit():
    """The OPT kernel at the calls ``_serving_order`` makes: from the origin
    or a request's row, at time 0 or later, over a subset of the other
    requests, in both variants, gives the pure-Python loop's value to the
    last bit.  On random instances of five families, tie-heavy line and
    ring grids (times on the release grid too), trees whose distance is
    not bitwise symmetric, and requests at the origin released at 0.0 or
    -0.0, alone or among others, whose zero legs and times exercise the
    kernel's notes on signed zeros: ``float.hex`` tells the two zeros
    apart."""
    rng = random.Random(43)
    cases = [(inst.space, [r.location for r in inst.requests], [r.release for r in inst.requests])
             for inst in asymmetric_tree_instances()]
    for n in range(1, 11):
        for kind in ("line", "tree", "ring", "flower", "general"):
            sp = random_space(kind, rng, n)
            cases.append((sp, [random_point(sp, rng) for _ in range(n)],
                          [round(rng.uniform(0, 3), rng.choice([1, 6])) for _ in range(n)]))
        for sp in (Line(), Ring(1.0)):
            cases.append((sp, [rng.choice(GRID_POSITIONS) for _ in range(n)],
                          [rng.choice(GRID_RELEASES) for _ in range(n)]))
        cases.append((Line(), [0.0] * n, [rng.choice([0.0, -0.0]) for _ in range(n)]))
        cases.append((Ring(1.0), [rng.choice([0.0, 0.5]) for _ in range(n)],
                      [rng.choice([0.0, 0.5]) for _ in range(n)]))
    calls = 0
    for space, locs, rels in cases:
        n = len(locs)
        D = np.array(distance_matrix(space, [space.origin()] + locs))
        rel = np.array(rels, dtype=float)
        for _ in range(3):
            row = rng.randrange(n + 1)
            others = [k for k in range(n) if k != row - 1]
            if not others:
                continue
            ids = sorted(rng.sample(others, rng.randint(1, len(others))))
            for t in (0.0, rng.choice(GRID_RELEASES), round(rng.uniform(0, 3), 6)):
                for closed in (False, True):
                    got = offline._finish(D, rel, closed, row, t, ids)
                    want = finish_by_loop(D, rel, closed, row, t, ids)
                    assert float.hex(got) == float.hex(want), (locs, rels, closed, row, t, ids)
                    calls += 1
    assert calls > 1000


def test_opt_and_held_karp_share_one_table_per_size():
    """The OPT kernel and Held-Karp read one family of index tables: at a
    size both use, the second one to run finds the first one's tables."""
    rng = random.Random(47)
    sp = random_space("general", rng, 9)
    reqs = [Request(i, random_point(sp, rng), round(rng.uniform(0, 3), 3)) for i in range(9)]
    inst = Instance(sp, reqs, [r.location for r in reqs], "closed")
    D = distance_matrix(sp, [sp.origin()] + [r.location for r in reqs])
    offline._held_karp_tables.cache_clear()
    opt_bruteforce(inst).length
    exact_path(D, tuple(range(1, 10)), 0)
    info = offline._held_karp_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_opt_order_matches_latest_times_reference():
    """Above the enumeration's reach, the greedy pass through the forward
    kernel gives the backward latest-time table's order, on the kind of
    inputs of the value test above: five families, the tie-heavy line
    and ring grids, and the trees that are not bitwise symmetric.  The
    value itself is pinned by that test."""
    rng = random.Random(37)
    for n in range(9, HELD_KARP_CAP + 1):
        cases = []
        for k, kind in enumerate(("line", "tree", "ring", "flower", "general")):
            sp = random_space(kind, rng, n)
            reqs = [Request(i, random_point(sp, rng), round(rng.uniform(0, 3), rng.choice([1, 6])))
                    for i in range(n)]
            cases.append(Instance(sp, reqs, [r.location for r in reqs], ("open", "closed")[(n + k) % 2]))
        for sp in (Line(), Ring(1.0)):
            for variant in ("open", "closed"):
                reqs = [Request(i, rng.choice(GRID_POSITIONS), rng.choice(GRID_RELEASES))
                        for i in range(n)]
                cases.append(Instance(sp, reqs, [r.location for r in reqs], variant))
        for inst in cases:
            res = opt_bruteforce(inst)
            assert res.order == serving_order_by_latest_times(inst, res.length)
    for inst in asymmetric_tree_instances():
        res = opt_bruteforce(inst)
        assert res.order == serving_order_by_latest_times(inst, res.length)


@pytest.mark.parametrize("family", ["line", "tree", "ring", "flower", "general", "euclid2d"])
def test_opt_value_is_its_order_evaluated_leg_by_leg(family):
    """OPT's value is, to the last bit, its own serving order evaluated leg
    by leg by ``eval_serving_order``: on the pin pools of each family and
    variant and on trees whose distance is not bitwise symmetric, where a
    leg read against the walking direction moves the value by an ulp."""
    cases = asymmetric_tree_instances() if family == "tree" else []
    for variant in ("closed", "open"):
        for space, locs, rels in pin_pool(family, variant):
            reqs = [Request(i, x, t) for i, (x, t) in enumerate(zip(locs, rels))]
            cases.append(Instance(space, reqs, locs, variant))
    for inst in cases:
        opt = opt_bruteforce(inst)
        assert float.hex(opt.length) == float.hex(eval_serving_order(inst, opt.order)), inst.to_json()


def test_opt_order_is_built_only_when_read(monkeypatch, tmp_path, capsys):
    """Callers that read only ``.length`` never build the serving order,
    and reading ``.order`` builds it once."""
    real = offline._serving_order

    def refuse(*args):
        raise AssertionError("the serving order was built")

    monkeypatch.setattr(offline, "_serving_order", refuse)
    rows, violations, skipped = sweep(SweepSpec(space="line", count=1, n=9, seed=4, eta=[0.0]))
    assert len(rows) == 1 and violations == [] and skipped == []
    rng = random.Random(5)
    reqs = [Request(i, random_point(Line(), rng), round(rng.uniform(0, 3), 3)) for i in range(9)]
    inst = Instance(Line(), reqs, [r.location for r in reqs], "closed")
    path = tmp_path / "n9.json"
    path.write_text(json.dumps(inst.to_json()))
    assert cli_main(["run", str(path)]) == 0
    assert "opt: " in capsys.readouterr().out
    assert run_fixture("remark_2_5_closed_line").passed

    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(offline, "_serving_order", counted)
    res = opt_bruteforce(inst)
    assert calls == []
    first, second = res.order, res.order
    assert len(calls) == 1 and first is second
    assert first == opt_by_enumeration(inst).order


RING_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]


def test_ring_cover_matches_all_cuts():
    """Pricing the cuts without building their walks picks the same walk as
    building every cut: equal cost and order, random and grid-tie inputs,
    closed, free and fixed ends."""
    rng = random.Random(17)
    cases = [(1.0, 0.3, [], 0.8), (2.0, 0.0, [], 1.0), (1.0, 0.5, [], CLOSED), (1.0, 0.5, [], FREE)]
    for _ in range(1500):
        if rng.random() < 0.5:
            C = round(rng.uniform(0.5, 2.0), 6)
            pick = lambda: round(rng.uniform(-0.5, C + 0.5), rng.choice([2, 6]))  # noqa: E731
        else:
            C = rng.choice([1.0, 2.0])
            pick = lambda: rng.choice(RING_GRID)  # noqa: E731
        req = [(pick(), i) for i in range(rng.randint(0, 12))]
        end = rng.choice([CLOSED, FREE, pick()])
        cases.append((C, pick(), req, end))
    for C, s, req, end in cases:
        assert ring_cover(C, s, req, end) == ring_cover_all_cuts(C, s, req, end), (C, s, req, end)


def test_ring_cover_matches_all_cuts_on_edge_floats():
    """The cut sweep reads each segment's extremes off the two positions
    beside its gap; that holds for positions that ``%`` wraps onto C, that
    sit an ulp inside C, or that lie closer together than TIE."""
    rng = random.Random(23)
    for _ in range(3000):
        C = rng.choice([1.0, 2.0, 0.1 + 0.2, round(rng.uniform(0.5, 2.0), 6)])
        edges = [-1e-17, -5e-13, 0.0, 1e-16, 5e-13, C / 2, C - 1e-16, C - 5e-13, C]
        base = [rng.choice(edges) if rng.random() < 0.5 else round(rng.uniform(0.0, C), 6)
                for _ in range(rng.randint(1, 4))]

        def pick():
            return rng.choice(base) + rng.choice([0.0, 0.0, 1e-16, -1e-16, 1e-13, 2e-12])

        req = [(pick(), i) for i in range(rng.randint(0, 8))]
        end = rng.choice([CLOSED, FREE, pick()])
        s = pick()
        got, want = ring_cover(C, s, req, end), ring_cover_all_cuts(C, s, req, end)
        assert got[0].hex() == want[0].hex() and got[1] == want[1], (C, s, req, end)


def _flower_point(flower, rng, grid):
    c = rng.choice(list(range(len(flower.petals))) + (["stem"] if flower.stem > 0 else []))
    ln = flower.stem if c == "stem" else flower.petals[c]
    if grid:
        return (c, rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) * ln)
    return (c, round(rng.uniform(0.0, ln), rng.choice([2, 6])))


def test_flower_cover_matches_masks_reference():
    """Legs priced once, and the winner walked from their cuts, give the
    reference's cost (bit for bit) and order: 1-3 petals with and without
    a stem, random and grid-tie offsets, starts at the origin, on a petal
    and on the stem, and every kind of end.  Each drawn (flower, req)
    shares one leg table across all its starts and ends, in a forward and
    then a reverse pass, through ``flower_cover_grouped`` as the flower
    oracle calls it, so legs priced and walked for one query are read back
    by the others; ``flower_cover``, with a fresh table per call, must
    agree as well."""
    rng = random.Random(29)
    for _ in range(1500):
        grid = rng.random() < 0.5
        petals = tuple(rng.choice([1.0, 2.0]) if grid else round(rng.uniform(0.5, 2.0), 6)
                       for _ in range(rng.randint(1, 3)))
        flower = Flower(petals, rng.choice([0.0, 1.0]))
        req = [(_flower_point(flower, rng, grid), i) for i in range(rng.randint(0, 7))]
        starts = [flower.origin(), _flower_point(flower, rng, grid)]
        if flower.stem > 0:
            starts.append(("stem", rng.choice([0.5, 1.0]) if grid else rng.uniform(0.0, 1.0)))
        ends = (CLOSED, FREE, flower.origin(), _flower_point(flower, rng, grid))
        queries = [(s, end) for s in starts for end in ends]
        table: dict = {}
        canon = [(flower.canon(p), k) for p, k in req]
        for s, end in queries + queries[::-1]:
            want = flower_cover_by_masks(flower, s, req, end)
            cs, ce = flower.canon(s), end if end in (FREE, CLOSED) else flower.canon(end)
            shared = flower_cover_grouped(flower, cs, canon, ce, table)
            for got in (shared, flower_cover(flower, s, req, end)):
                assert got[0].hex() == want[0].hex() and got[1] == want[1], (flower, s, req, end)


def test_flower_cover_serves_petals_in_id_order():
    # petal 10 sorts before 2 as a string; equal closed loops go by id
    flower = Flower((1.0,) * 12)
    req = [((2, 0.5), 2), ((10, 0.5), 10), ((1, 0.5), 1)]
    assert flower_cover(flower, flower.origin(), req, CLOSED) == (3.0, [1, 2, 10])


def test_opt_above_the_old_factorial_cap():
    rng = random.Random(7)
    for kind in ("line", "tree", "ring", "flower", "general"):
        sp = random_space(kind, rng, 11)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 3)) for i in range(11)]
        variant = rng.choice(["open", "closed"])
        inst = Instance(sp, reqs, [r.location for r in reqs], variant)
        res = opt_bruteforce(inst)
        if variant == "closed":
            lb = max(r.release + sp.distance(r.location, inst.origin) for r in reqs)
        else:
            lb = max(r.release for r in reqs)
        assert res.length >= lb - FEAS
        assert res.length >= shortest_serving_path_length(inst) - FEAS
        assert sorted(res.order) == list(range(11))
        assert eval_serving_order(inst, res.order) == pytest.approx(res.length, abs=FEAS)


@pytest.mark.parametrize("variant", ["closed", "open"])
def test_line_optimum_matches_opt_bruteforce(variant):
    """The peel DP on random and tie-heavy line instances at n <= 10: the
    subset DP's value within ``FEAS``, a permutation for its order, and
    that order evaluated leg by leg for its value, to the last bit."""
    for space, locs, rels in pin_pool("line", variant, count=100, n_max=10):
        inst = Instance(space, [Request(i, x, t) for i, (x, t) in enumerate(zip(locs, rels))], locs, variant)
        res = offline._line_optimum(inst)
        assert abs(res.length - opt_bruteforce(inst).length) <= FEAS, inst.to_json()
        assert sorted(res.order) == list(range(inst.n))
        assert float.hex(eval_serving_order(inst, res.order)) == float.hex(res.length)


def test_line_optimum_memory_stays_near_its_choice_bits():
    """The peel DP builds each block length's legs and releases inside its
    loop, so at n = 1000 (line, open) its traced peak is the n^2 choice
    bits (1 MB) and O(n) arrays: 1.3 MB, where tables for every block
    length at once peaked at 96 MB."""
    rng = random.Random(53)
    reqs = [Request(i, rng.uniform(-5, 5), rng.uniform(0, 8)) for i in range(1000)]
    inst = Instance(Line(), reqs, [r.location for r in reqs], "open")
    tracemalloc.start()
    try:
        offline._line_optimum(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_opt_bruteforce_is_exact_on_the_line_above_the_cap():
    """Above ``HELD_KARP_CAP`` a line instance gets the peel DP's optimum (a
    ring raises, see above).  Requests at -5..11, each released at its
    distance from the origin.  Open, the optimal route goes to -5 first and
    then to 11 (21, where 11 first takes 27), and its peel order serves -5
    first; closed, either way round takes 32."""
    reqs = [Request(i, float(k), abs(k)) for i, k in enumerate(range(-5, 12))]
    res = opt_bruteforce(Instance(Line(), reqs, [r.location for r in reqs], "open"))
    assert (res.length, res.order) == (21.0, list(range(17)))
    assert opt_bruteforce(Instance(Line(), reqs, [r.location for r in reqs], "closed")).length == 32.0


def test_shortest_serving_path_examples():
    closed = Instance(Line(), [Request(0, 1.0, 9.0), Request(1, -1.0, 9.0)], [1.0, -1.0], "closed")
    assert shortest_serving_path_length(closed) == pytest.approx(4.0)
    open_i = Instance(Line(), [Request(0, 1.0, 9.0), Request(1, -1.0, 9.0)], [1.0, -1.0], "open")
    assert shortest_serving_path_length(open_i) == pytest.approx(3.0)


def test_shortest_serving_path_matches_held_karp():
    rng = random.Random(71)
    for _ in range(30):
        sp = random_flower(rng)
        n = rng.randint(1, 6)
        reqs = [Request(i, random_point(sp, rng), 0.0) for i in range(n)]
        variant = rng.choice(["open", "closed"])
        inst = Instance(sp, reqs, [r.location for r in reqs], variant)
        q = PathQuery(sp, inst.origin, inst.locations(), CLOSED if variant == "closed" else FREE)
        assert shortest_serving_path_length(inst) == pytest.approx(held_karp(q).length, abs=TOL)
