import itertools
import json
import math
import random

import pytest

from oltsp import offline
from oltsp.cli import main as cli_main
from oltsp.core import Instance, Request
from oltsp.fixtures import run_fixture
from oltsp.harness import SweepSpec, sweep
from oltsp.offline import (
    CLOSED,
    FREE,
    OPT_CAP,
    PathQuery,
    SizeCapExceeded,
    _latest,
    eval_serving_order,
    exact_path,
    flower_tsp,
    held_karp,
    opt_bruteforce,
    ring_cover,
    ring_tsp,
    shortest_serving_path_length,
    solve_classical,
    tree_index_for,
    tree_tsp,
)
from oltsp.spaces import Euclid2D, Flower, Line, Ring, Tree, snip_flower

from oltsp.tolerance import FEAS

from conftest import random_flower, random_point, random_space, random_tree
from sensible import opt_by_enumeration, opt_value_by_loop, ring_cover_all_cuts

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
    # the general oracle reads one table from many start rows and subsets
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
    pts = [(float(i), 0.0) for i in range(30)]
    with pytest.raises(SizeCapExceeded):
        held_karp(PathQuery(Euclid2D(), (0.0, 0.0), pts, CLOSED))


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


def test_tree_index_numbers_parents_first():
    # TreeIndex.span counts members per subtree in one pass over v = n-1..1
    rng = random.Random(31)
    for _ in range(60):
        flower = random_flower(rng, 3)
        kept = {k for k in range(len(flower.petals)) if rng.random() < 0.5}
        on_tree = [p for p in (random_point(flower, rng) for _ in range(6))
                   if p[0] == "stem" or p[0] not in kept]
        snipped, _, mapped = snip_flower(flower, kept, on_tree)
        tree = random_tree(rng)
        for space, pts in ((Line(), [random_point(Line(), rng) for _ in range(6)]),
                           (tree, [random_point(tree, rng) for _ in range(6)]),
                           (snipped, mapped)):
            idx = tree_index_for(space, dict(enumerate(pts)))
            assert all(idx.par[v] < v for v in range(1, idx.n)), (space, pts)


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
    sp = Line()
    reqs = [Request(i, float(i), 0.0) for i in range(OPT_CAP + 1)]
    with pytest.raises(SizeCapExceeded, match="subset-DP cap"):
        opt_bruteforce(Instance(sp, reqs, [r.location for r in reqs], "open"))


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
    evaluating every order, on random instances of every family and on
    tie-heavy grids where many orders share the optimum."""
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
    for inst in cases:
        got, want = opt_bruteforce(inst), opt_by_enumeration(inst)
        assert (got.length, got.order) == (want.length, want.order)


def test_opt_matches_loop_dp_bit_for_bit():
    """Above the enumeration's reach, the numpy layers give the pure-Python
    forward loop's value to the last bit, on random instances of five
    families and on tie-heavy line and ring grids."""
    rng = random.Random(31)
    for n in range(10, OPT_CAP + 1):
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


def test_opt_order_is_built_only_when_read(monkeypatch, tmp_path, capsys):
    """Callers that read only ``.length`` never run the backward pass, and
    reading ``.order`` runs it once."""
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
