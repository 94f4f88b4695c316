import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oltsp.spaces import (
    TREE_ROOT,
    Euclid2D,
    Flower,
    General,
    Line,
    Ring,
    SpaceError,
    Tree,
    point_from_json,
    point_to_json,
    space_from_json,
    trim_tree,
)
from oltsp.core import Instance
from oltsp.harness import FAMILIES
from oltsp.oracles import FlowerOracle
from oltsp.tolerance import SNAP

from conftest import pin_pool, random_flower, random_general, random_point, random_space, random_tree
from sensible import general_distance_by_anchors, trim_tree_by_contraction

TOL = 1e-9

KINDS = ["line", "euclid2d", "ring", "tree", "flower", "general"]


def test_tree_equality_ignores_caches():
    edges = [(0, 1, 1.0), (1, 2, 2.0)]
    a, b = Tree(edges), Tree(edges)
    assert a.distance((1, 2.0), (0, 0.5)) == pytest.approx(2.5)  # reads a's depth table
    assert a == b and repr(a) == repr(b)
    assert a != Tree([(0, 1, 1.0), (1, 2, 3.0)])


def test_ring_shorter_arc():
    r = Ring(1.0)
    assert abs(r.distance(0.2, 0.9) - 0.3) < TOL


def test_identity_distance_zero():
    for kind in KINDS:
        rng = random.Random(7)
        sp = random_space(kind, rng)
        p = random_point(sp, rng)
        assert sp.distance(p, p) == pytest.approx(0.0, abs=TOL)


def test_tree_far_point_runs_out_an_unbounded_edge():
    """On a tree with an unbounded leaf edge, the far point lies on that edge
    past ``needed``; without one it is the farthest node."""
    x = (0, 0.5)
    assert Tree([(0, 1, 1.0), (1, 2, math.inf)]).far_point(x, 3.0, None) == (1, 0.5 + 3.0 + 1.0)
    tree = Tree([(0, 1, 1.0), (1, 2, 2.0), (0, 3, 2.5)])
    assert tree.far_point(x, 9.0, None) == (2, 2.5)
    assert tree.distance(x, (2, 2.5)) == 3.0


def test_line_and_ring_move():
    assert Line().move_along(0.0, 3.0, 1.0) == pytest.approx(1.0)
    r = Ring(1.0)
    assert r.move_along(0.9, 0.2, 0.1) == pytest.approx(0.0)


def _dijkstra_tree_distance(tree: Tree, a, b, segments=64):
    """Discretized shortest-path oracle: chop each edge into segments and
    run Dijkstra over the resulting graph."""
    from scipy.sparse import lil_matrix
    from scipy.sparse.csgraph import dijkstra

    a, b = tree.canon(a), tree.canon(b)
    nodes = {("n", v): i for i, v in enumerate(range(tree.n_nodes))}
    counter = len(nodes)
    links = []
    special = {}
    for ei, (u, v, ln) in enumerate(tree.edges):
        cuts = sorted({k * ln / segments for k in range(1, segments)} |
                      {p[1] for p in (a, b) if p[0] == ei})
        prev, prev_off = ("n", u), 0.0
        for off in cuts:
            key = ("e", ei, off)
            nodes[key] = counter
            counter += 1
            links.append((nodes[prev], nodes[key], off - prev_off))
            prev, prev_off = key, off
        links.append((nodes[prev], nodes[("n", v)], ln - prev_off))

    def locate(p):
        if p[0] == -1:
            return nodes[("n", 0)]
        ei, off = p
        u, v, ln = tree.edges[ei]
        if off == ln:
            return nodes[("n", v)]
        return nodes[("e", ei, off)]

    g = lil_matrix((counter, counter))
    for i, j, w in links:
        g[i, j] = max(w, 1e-300)
        g[j, i] = max(w, 1e-300)
    dist = dijkstra(g.tocsr(), indices=locate(a))
    return dist[locate(b)]


def test_tree_distance_matches_discretized_shortest_path():
    rng = random.Random(12)
    for _ in range(15):
        tree = random_tree(rng)
        a, b = random_point(tree, rng), random_point(tree, rng)
        expect = _dijkstra_tree_distance(tree, a, b)
        assert tree.distance(a, b) == pytest.approx(expect, abs=1e-9)


def test_metric_axioms_sampled():
    rng = random.Random(3)
    for kind in KINDS:
        for _ in range(20):
            sp = random_space(kind, rng)
            a, b, c = (random_point(sp, rng) for _ in range(3))
            dab, dba = sp.distance(a, b), sp.distance(b, a)
            assert dab >= -TOL
            assert dab == pytest.approx(dba, abs=TOL)
            assert sp.distance(a, c) <= dab + sp.distance(b, c) + TOL


def test_move_along_metric_consistency():
    rng = random.Random(4)
    for kind in KINDS:
        for _ in range(25):
            sp = random_space(kind, rng)
            a, b = random_point(sp, rng), random_point(sp, rng)
            d = sp.distance(a, b)
            t = rng.uniform(0, d) if d > 0 else 0.0
            m = sp.move_along(a, b, t)
            assert sp.distance(a, m) == pytest.approx(t, abs=1e-9)
            assert sp.distance(m, b) == pytest.approx(d - t, abs=1e-9)
    # endpoints
    sp = Ring(2.0)
    assert sp.move_along(0.3, 1.4, 0.0) == pytest.approx(0.3)
    assert sp.move_along(0.3, 1.4, sp.distance(0.3, 1.4)) == pytest.approx(1.4)


def test_move_along_out_of_range():
    """Past the far end, or by no number at all, is off the geodesic."""
    rng = random.Random(5)
    for kind in KINDS:
        sp = random_space(kind, rng)
        a, b = random_point(sp, rng), random_point(sp, rng)
        for t in (math.nan, sp.distance(a, b) + 1.0):
            with pytest.raises(SpaceError, match="outside"):
                sp.move_along(a, b, t)


@pytest.mark.parametrize("space, p", [
    (Euclid2D(), (0.3, -0.4)),
    (Tree([(0, 1, 1.0), (1, 2, 2.0)]), (1, 0.5)),
    (Flower((2.0,), 1.0), (0, 0.5)),
], ids=["euclid2d", "tree", "flower"])
def test_move_along_in_place_returns_the_point(space, p):
    assert space.move_along(p, p, 0.0) == p


def test_contains_rejects_points_off_the_space():
    tree = Tree([(0, 1, 1.0)])
    assert tree.contains((0, 0.5))
    assert not tree.contains((0.0, 0.5))  # the edge index is no int
    assert not tree.contains((1, 0.5))  # no edge 1
    flower = Flower((2.0,), 1.0)
    assert flower.contains((0, 0.5))
    assert not flower.contains((1, 0.5))  # no petal 1
    general = General([[0.0, 1.0], [1.0, 0.0]])
    assert general.contains((0, 1, 0.5))
    assert not general.contains((0, 1))  # neither a site nor a segment point


def test_general_scaled_scales_a_segment_offset():
    scaled, f = General([[0.0, 1.0], [1.0, 0.0]]).scaled(2.0)
    assert f((0, 1, 0.25)) == (0, 1, 0.5)
    assert f(1) == 1
    assert scaled.matrix == [[0.0, 2.0], [2.0, 0.0]]


def test_point_from_json_needs_a_known_space():
    with pytest.raises(SpaceError, match="^unknown space$"):
        point_from_json(object(), 1.0)


def test_scale_covariance():
    rng = random.Random(9)
    for kind in KINDS:
        sp = random_space(kind, rng)
        c = rng.uniform(0.1, 100.0)
        scaled, f = sp.scaled(c)
        for _ in range(10):
            a, b = random_point(sp, rng), random_point(sp, rng)
            assert scaled.distance(f(a), f(b)) == pytest.approx(c * sp.distance(a, b), rel=1e-12, abs=1e-12)


def test_validate_general():
    ok = General([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert ok.validate() == []
    bad = General([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert any("triangle" in v for v in bad.validate())


_SIGNED_ZERO = General([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
_TINY_NEGATIVE = General([[0.0, -5e-10, 1.0], [-5e-10, 0.0, 1.0], [1.0, 1.0, 0.0]])


def test_general_distance_matches_anchors_bit_for_bit():
    """``General.distance`` reads a matrix entry for two sites: its value
    is, to the last bit, the anchor formula's, a -0.0 entry read as 0.0
    and an entry in (-FEAS, 0) as itself; points on edges agree too."""
    assert _SIGNED_ZERO.validate() == _TINY_NEGATIVE.validate() == []
    assert _SIGNED_ZERO.distance(0, 1).hex() == (0.0).hex()
    assert _TINY_NEGATIVE.distance(1, 0) == -5e-10
    rng = random.Random(38)
    spaces = [_SIGNED_ZERO, _TINY_NEGATIVE] + [random_general(rng, k) for k in range(2, 8) for _ in range(5)]
    for sp in spaces:
        points = list(range(sp.n))
        for _ in range(6):
            a, b = rng.sample(range(sp.n), 2)
            points.append(sp.canon((a, b, rng.uniform(0.0, sp.matrix[a][b]))))
        for p in points:
            for q in points:
                assert sp.distance(p, q).hex() == general_distance_by_anchors(sp, p, q).hex(), (sp, p, q)


def test_malformed_descriptors_are_named():
    with pytest.raises(SpaceError, match="malformed field 'circumference'"):
        space_from_json({"kind": "ring", "circumference": "abc"})
    assert Flower((1.0,), -0.5).validate() == ["stem length must be nonnegative"]


_TREE = Tree([(0, 1, 1.0), (1, 2, 1.0)])
_GENERAL = General([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("space, obj", [
    (Line(), True), (Line(), "0.5"), (Ring(2.0), "0.5"), (Ring(2.0), False),
    (Euclid2D(), [True, 0.0]), (Euclid2D(), ["0.1", 0.2]),
    (_TREE, [1.9, 0.5]), (_TREE, [True, 0.5]), (_TREE, [1, "0.5"]), (_TREE, [0, 10 ** 400]),
    (Flower((2.0, 1.0), 1.0), [1.7, 0.3]), (Flower((2.0, 1.0), 1.0), [True, 0.5]),
    (Flower((2.0, 1.0), 1.0), [0, True]), (Flower((2.0, 1.0), 1.0), ["stem", "0.2"]),
    (Flower((2.0, 1.0), 1.0), {"stem": 0.2}),
    (_GENERAL, True), (_GENERAL, 1.0), (_GENERAL, "1"), (_GENERAL, [0, True, 0.5]), (_GENERAL, [0, 1, "0.5"]),
    (Flower((2.0, 1.0), 1.0), [0, 0.5, 7]), (Euclid2D(), [0.1, 0.2, "x"]), (_GENERAL, [0, 1, 0.5, 3]),
    (Euclid2D(), [0.1]), (_TREE, [1]), (_GENERAL, [0, 1]),
])
def test_malformed_points_are_named(space, obj):
    """Indices must be JSON integers and offsets and coordinates JSON
    numbers: a boolean, a string or a fractional index is not coerced.  A
    point of the wrong length is not cut or padded to fit."""
    with pytest.raises(SpaceError, match=r"^request 3: location: .* is not a \w+ point$"):
        point_from_json(space, obj, "request 3: location")


def test_general_sites_must_name_every_site():
    """A library caller's ``sites`` is checked by ``validate``, as the
    matrix is; a bad one used to pass and then break ``to_json``."""
    square = [[0.0, 1.0], [1.0, 0.0]]
    for sites in (5, ["O"], ["O", 1], ("O", "A")):
        assert General(square, sites).validate() == ["sites must be a list of 2 strings"]
    assert General(square, ["O", "A"]).validate() == General(square).validate() == []
    with pytest.raises(SpaceError, match="invalid space: sites must be a list of 1 strings"):
        Instance.from_json({"space": {"kind": "general", "matrix": [[0]], "sites": 5},
                            "requests": [], "predictions": []})


def test_flower_stem_must_be_finite():
    """As the ring's circumference and the petals must be: an infinite stem
    used to validate, then break ``random_point`` and ``to_json``."""
    assert Flower((1.0,), math.inf).validate() == ["stem length must be finite"]
    assert Flower((1.0,), 0.0).validate() == []


def test_json_integers_are_numbers():
    assert point_from_json(Flower((2.0,), 1.0), [0, 1]) == (0, 1.0)
    assert point_from_json(_TREE, [1, 1]) == _TREE.canon((1, 1.0))
    assert point_from_json(Line(), -2) == -2.0
    assert point_from_json(_GENERAL, 1) == 1


def test_general_sites_round_trip():
    g = General([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], ["O", "A", "B"])
    assert g.to_json()["sites"] == ["O", "A", "B"]
    assert space_from_json(g.to_json()) == g


def test_validate_random_planar_metrics():
    rng = random.Random(31)
    for _ in range(200):
        g = random_general(rng, rng.randint(3, 7))
        assert g.validate() == []


def test_json_round_trip():
    rng = random.Random(5)
    for kind in KINDS:
        sp = random_space(kind, rng)
        sp2 = space_from_json(sp.to_json())
        p = random_point(sp, rng)
        q = random_point(sp, rng)
        p2 = point_from_json(sp2, point_to_json(p))
        q2 = point_from_json(sp2, point_to_json(q))
        assert sp2.distance(p2, q2) == pytest.approx(sp.distance(p, q), abs=1e-12)


def test_infinite_leaf_edges():
    tree = Tree([(0, 1, math.inf)])
    a, b = (0, 1.0), (0, 4.5)
    assert tree.distance(a, b) == pytest.approx(3.5)
    assert tree.distance(tree.origin(), b) == pytest.approx(4.5)


# -- trim / snip ----------------------------------------------------

def test_trim_star_two_rays():
    star = Tree([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (0, 5, 1.0)])
    pts = [(0, 1.0), (1, 1.0)]
    trimmed, nodes = trim_tree(star, pts)
    leaves = [v for v in range(1, trimmed.n_nodes) if not trimmed._children.get(v)]
    assert len(leaves) == 2


def test_trim_truncates_past_request():
    tree = Tree([(0, 1, 4.0)])
    trimmed, nodes = trim_tree(tree, [(0, 1.5)])
    assert trimmed.n_nodes == 2
    assert trimmed.edges[0][2] == pytest.approx(1.5)
    assert trimmed.depth(nodes[0]) == pytest.approx(1.5)


def test_trim_empty_points():
    tree = Tree([(0, 1, 1.0)])
    trimmed, nodes = trim_tree(tree, [])
    assert trimmed.n_nodes == 1 and nodes == []


def test_trim_preserves_distances_and_leaves():
    rng = random.Random(21)
    for _ in range(30):
        tree = random_tree(rng)
        pts = [random_point(tree, rng) for _ in range(rng.randint(1, 6))]
        trimmed, nodes = trim_tree(tree, pts)
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert trimmed.node_dist(nodes[i], nodes[j]) == pytest.approx(
                    tree.distance(pts[i], pts[j]), abs=1e-9
                )
        for v in range(1, trimmed.n_nodes):
            if not trimmed._children.get(v):
                assert v in nodes
        assert trimmed.n_nodes <= 2 * len(pts) + 2


def _trim_cases(rng):
    """Random trees with random points; integer-length trees with points on
    a half-integer grid, at nodes and on an unbounded leaf edge."""
    for _ in range(300):
        tree = random_tree(rng, rng.randint(1, 5), rng.randint(1, 9))
        yield tree, [random_point(tree, rng) for _ in range(rng.randint(0, 8))]
    for _ in range(300):
        edges = [(rng.randrange(v), v, float(rng.randint(1, 3))) for v in range(1, rng.randint(2, 10))]
        leaves = sorted(set(range(1, len(edges) + 1)) - {u for u, _, _ in edges})
        if rng.random() < 0.5:
            leaf = rng.choice(leaves)
            edges[leaf - 1] = (edges[leaf - 1][0], leaf, math.inf)
        tree = Tree(edges)
        pts = []
        for _ in range(rng.randint(0, 8)):
            ei = rng.randrange(len(edges))
            if rng.random() < 0.4:
                pts.append(tree.node_point(rng.randrange(tree.n_nodes)))
            else:
                pts.append((ei, min(edges[ei][2], rng.choice([0.5, 1.0, 1.5, 2.0, 2.5]))))
        yield tree, pts


def test_trim_matches_contraction_reference():
    # one pass makes the nodes the contraction keeps, in its order, with
    # each skipped length added in its order: the same floats
    rng = random.Random(5)
    for tree, pts in _trim_cases(rng):
        trimmed, nodes = trim_tree(tree, pts)
        ref, ref_points = trim_tree_by_contraction(tree, pts)
        assert [(u, v, ln.hex()) for u, v, ln in trimmed.edges] == [
            (u, v, float(ln).hex()) for u, v, ln in ref.edges], (tree, pts)
        assert [trimmed.node_point(v) for v in nodes] == ref_points, (tree, pts)


def _snipped(flower, predictions):
    return FlowerOracle(flower, predictions, "closed").idx


def test_snip_single_petal():
    # one prediction at each half's tip, the second within SNAP of it
    fl = Flower((2.0,), 0.0)
    idx = _snipped(fl, [(0, 1.0), (0, 1.0 + 5e-13)])
    assert set(idx.node_of) == {0, 1}
    lens = sorted(idx.plen[1:])
    assert lens == [1.0, 1.0]


def test_snip_keep_all():
    fl = Flower((2.0, 1.0), 0.5)
    oracle = FlowerOracle(fl, [(0, 0.7), (1, 0.2), ("stem", 0.5)], "closed")
    # with both petals kept, a scan reads only the stem request
    assert oracle._scanned[frozenset({0, 1})] == {2}
    idx = oracle.idx
    assert idx.par[idx.node_of[2]] == 0 and idx.plen[idx.node_of[2]] == pytest.approx(0.5)


def test_snip_preserves_origin_distances():
    rng = random.Random(2)
    for _ in range(25):
        fl = random_flower(rng)
        pts = [random_point(fl, rng) for _ in range(5)]
        idx = _snipped(fl, pts)
        for i, p in enumerate(pts):
            assert i in idx.node_of
            assert idx.tree.depth(idx.node_of[i]) == pytest.approx(fl._to_origin(fl.canon(p)), abs=1e-9)


@pytest.mark.parametrize("edges,errors", [
    ([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
     ["node 1 has multiple parents or is the root", "cycle reached from node 1",
      "cycle reached from node 2"]),
    ([(0, 1, 1.0), (3, 2, 1.0)], ["node 3 is disconnected from the root"]),
    ([(0, 1, math.inf), (1, 2, 1.0)], ["edge 0 is unbounded but node 1 has children"]),
    ([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], ["node 2 has multiple parents or is the root"]),
    ([(0, 5, 1.0)], ["edge 0 has child 5 outside 1..1"]),
    ([(0, 1, 1.0), (0, 3, 1.0)], ["edge 1 has child 3 outside 1..2"]),
], ids=["cycle", "disconnected", "unbounded-inner", "duplicate-child", "child-out-of-range", "child-id-gap"])
def test_malformed_tree_is_built_and_reported(edges, errors):
    # construction fills the depth table and terminates on any descriptor
    assert Tree(edges).validate() == errors


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0, 10), st.floats(0, 10), st.floats(0, 1))
def test_ring_triangle_property(c, a, b, f):
    r = Ring(c)
    a, b = r.canon(a), r.canon(b)
    m = r.move_along(a, b, f * r.distance(a, b))
    assert r.distance(a, m) + r.distance(m, b) == pytest.approx(r.distance(a, b), abs=1e-9)


_ZERO_MOVE_POINTS = [
    (Line(), [0.0, -1.5, 2.25]),
    (Euclid2D(), [(0.0, 0.0), (0.3, -0.4), (1.0, 1.0)]),
    (Ring(2.0), [0.0, 0.5, 1.9, 2.5]),
    # the root, nodes, interior points, and a node given by its parent edge
    (Tree([(0, 1, 1.0), (1, 2, 2.0), (1, 3, 1.5)]), [(-1, 0.0), (0, 1.0), (1, 2.0), (1, 0.5), (2, 0.75), (1, 0.0)]),
    # the origin, the stem's tip, petal points, and a petal's end and a lap past it
    (Flower((2.0, 3.0), 1.0), [("stem", 0.0), ("stem", 1.0), ("stem", 0.4), (0, 0.5), (1, 2.0), (0, 2.0), (1, 3.5)]),
    # sites, and interior points in either orientation
    (General([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]), [0, 1, 2, (0, 1, 0.5), (2, 1, 0.5), (0, 2, 1.2)]),
]


@pytest.mark.parametrize("space, points", _ZERO_MOVE_POINTS, ids=KINDS)
def test_move_along_zero_stays_at_the_start(space, points):
    """Travelling 0 toward any point leaves the server at its start, in
    canonical form: from a site, a node or an interior point."""
    for a in points:
        for b in points:
            assert space.move_along(a, b, 0.0) == space.canon(a), (a, b)


def _near(x: float):
    """``x`` moved by up to 3 half SNAPs either way, then maybe by one ulp."""
    def moved(k, ulp):
        y = x + k * SNAP / 2
        return math.nextafter(y, ulp * math.inf) if ulp else y
    return st.builds(moved, st.integers(-3, 3), st.sampled_from([0, -1, 1]))


def _offset(length: float):
    """An offset along a component of ``length``: near either end or its
    middle, or anywhere on it."""
    return st.one_of(_near(0.0), _near(length), _near(length / 2), st.floats(0.0, length))


@st.composite
def _space_and_point(draw):
    kind = draw(st.sampled_from(KINDS))
    sp = random_space(kind, random.Random(draw(st.integers(0, 1000))))
    if kind == "tree" and draw(st.booleans()):  # some edges at most 2 SNAP long
        sp = Tree([(u, v, draw(st.sampled_from([ln, SNAP / 2, SNAP, 1.5 * SNAP, 2 * SNAP])))
                   for u, v, ln in sp.edges])
    finite = st.floats(-1e6, 1e6)
    if kind == "line":
        p = draw(st.one_of(finite, _near(0.0)))
    elif kind == "euclid2d":
        p = (draw(finite), draw(finite))
    elif kind == "ring":
        C = sp.circumference
        p = draw(st.one_of(finite, _near(0.0), _near(C), _near(-C), st.floats(-C, 2 * C)))
    elif kind == "tree":
        ei = draw(st.integers(-1, len(sp.edges) - 1))
        p = TREE_ROOT if ei == -1 else (ei, draw(_offset(sp.edges[ei][2])))
    elif kind == "flower":
        k = draw(st.integers(-1, len(sp.petals) - 1))
        p = ("stem", draw(_offset(sp.stem))) if k == -1 else (k, draw(_offset(sp.petals[k]) | _near(-sp.petals[k])))
    else:
        a, b = draw(st.integers(0, sp.n - 1)), draw(st.integers(0, sp.n - 1))
        p = draw(st.just(a) | _offset(sp.matrix[a][b]).map(lambda t: (a, b, t)))
    assume(sp.contains(p))
    return sp, p


@settings(max_examples=600, deadline=None)
@given(_space_and_point())
def test_canon_is_idempotent(space_and_point):
    """A canonical point is its own canonical form, in every space, near
    nodes, ends and the snap distance too: distances and moves
    canonicalise each point once and pass it on."""
    sp, p = space_and_point
    q = sp.canon(p)
    assert sp.canon(q) == q
    assert sp.contains(q)


def test_test_pools_draw_every_family():
    """Every sweep family is a kind the tests draw: random spaces and
    points, and both pinned pools, give spaces of that kind with points
    inside them.  A family the pools do not know raises, not falls back."""
    assert set(KINDS) == set(FAMILIES)
    for family in FAMILIES:
        rng = random.Random(family)
        sp = random_space(family, rng)
        assert sp.kind == family and sp.contains(random_point(sp, rng)), family
        for variant in ("closed", "open"):
            for sp, locs, _ in pin_pool(family, variant, count=2):
                assert sp.kind == family and all(map(sp.contains, locs)), (family, variant, locs)
    with pytest.raises(ValueError):
        next(pin_pool("no such family", "closed"))


def test_flower_stem_tip_has_one_representation():
    """Offsets within SNAP of the stem's tip are one point, the tip, as
    within SNAP of the origin they are the origin."""
    fl = Flower((1.0,), 1.0)
    assert fl.canon(("stem", 1.0 - 5e-13)) == ("stem", 1.0)
    assert fl.canon(("stem", 1.0 + 5e-13)) == ("stem", 1.0)
