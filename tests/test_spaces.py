import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oltsp.spaces import (
    Euclid2D,
    Flower,
    General,
    Line,
    Ring,
    SpaceError,
    Tree,
    point_from_json,
    point_to_json,
    snip_flower,
    space_from_json,
    trim_tree,
)

from conftest import random_flower, random_general, random_point, random_space, random_tree

TOL = 1e-9

KINDS = ["line", "euclid2d", "ring", "tree", "flower", "general"]


def test_tree_equality_ignores_caches():
    edges = [(0, 1, 1.0), (1, 2, 2.0)]
    a, b = Tree(edges), Tree(edges)
    assert a.distance((1, 2.0), (0, 0.5)) == pytest.approx(2.5)  # fills a's depth cache
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
    with pytest.raises(SpaceError):
        Line().move_along(0.0, 1.0, 2.0)


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
        p2 = point_from_json(sp2, point_to_json(sp, p))
        q2 = point_from_json(sp2, point_to_json(sp, q))
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
    trimmed, mapped = trim_tree(star, pts)
    leaves = [v for v in range(1, trimmed.n_nodes) if not trimmed._children.get(v)]
    assert len(leaves) == 2


def test_trim_truncates_past_request():
    tree = Tree([(0, 1, 4.0)])
    trimmed, mapped = trim_tree(tree, [(0, 1.5)])
    assert trimmed.n_nodes == 2
    assert trimmed.edges[0][2] == pytest.approx(1.5)
    assert trimmed.distance(trimmed.origin(), mapped[0]) == pytest.approx(1.5)


def test_trim_empty_points():
    tree = Tree([(0, 1, 1.0)])
    trimmed, mapped = trim_tree(tree, [])
    assert trimmed.n_nodes == 1 and mapped == []


def test_trim_preserves_distances_and_leaves():
    rng = random.Random(21)
    for _ in range(30):
        tree = random_tree(rng)
        pts = [random_point(tree, rng) for _ in range(rng.randint(1, 6))]
        trimmed, mapped = trim_tree(tree, pts)
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert trimmed.distance(mapped[i], mapped[j]) == pytest.approx(
                    tree.distance(pts[i], pts[j]), abs=1e-9
                )
        hosted = {trimmed.canon(m) for m in mapped}
        for v in range(1, trimmed.n_nodes):
            if not trimmed._children.get(v):
                assert trimmed.node_point(v) in hosted
        assert trimmed.n_nodes <= 2 * len(pts) + 2


def test_snip_single_petal():
    fl = Flower((2.0,), 0.0)
    tree, kept, _ = snip_flower(fl, keep_petals=())
    assert kept == {}
    lens = sorted(ln for _, _, ln in tree.edges)
    assert lens == [1.0, 1.0]


def test_snip_keep_all():
    fl = Flower((2.0, 1.0), 0.5)
    tree, kept, _ = snip_flower(fl, keep_petals=(0, 1))
    assert set(kept) == {0, 1}
    assert len(tree.edges) == 1 and tree.edges[0][2] == pytest.approx(0.5)


def test_snip_preserves_origin_distances():
    rng = random.Random(2)
    for _ in range(25):
        fl = random_flower(rng)
        pts = [random_point(fl, rng) for _ in range(5)]
        tree, kept, mapped = snip_flower(fl, keep_petals=(), points=pts)
        for p, m in zip(pts, mapped):
            assert isinstance(m, tuple) and m[0] != "petal"
            assert tree.distance(tree.origin(), m) == pytest.approx(
                fl.to_origin(p), abs=1e-9
            )


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0, 10), st.floats(0, 10), st.floats(0, 1))
def test_ring_triangle_property(c, a, b, f):
    r = Ring(c)
    a, b = r.norm(a), r.norm(b)
    m = r.move_along(a, b, f * r.distance(a, b))
    assert r.distance(a, m) + r.distance(m, b) == pytest.approx(r.distance(a, b), abs=1e-9)
