"""Exact classical TSP-path solvers (release times ignored) and the
release-time-aware optimum, a subset DP over release dates.

``held_karp`` is the bitmask DP reference for any metric; the tree, ring
and flower solvers are the fast structured equivalents.  All of them take
a :class:`PathQuery` (start anywhere, required point set, end fixed /
free / closed) and return an :class:`OptResult` whose serving order
reproduces the optimal length.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any

import numpy as np

from .spaces import Flower, Line, Ring, Space, Tree, trim_tree
from .tolerance import TIE

FREE = "free"
CLOSED = "closed"
_ORIGIN = ("stem", 0.0)  # a flower's origin, canonical

# The one cap of the subset DP, Held-Karp's and OPT's alike.  At the cap a
# table keeps m 2^m doubles (8.4 MB; Held-Karp adds as many next-hop bytes);
# filling one peaks at 24 MB at most above the shared index tables, 6.6 MB
# of that the middle layer's candidates (C(16, 8) 8 (16 - 8) doubles).
HELD_KARP_CAP = 16


class SizeCapExceeded(ValueError):
    """A problem of ``size`` items above a solver's ``cap``."""

    def __init__(self, message: str, size: int, cap: int):
        super().__init__(message, size, cap)
        self.size = size
        self.cap = cap

    def __str__(self) -> str:
        return self.args[0]


def _id_key(k) -> tuple:
    """Order of co-located items: int ids ascending, then other keys by
    their ``str``."""
    return (0, k) if isinstance(k, int) else (1, str(k))


@dataclass
class PathQuery:
    space: Space
    start: Any
    required: list
    end: Any = CLOSED  # a Point, FREE, or CLOSED


@dataclass
class OptResult:
    length: float
    order: list[int]  # indices into the query's required list


def distance_matrix(space: Space, points: list) -> list[list[float]]:
    """``D[a][b] = space.distance(points[a], points[b])``, the leg walked
    from ``points[a]`` to ``points[b]``.  Both triangles are evaluated, in
    that argument order, because a distance need not be bitwise symmetric
    (tree anchors add up in a different order); every kernel reads a leg
    in the direction the server walks it, as :func:`eval_serving_order`
    does."""
    return [[space.distance(a, b) for b in points] for a in points]


# ---------------------------------------------------------------------------
# Bitmask DP on an arbitrary matrix
# ---------------------------------------------------------------------------

@dataclass
class PathTable:
    """Held & Karp's cost-to-go over matrix ``D``: walks that visit a set of
    ``targets`` (matrix rows) and then stop at ``end`` (a row, or FREE).

    ``T[(j << m) | S]`` is the cheapest cost from row ``targets[j]`` that
    visits every target in the bitmask ``S`` (over positions in
    ``targets``) and then stops, and ``nxt[(j << m) | S]`` is the first
    target of the lexicographically smallest such walk; entries with ``j``
    in ``S`` are unused.  A walk prices its first step and then follows
    that target's chain of next hops (:meth:`hops`).
    """

    D: list[list[float]]
    targets: tuple[int, ...]
    end: Any  # a matrix row, or FREE
    T: array  # 'd'
    nxt: array  # 'B'

    def hops(self, j: int, remaining: int) -> list[int]:
        """The next-hop chain from target position ``j``, which lies outside
        ``remaining``, over the targets in ``remaining``: the positions of
        the lexicographically smallest optimal walk, read from ``nxt``."""
        nxt, m = self.nxt, len(self.targets)
        order = []
        while remaining:
            j = nxt[(j << m) | remaining]
            order.append(j)
            remaining ^= 1 << j
        return order

    def walk(self, start: int, remaining: int) -> tuple[float, list[int]]:
        """Cost from row ``start`` over the targets in ``remaining`` and the
        lexicographically smallest optimal visiting order, as positions in
        ``targets``.

        Each step takes the first target whose candidate cost is within
        ``TIE`` of the best.  The first step is priced here, over the
        candidates the fill compares, in the same order and with the same
        sums, so from a target outside ``remaining`` it is the table's cost
        and next hop; the rest are its hops."""
        targets, T = self.targets, self.T
        m = len(targets)
        if not remaining:
            return (0.0 if self.end == FREE else self.D[start][self.end]), []
        row = self.D[start]
        cands = [
            (c, row[targets[c]] + T[(c << m) | (remaining ^ (1 << c))])
            for c in range(m) if remaining >> c & 1
        ]
        cost = min(v for _, v in cands)
        j = next(c for c, v in cands if v <= cost + TIE)
        return cost, [j] + self.hops(j, remaining ^ (1 << j))


def exact_path(D, targets: tuple[int, ...], end) -> PathTable:
    """Fill the cost-to-go and next-hop tables of walks over ``targets``
    ending at ``end`` (a matrix row, or FREE), one popcount layer of the
    remaining-target mask per numpy step.

    Each layer lays its candidates out as [member, row outside the set,
    set], gathered by ``take`` on the flat ``A`` and ``T`` through the
    index tables of :func:`_held_karp_tables`, and takes the minimum over
    the leading axis, one ``np.minimum`` of whole (row, set) planes per
    member: the same reduction along a short trailing axis took 11-16
    times as long on the middle layer at m = 9, 31 times at m = 14.  The
    set axis is the last, so that a member's cost-to-go, the same for
    every row, is added along it: with the rows last the fill took 1.25
    times as long at m = 9, 1.36-1.47 times at m = 12-16.

    The values are, bit for bit, those of a loop that takes, for each set
    and each target outside it, the float ``min`` over its members in
    ascending order of ``D[from][to] + T[rest]``: the same sums, and a
    ``min`` whose choice among equal values cannot show while ``D`` holds
    no -0.0, which no space's distance returns.  The next hop is the first
    member whose sum is within ``TIE`` of that minimum, assigned from the
    last member down so that the first one wins.
    """
    m = len(targets)
    if m > HELD_KARP_CAP:
        raise SizeCapExceeded(f"{m} targets exceeds bitmask cap {HELD_KARP_CAP}", m, HELD_KARP_CAP)
    T = array("d", [0.0]) * (m << m)
    nxt = array("B", [0]) * (m << m)
    if end != FREE:
        for j, t in enumerate(targets):
            T[j << m] = D[t][end]
    if m > 1:  # the layer of the full set fills only unused entries
        A = np.array([[D[a][b] for b in targets] for a in targets])  # A[j, c]: j to c
        Tf, Nf = np.frombuffer(T), np.frombuffer(nxt, np.uint8)
        for take_a, take_t, put, hop in _held_karp_tables(m):
            cand = A.take(take_a)
            cand += Tf.take(take_t)[:, None, :]
            best = np.minimum.reduce(cand)
            Tf[put] = best
            within = cand <= best + TIE
            first = np.empty(put.shape, np.uint8)
            first[...] = hop[-1]
            for c in range(len(hop) - 2, -1, -1):
                np.copyto(first, hop[c], where=within[c])
            Nf[put] = first
    return PathTable(D, targets, end, T, nxt)


def held_karp(query: PathQuery) -> OptResult:
    pts = [query.start] + list(query.required)
    end = query.end
    if end == CLOSED:
        end_idx = 0
    elif end == FREE:
        end_idx = FREE
    else:
        pts.append(end)
        end_idx = len(pts) - 1
    D = distance_matrix(query.space, pts)
    m = len(query.required)
    cost, order = exact_path(D, tuple(range(1, m + 1)), end_idx).walk(0, (1 << m) - 1)
    return OptResult(cost, order)


# ---------------------------------------------------------------------------
# Segment (line interval) cover
# ---------------------------------------------------------------------------

def _segment_cost(s: float, m: float, M: float, end) -> tuple[float, bool]:
    """Length of the optimal covering walk on a line from ``s`` over the
    interval [m, M] (which holds ``s`` and a fixed ``end``), and whether it
    sweeps left first.  ``end`` is a coordinate, FREE, or CLOSED."""
    if end == CLOSED:
        return 2 * (M - m), True
    if end == FREE:
        a = (s - m) + (M - m)   # sweep left, end right
        b = (M - s) + (M - m)   # sweep right, end left
    else:
        a = (s - m) + (M - m) + (M - end)
        b = (M - s) + (M - m) + (end - m)
    return (a, True) if a <= b else (b, False)


def _segment_price(s: float, positions: list[float], end) -> tuple[float, bool]:
    """Length of :func:`segment_cover`'s walk, and whether it sweeps left
    first, from the request positions alone."""
    ext = positions + [s]
    if end not in (FREE, CLOSED):
        ext.append(end)
    return _segment_cost(s, min(ext), max(ext), end)


def _segment_walk(s: float, req: list[tuple[float, Any]], left: bool) -> list:
    """Keys of ``req`` in the serving order of a line walk from ``s`` that
    sweeps left first (``left``) or right first: each side outward from
    ``s``, the first side with ``s`` itself, co-located keys smaller first."""
    d = -1.0 if left else 1.0
    first = sorted((d * p, k) for p, k in req if d * p >= d * s)
    then = sorted((-d * p, k) for p, k in req if d * p < d * s)
    return [k for _, k in first + then]


def segment_cover(s: float, req: list[tuple[float, Any]], end) -> tuple[float, list]:
    """Optimal covering walk on a line from ``s`` over ``req`` positions.

    ``end`` is a coordinate, FREE, or CLOSED (return to ``s``).  Returns
    (length, keys in serving order).
    """
    cost, left = _segment_price(s, [p for p, _ in req], end)
    return cost, _segment_walk(s, req, left)


# ---------------------------------------------------------------------------
# Ring cover
# ---------------------------------------------------------------------------

def _ring_price(C: float, s: float, positions: list[float], end) -> tuple[float, float | None, bool]:
    """Length of :func:`ring_cover`'s walk from the request positions alone,
    the cut it walks as a segment (None for the full loop), and whether
    that segment is swept left first.

    One sweep over the gaps of the sorted relevant positions: a cut inside
    the gap after ``relevant[i]`` unrolls ``relevant[i + 1]`` to the
    segment's minimum and ``relevant[i]`` to its maximum, since float
    subtraction and ``%`` keep the circular order."""
    s = s % C
    fixed = end not in (FREE, CLOSED)
    e = end % C if fixed else None

    relevant = sorted({p % C for p in positions} | {s} | ({e} if fixed else set()))
    m = len(relevant)
    best_cost, best_cut, best_left = math.inf, None, True
    for i in range(m):
        lo, hi = relevant[i], relevant[(i + 1) % m]
        gap = (hi - lo) % C
        if m > 1 and gap <= TIE:
            continue
        cut = (lo + gap / 2.0) % C if m > 1 else (lo + C / 2) % C
        seg_end = (e - cut) % C if fixed else end
        cost, left = _segment_cost((s - cut) % C, (hi - cut) % C, (lo - cut) % C, seg_end)
        if cost < best_cost:
            best_cost, best_cut, best_left = cost, cut, left

    loop = C
    if fixed:
        arc = abs(s - e)
        loop += min(arc, C - arc)
    if best_cut is not None and best_cost <= loop:
        return best_cost, best_cut, best_left
    return loop, None, True


def _ring_walk(C: float, s: float, req: list[tuple[float, Any]], cut: float | None, left: bool) -> list:
    """Keys of ``req`` in the serving order of the ring walk that
    :func:`_ring_price` priced: the segment unrolled at ``cut`` and swept
    as ``left`` says, or for the full loop (``cut`` None) unrolled at ``s``
    and swept forward."""
    s = s % C
    if cut is None:
        cut, left = s, False
    return _segment_walk((s - cut) % C, [((p % C - cut) % C, k) for p, k in req], left)


def ring_cover(C: float, s: float, req: list[tuple[float, Any]], end) -> tuple[float, list]:
    """Optimal covering walk on a circle of circumference ``C``: the circle
    cut inside one gap between consecutive relevant positions and walked as
    a segment, or a full loop.  Each cut is priced without building its
    order; the first cheapest wins, and the loop only when strictly
    cheaper."""
    cost, cut, left = _ring_price(C, s, [p for p, _ in req], end)
    return cost, _ring_walk(C, s, req, cut, left)


# ---------------------------------------------------------------------------
# Tree index: combinatorial view of points placed on a tree
# ---------------------------------------------------------------------------

class TreeIndex:
    """Nodes of a (small, finite) tree hosting identified items.

    Provides ancestry, maximal-item and Steiner-span computations and exact
    covering walks; the workhorse behind the tree/ring/flower solvers and
    the structured domination oracles.  Ancestry is read from the parent
    array alone, with no tolerance; distances come from ``tree``.  Nodes
    are numbered parents first (``par[v] < v``), as :func:`trim_tree` and
    :func:`star_index` build them, so an edge's child is its larger end.

    The tables every query reads are built once: each node's items and its
    neighbours, ascending, at construction; and per root, on its first
    use, the tree rerooted there: parents, the depth-first preorder with
    children ascending, each subtree's slice of it, and each node's
    nearest fork (an ancestor with two or more children) above it.  A
    walk from that root is then a few slices of its preorder, two per
    fork on the path to the walk's end (:meth:`_pieces`), so it costs
    O(forks on the path), not O(nodes).  There is one walk, read two
    ways: :meth:`path_cover` filters its nodes to a span, and
    :meth:`walk_items` joins the same slices of the root's item preorder,
    built on the root's first item walk.  Each item walk, the one table
    the oracles' scans and clean-ups filter, is kept for the index's
    lifetime.  Maximal nodes need no rerooting: one pass at root 0 finds
    a set's tips (:meth:`tips`), the members with at most one branch
    holding other members, each with that branch as a range of the root-0
    preorder, and rooted anywhere the maximal nodes are the tips whose
    branch holds the root (:meth:`tips_at`).
    """

    def __init__(self, tree: Tree, node_of_item: dict[Any, int]):
        self.tree = tree
        self.node_of = dict(node_of_item)
        n = tree.n_nodes
        self.n = n
        self.par = [-1] * n
        self.plen = [0.0] * n
        self.nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v, ln in tree.edges:
            self.par[v] = u
            self.plen[v] = ln
        for v in range(1, n):
            self.nbrs[v].append(self.par[v])
            self.nbrs[self.par[v]].append(v)
        for adj in self.nbrs:
            adj.sort()
        # items at each node, ties to the smaller id (other keys after the ids)
        self.items_at: list[list] = [[] for _ in range(n)]
        for item, v in self.node_of.items():
            self.items_at[v].append(item)
        for items in self.items_at:
            items.sort(key=_id_key)
        self._roots: dict[int, tuple[list[int], list[int], list[int], list[int], list[int]]] = {}
        self._item_pres: dict[int, tuple[list, list[int]]] = {}
        self._item_walks: dict[tuple[int, int], list] = {}

    def _rooted(self, root: int) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """The tree rerooted at ``root``: parents, the preorder with children
        in node order, each node's first and past-last preorder position
        (``pre[first[v]:stop[v]]`` is ``v``'s subtree), and each node's
        ``top``: the child through which its nearest fork above (the
        nearest ancestor with two or more children, ``par[top[v]]``)
        reaches it, or ``root`` if no fork is above it."""
        hit = self._roots.get(root)
        if hit is not None:
            return hit
        par = list(self.par)
        child, v = -1, root
        while v != -1:
            par[v], child, v = child, v, self.par[v]
        nbrs = self.nbrs
        pre: list[int] = []
        top = list(range(self.n))
        stack = [root]
        while stack:
            x = stack.pop()
            pre.append(x)
            kids = [y for y in reversed(nbrs[x]) if y != par[x]]
            if len(kids) == 1:  # x is no fork: its child shares its top
                top[kids[0]] = top[x]
            stack += kids
        first = [0] * self.n
        size = [1] * self.n
        for k, x in enumerate(pre):
            first[x] = k
        for x in reversed(pre[1:]):
            size[par[x]] += size[x]
        stop = [first[v] + size[v] for v in range(self.n)]
        hit = self._roots[root] = (par, pre, first, stop, top)
        return hit

    def _pieces(self, s: int, e: int) -> list[tuple[int, int]]:
        """The walk from ``s`` to ``e`` as ranges of ``s``'s preorder
        positions: at each fork on the path, from the top down, the part
        before the path child and the part after the child's subtree; then
        the rest of the path and ``e``'s subtree."""
        par, _, first, stop, top = self._rooted(s)
        cuts = []  # the path child of each fork, from e up
        c = top[e]
        while c != s:
            cuts.append(c)
            c = top[par[c]]
        at, pieces = 0, []
        for c in reversed(cuts):
            pieces += (at, first[c]), (stop[c], stop[par[c]])
            at = first[c]
        pieces.append((at, stop[e]))
        return pieces

    def tips(self, nodes) -> list[tuple[int, int, int, bool]]:
        """The members of a node set with at most one branch (a part of the
        tree cut at the member) holding other members, ascending, each as
        ``(v, lo, hi, inside)``: that branch is the root-0 preorder
        positions ``[lo, hi)`` if ``inside``, else the rest.  Of two or
        more members, they are those with no other member below them at
        root 0, whose branch is all but their subtree, and the top member
        if all the others lie below one child, whose branch is that
        child's subtree; a lone member's branch is the whole tree.  One
        marking pass up the root-0 parents; :meth:`tips_at` reads it at
        any root."""
        nodes = set(nodes)
        if len(nodes) < 2:
            return [(v, 0, self.n, True) for v in nodes]
        par, first, stop = self.par, *self._rooted(0)[2:4]
        marked = set()
        for v in nodes:
            u = par[v]
            while u != -1 and u not in marked:
                marked.add(u)
                u = par[u]
        tips = []
        t = min(nodes)  # nodes are numbered parents first: only it can be above the rest
        if t in marked:
            below = [first[v] for v in nodes if v != t]
            lo = min(below)
            # t's children are its larger neighbours
            c = next((c for c in self.nbrs[t] if c > t and first[c] <= lo < stop[c]), None)
            if c is not None and max(below) < stop[c]:
                tips.append((t, first[c], stop[c], True))
        return tips + [(v, first[v], stop[v], False) for v in sorted(nodes - marked)]

    def tips_at(self, tips, root: int) -> list[int]:
        """The maximal nodes at ``root`` of the set whose :meth:`tips` these
        are: the tips whose branch holds ``root``."""
        f = self._rooted(0)[2][root]
        return [v for v, lo, hi, inside in tips if (lo <= f < hi) == inside]

    def maximal_nodes(self, nodes, root: int = 0) -> list[int]:
        """Members that are no other member's proper ancestor when the tree
        is rooted at ``root``, in ascending order."""
        return self.tips_at(self.tips(nodes), root)

    def span(self, nodes) -> tuple[float, list[int]]:
        """Weight and edges (as child nodes, ascending) of the Steiner span
        of ``nodes``: every member's path up to the smallest member in the
        tree rerooted there."""
        nodes = set(nodes)
        if not nodes:
            return 0.0, []
        root = min(nodes)
        par = self._rooted(root)[0]
        inside = {root}
        for v in nodes:
            while v not in inside:
                inside.add(v)
                v = par[v]
        # the span's smallest node is its top, an ancestor of the others:
        # every other node is the child end of one of its edges
        edges = sorted(inside)[1:]
        W = 0.0
        plen = self.plen
        for v in edges:
            W += plen[v]
        return W, edges

    def path_cover(self, s: int, req_nodes, end) -> tuple[float, list[int]]:
        """Optimal covering walk from node ``s`` over ``req_nodes``.

        ``end`` is a node, FREE, or CLOSED.  Returns (length, node visit
        order including every span node, first-visit order).  The order is
        a depth-first walk from ``s`` with children in node order, except
        that the child toward the walk's end ``e`` is entered last: a
        covering walk from ``s`` to ``e`` (or back to ``s``) visits its span
        in it.  It is read as the slices :meth:`_pieces` gives of ``s``'s
        preorder, filtered to the span.
        """
        K = set(req_nodes)
        K.add(s)
        if end not in (FREE, CLOSED):
            K.add(end)
        W, edges = self.span(K)
        # the edges' child ends and their top (nodes are numbered parents first)
        inside = {self.par[edges[0]], *edges} if edges else K
        dist = self.tree.node_dist
        if end == CLOSED:
            cost = 2 * W
            e = s
        else:
            e = end if end != FREE else max(inside, key=lambda v: (dist(s, v), -v))
            cost = 2 * W - dist(s, e)
        pre = self._rooted(s)[1]
        return cost, [v for a, b in self._pieces(s, e) for v in pre[a:b] if v in inside]

    def walk_items(self, s: int, e: int) -> list:
        """Every item, by its node's place in the walk from ``s`` to ``e``
        that :meth:`path_cover` filters (at one node, in ``items_at``
        order), so a span's items come in its covering walk's order: the
        slices :meth:`_pieces` gives of ``s``'s item preorder, assembled
        on the pair's first request and read back after."""
        items = self._item_walks.get((s, e))
        if items is None:
            ipre, ioff = self._item_preorder(s)
            items = self._item_walks[s, e] = []
            for a, b in self._pieces(s, e):
                items += ipre[ioff[a]:ioff[b]]
        return items

    def _item_preorder(self, root: int) -> tuple[list, list[int]]:
        """Every item in ``root``'s preorder (at one node, in ``items_at``
        order), and how many items precede each preorder position: the
        nodes ``pre[a:b]`` hold the items ``ipre[ioff[a]:ioff[b]]``."""
        hit = self._item_pres.get(root)
        if hit is None:
            items_at = self.items_at
            ipre: list = []
            ioff = [0]
            for x in self._rooted(root)[1]:
                ipre += items_at[x]
                ioff.append(len(ipre))
            hit = self._item_pres[root] = (ipre, ioff)
        return hit


def star_index(arms) -> TreeIndex:
    """Index items on a star: arms glued at the root, each a list of
    ``(offset, item)`` pairs, an offset of 0.0 being the root.  Each arm
    has a node at each distinct offset, ascending, numbered arm by arm."""
    edges: list[tuple[int, int, float]] = []
    node_of = {}
    for arm in arms:
        at, prev = {0.0: 0}, 0.0
        for off in sorted({off for off, _ in arm} - {0.0}):
            at[off] = len(edges) + 1
            edges.append((at[prev], at[off], off - prev))
            prev = off
        node_of.update((item, at[off]) for off, item in arm)
    return TreeIndex(Tree(edges), node_of)


def tree_index_for(space: Space, items: dict[Any, Any]) -> TreeIndex:
    """Index item -> location over a tree-shaped space: a tree trimmed to
    the items, or a line as a star of two arms, its negative side first."""
    if isinstance(space, Line):
        return star_index([[(-x, k) for k, x in items.items() if x < 0],
                           [(x, k) for k, x in items.items() if x >= 0]])
    if isinstance(space, Tree):
        tree, nodes = trim_tree(space, list(items.values()))
        return TreeIndex(tree, dict(zip(items, nodes)))
    raise TypeError(f"not a tree-shaped space: {space}")


# ---------------------------------------------------------------------------
# Flower cover
# ---------------------------------------------------------------------------

def flower_cover(flower: Flower, s, req: list[tuple[Any, Any]], end) -> tuple[float, list]:
    """Optimal covering walk on a flower from point ``s`` over request points:
    :func:`flower_cover_grouped` over the canonical points, with a fresh leg
    table."""
    s, end = flower.canon(s), end if end in (FREE, CLOSED) else flower.canon(end)
    return flower_cover_grouped(flower, s, [(flower.canon(p), k) for p, k in req], end, {})


def flower_cover_grouped(flower: Flower, s: tuple, req: list[tuple[tuple, Any]], end,
                         table: dict) -> tuple[float, list]:
    """Optimal covering walk on a flower from canonical point ``s`` over
    requests ``(point, key)`` at canonical points to a canonical point, FREE
    or CLOSED.

    The requests are grouped by component in ``req`` order.  One at the
    origin joins the component of the start, else of the end, else the
    stem: the walk serves it when it first touches the origin.  Components
    (petals ascending, then the stem) meet only at the origin, so the walk
    is per-component covers stitched there; when start and end share a
    component its requests are split between the first and last excursions
    by exhaustive bipartition.  Every candidate walk is priced from
    positions alone; only the first cheapest is walked.

    ``table`` is the leg table: a leg is keyed by its component, start
    offset, ``(offset, key)`` items and end, and holds its price (cost,
    ring cut, sweep side) and, once walked, its serving order.  A table
    serves one flower and one fixed set of points, no key's offset ever
    changing; then every call that shares it prices and walks each leg once.
    """
    home = s[0] if s != _ORIGIN else end[0] if end not in (FREE, CLOSED, _ORIGIN) else "stem"
    groups: dict[Any, list[tuple[float, Any]]] = {}
    for p, k in req:
        groups.setdefault(home if p == _ORIGIN else p[0], []).append((p[1], k))
    sc, s_off = (None, 0.0) if s == _ORIGIN else s
    # the end's component (None at the origin or free) and offset, the start's if closed
    ec, e_off = (sc, s_off) if end == CLOSED else (None, 0.0) if end in (FREE, _ORIGIN) else end
    comps = [c for c in (*range(len(flower.petals)), "stem") if c in groups or c == sc or c == ec]

    # a priced leg: [cost, ring cut, sweeps left first, key, serving order
    # once walked]; walking it follows the cut and side its pricing found
    def price(c, a_off, items, b) -> list:
        # b: an offset within c, FREE, or CLOSED
        key = (c, a_off, tuple(items), b)
        leg = table.get(key)
        if leg is None:
            positions = [p for p, _ in items]
            if c == "stem":
                (cost, left), cut = _segment_price(a_off, positions, b), None
            else:
                cost, cut, left = _ring_price(flower.petals[c], a_off, positions, b)
            leg = table[key] = [cost, cut, left, key, None]
        return leg

    def walk(leg) -> tuple:
        _, cut, left, (c, a_off, items, _), order = leg
        if order is None:
            order = leg[4] = tuple(_segment_walk(a_off, items, left) if c == "stem"
                                   else _ring_walk(flower.petals[c], a_off, items, cut, left))
        return order

    if len(comps) == 1:
        # start and end lie in the one component c or at the origin, whose
        # offset is 0: a closed tour from the origin ends at offset 0
        c = comps[0]
        b = FREE if end == FREE else (CLOSED if end == CLOSED and sc == c else e_off)
        leg = price(c, s_off, groups.get(c, []), b)
        return leg[0], list(walk(leg))

    # A candidate walk is a list of priced legs: the start component's
    # cover to the origin (the head), the others closed from the origin in
    # order, and the final component's cover (the tail).  The closed leg
    # of each component but the start's and the end's, and the head (used
    # unless the end lies in the start component), are the same in every
    # candidate that has them, so each is priced once.
    mid = {c: price(c, 0.0, groups[c], CLOSED) for c in comps if c in groups and c not in (sc, ec)}
    head = price(sc, s_off, groups.get(sc, []), 0.0) if sc is not None and ec != sc else None
    # the finals: (component the walk ends in, where its cover ends), the
    # component None for a walk that ends at the origin
    finals = [(None, None)] + [(c, FREE) for c in comps] if end == FREE else [(ec, e_off)]
    best_cost, best_legs = math.inf, []
    for fc, b in finals:
        middle = [leg for c, leg in mid.items() if c != fc]
        mc = 0.0
        for leg in middle:
            mc += leg[0]
        if fc is None or fc != sc:
            pairs = [(head, None if fc is None else price(fc, 0.0, groups.get(fc, []), b))]
        else:
            # the start component's requests split between its first and
            # last excursion, in binary counting order over its items
            items = groups.get(sc, [])
            pairs = ((price(sc, s_off, [x for i, x in enumerate(items) if mask >> i & 1], 0.0),
                      price(sc, 0.0, [x for i, x in enumerate(items) if not mask >> i & 1], b))
                     for mask in range(1 << len(items)))
        for h, t in pairs:
            cost = (0.0 if h is None else h[0]) + mc + (0.0 if t is None else t[0])
            if cost < best_cost - TIE:
                best_cost, best_legs = cost, [h, *middle, t]
    return best_cost, [k for leg in best_legs if leg is not None for k in walk(leg)]


# ---------------------------------------------------------------------------
# Public query solvers
# ---------------------------------------------------------------------------

def tree_tsp(query: PathQuery) -> OptResult:
    space = query.space
    items = {("s",): query.start}
    for i, p in enumerate(query.required):
        items[i] = p
    fixed = query.end not in (FREE, CLOSED)
    if fixed:
        items[("e",)] = query.end
    idx = tree_index_for(space, items)
    s = idx.node_of[("s",)]
    req_nodes = {idx.node_of[i] for i in range(len(query.required))}
    end = idx.node_of[("e",)] if fixed else query.end
    cost, order = idx.path_cover(s, req_nodes, end)
    # the start and end items are tuples, the requests ints
    return OptResult(cost, [i for v in order for i in idx.items_at[v] if isinstance(i, int)])


def ring_tsp(query: PathQuery) -> OptResult:
    space = query.space
    req = [(space.canon(p), i) for i, p in enumerate(query.required)]
    end = query.end
    if end not in (FREE, CLOSED):
        end = space.canon(end)
    cost, order = ring_cover(space.circumference, space.canon(query.start), req, end)
    return OptResult(cost, order)


def flower_tsp(query: PathQuery) -> OptResult:
    req = [(p, i) for i, p in enumerate(query.required)]
    return OptResult(*flower_cover(query.space, query.start, req, query.end))


def solve_classical(query: PathQuery) -> OptResult:
    space = query.space
    if isinstance(space, (Line, Tree)):
        return tree_tsp(query)
    if isinstance(space, Ring):
        return ring_tsp(query)
    if isinstance(space, Flower):
        return flower_tsp(query)
    return held_karp(query)


# ---------------------------------------------------------------------------
# Release-time-aware evaluation and the exact optimum
# ---------------------------------------------------------------------------

def check_order(order, n: int) -> tuple:
    """``order`` as a tuple, if it is a permutation of the request ids
    0..n-1; else ValueError naming it."""
    order = tuple(order)
    if len(order) != n or set(order) != set(range(n)):
        raise ValueError(f"order {list(order)!r} is not a permutation of 0..{n - 1}")
    return order


def eval_serving_order(instance, order) -> float:
    """Completion time of eagerly following ``order``, waiting at requests."""
    order = check_order(order, instance.n)
    space = instance.space
    t = 0.0
    pos = instance.origin
    for i in order:
        req = instance.requests[i]
        t = max(t + space.distance(pos, req.location), req.release)
        pos = req.location
    if instance.variant == "closed":
        t += space.distance(pos, instance.origin)
    return t


# The subset DP's one family of index tables, built once per size and
# shared by :func:`exact_path` and :func:`_finish`, which never write them.
# They stay writeable and C-contiguous, since ``take`` copies any other
# index array on every call: at n = 9 and 14, ``_finish`` took 1.08-1.27
# times as long with read-only tables, ``exact_path`` 1.01-1.14 times.
# They are int64 (intp): int32 would halve their bytes, but ``take``
# converts such indices on every call, and ``_finish`` took 1.10-1.35
# times as long with them, ``exact_path`` 1.19-1.28 times.

@lru_cache(maxsize=None)
def _held_karp_tables(m: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Index tables of the subset-DP layers k = 1..m-1 over ``m`` items,
    for the sets ``S`` with k members, ascending, each with its members
    ``js[s]`` and the others ``out[s]``, both ascending: for member c of
    set s and row r outside it, ``take_a[c, r, s]`` is the flat index of
    ``A[out[s, r], js[s, c]]`` and ``take_t[c, s]`` that of ``T[js[s, c],
    S[s] ^ (1 << js[s, c])]``; ``put[r, s]`` is that of ``T[out[s, r],
    S[s]]``; and ``hop[c, s] = js[s, c]``.

    Both subset-DP kernels read them.  :func:`exact_path` keeps in slot
    ``T[j, S]`` the cost-to-go from target j over the set S, with ``A[j,
    c]`` the leg j -> c; :func:`_finish` keeps in it f[j, S | {j}], the
    earliest time at request j having served S and then j, with ``A[j,
    c]`` the leg c -> j.  One ``m`` takes m (2 m + 6.5) 2^m bytes at most:
    40.4 MB at ``HELD_KARP_CAP``, 0.11 MB at m = 9, and 72 MB for every
    size up to ``HELD_KARP_CAP``."""
    sets = np.arange(1 << m)
    member = ((sets[:, None] >> np.arange(m)) & 1) == 1
    size = member.sum(axis=1)
    layers = []
    for k in range(1, m):
        S = sets[size == k]
        # jc[c, s] and out[r, s]; not np.nonzero's column, a view that keeps
        # both of its index arrays
        jc = np.ascontiguousarray((np.flatnonzero(member[S]) % m).reshape(len(S), k).T)
        out = np.ascontiguousarray((np.flatnonzero(~member[S]) % m).reshape(len(S), m - k).T)
        # C-contiguous, as each array they are computed from is
        layers.append((out * m + jc[:, None, :], (jc << m) | (S ^ (1 << jc)),
                       (out << m) | S, jc.astype(np.uint8)))
    return tuple(layers)


class _LazyOptResult(OptResult):
    """An optimum whose serving order is found the first time it is read."""

    def __init__(self, length: float, D: np.ndarray, rel: np.ndarray, closed: bool):
        self.length = length
        self._problem = (D, rel, closed)

    @cached_property
    def order(self) -> list[int]:
        return _serving_order(*self._problem, self.length)


def _finish(D: np.ndarray, rel: np.ndarray, closed: bool, row: int, t: float, ids: list[int]) -> float:
    """Earliest finish of a server at matrix row ``row`` (0 the origin,
    ``k + 1`` request ``k``) at time ``t`` that then serves ``ids`` (at
    least one, ascending) and, if ``closed``, returns to the origin.

    Bit for bit the least completion time over the orders of ``ids``
    evaluated leg by leg as :func:`eval_serving_order` does: ``max(t + d,
    r)`` is monotone in ``t`` in float arithmetic, so the earliest time at
    the last request of each served set is the minimum over those orders.
    One popcount layer per numpy step, with a loop's float ``+``, ``min``
    and ``max``, on :func:`exact_path`'s layout: f[j, S'], the earliest
    time at ``ids[j]`` having served the set S' (j in S'), is kept in slot
    ``(j << m) | (S' ^ (1 << j))``, f[j, {j}] set from the first leg.  The
    layer over the sets S with k members (k = 1..m-1) lays its
    candidates out as [member c of S, request r outside S, set], gathered
    by ``take`` on the flat ``f`` and the transposed legs through
    :func:`_held_karp_tables`, takes the minimum over the leading axis
    and then r's release, and stores f[r, S | {r}].  The finish reads
    f[j, all of ``ids``] from the slots ``(j << m) | ((1 << m) - 1 ^ (1
    << j))``."""
    m = len(ids)
    rows = np.array(ids) + 1
    A = D[rows, rows[:, None]]  # A[j, c]: request ids[c] to ids[j]
    r = rel[ids]
    # no slot (j << m) | S with j in S is read, so f starts unfilled.
    # np.maximum(a, r) returns r when a == r, as ``a if a > r else r``
    # does, so the sign of a zero ``a`` never counts.
    f = np.empty(m << m)
    f[::1 << m] = np.maximum(t + D[row, rows], r)
    for take_a, take_t, put, _ in _held_karp_tables(m):
        cand = A.take(take_a)
        cand += f.take(take_t)[:, None, :]
        f[put] = np.maximum(np.minimum.reduce(cand), r.take(put >> m))
    pos = np.arange(m)
    last = f[(pos << m) | ((1 << m) - 1 ^ (1 << pos))]
    # Python's min keeps the first of equal values, 0.0 or -0.0, as a loop does
    return min((last + D[rows, 0] if closed else last).tolist())


def opt_bruteforce(instance) -> OptResult:
    """Exact optimum over all serving orders (with release times).

    A subset DP over release dates (Held & Karp 1962; Psaraftis et al.
    1990) in O(2^n n^2) time and n 2^n doubles per table, up to
    ``HELD_KARP_CAP`` requests in every space, the line included.  It
    keeps the name of the n! enumeration it replaced, which callers and
    the benchmark's tracer use.

    The result is, bit for bit, the enumeration's: the value of the best
    order evaluated leg by leg as :func:`eval_serving_order` does, and the
    lexicographically smallest order that attains it, both from one
    forward kernel, :func:`_finish`; the order is found by
    :func:`_serving_order` when ``.order`` is first read.  No tolerance
    decides anything.  Each leg is read from :func:`distance_matrix` in
    the direction it is walked, so ``eval_serving_order(instance,
    result.order)`` equals ``result.length`` bit for bit in every space,
    trees (whose distance is not bitwise symmetric) included.  Above the
    cap a line instance gets :func:`_line_optimum` (an optimal order, not
    always the lexicographically smallest); any other space raises.
    """
    n = len(instance.requests)
    if n > HELD_KARP_CAP:
        if isinstance(instance.space, Line):
            return _line_optimum(instance)
        raise SizeCapExceeded(f"{n} requests exceeds subset-DP cap {HELD_KARP_CAP}", n, HELD_KARP_CAP)
    if n == 0:
        return OptResult(0.0, [])
    D = np.array(distance_matrix(instance.space, [instance.origin] + [r.location for r in instance.requests]))
    rel = np.array([r.release for r in instance.requests])
    closed = instance.variant == "closed"
    return _LazyOptResult(_finish(D, rel, closed, 0, 0.0, list(range(n))), D, rel, closed)


def _serving_order(D: np.ndarray, rel: np.ndarray, closed: bool, opt: float) -> list[int]:
    """The lexicographically smallest order that finishes by ``opt``, the
    optimum over matrix ``D`` (row 0 the origin) and releases ``rel``.

    At each stop it takes the smallest remaining request from which the
    rest can still finish by ``opt``; :func:`_finish` is exact, so the
    first such request starts an optimal order.
    """
    dist, release = D.tolist(), rel.tolist()
    order: list[int] = []
    rest = list(range(len(release)))
    row, t = 0, 0.0
    while len(rest) > 1:
        for k in rest:
            a = max(t + dist[row][k + 1], release[k])
            if _finish(D, rel, closed, k + 1, a, [i for i in rest if i != k]) <= opt:
                break
        order.append(k)
        rest.remove(k)
        row, t = k + 1, a
    return order + rest


def _line_optimum(instance) -> OptResult:
    """Exact optimum of a nonempty line instance in O(n^2) (Psaraftis et
    al. 1990): a request can wait for the server's last visit, so some
    optimal order peels the requests, sorted by (position, id), from the
    outside in.  Its leg-by-leg value is the DP's minimum bit for bit."""
    reqs, n = instance.requests, len(instance.requests)
    ids = sorted(range(n), key=lambda i: (reqs[i].location, i))
    x, rel = np.array([(reqs[i].location, reqs[i].release) for i in ids]).T
    xp = np.concatenate(([instance.origin], x, [instance.origin]))
    f = np.full((2, n + 1), np.inf)  # earliest times beside block j..: f[0, j] and f[1, j + 1]
    f[1, 1], came = 0.0, []  # at the origin, beside the whole block
    served = np.empty((2, n))  # one block length at a time: O(n) memory
    for L in range(n - 1, -1, -1):
        # the step from block i..i+L, i < w, serves x[i] (side 0) or x[i + L]
        # (side 1) from xp[i] or xp[i + L + 2], the places beside it
        w = n - L
        s = served[:, :w]
        s[0], s[1] = x[:w], x[L:]
        left = f[0, :w] + np.abs(xp[:w] - s)
        right = f[1, 1:w + 1] + np.abs(xp[L + 2:] - s)
        came.append(right < left)
        best = np.minimum(left, right)
        np.maximum(best[0], rel[:w], out=f[0, 1:w + 1])
        np.maximum(best[1], rel[L:], out=f[1, 1:w + 1])
    end = f[:, 1:] + (np.abs(x - instance.origin) if instance.variant == "closed" else 0.0)
    side, i = divmod(int(end.argmin()), n)
    order = []
    for L in range(n):
        order.append(ids[i + side * L])
        side = int(came[n - 1 - L][side, i])
        i -= 1 - side
    return OptResult(eval_serving_order(instance, order[::-1]), order[::-1])


def shortest_serving_path_length(instance) -> float:
    """F: classical TSP value over the true locations, from the origin."""
    if not instance.requests:
        return 0.0
    q = PathQuery(
        instance.space,
        instance.origin,
        [r.location for r in instance.requests],
        CLOSED if instance.variant == "closed" else FREE,
    )
    return solve_classical(q).length
