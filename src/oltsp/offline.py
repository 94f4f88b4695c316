"""Exact classical TSP-path solvers (release times ignored) and the
release-time-aware brute-force optimum.

``held_karp`` is the bitmask DP reference for any metric; the tree, ring
and flower solvers are the fast structured equivalents.  All of them take
a :class:`PathQuery` (start anywhere, required point set, end fixed /
free / closed) and return an :class:`OptResult` whose serving order
reproduces the optimal length.
"""
from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Any

import numpy as np

from .spaces import Flower, Line, Ring, Space, Tree, trim_tree
from .tolerance import TIE

FREE = "free"
CLOSED = "closed"

HELD_KARP_CAP = 16  # a cost-to-go table holds m * 2^m doubles: 8 MB at the cap
BRUTE_FORCE_CAP = 9


class SizeCapExceeded(ValueError):
    pass


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


def _build_matrix(space: Space, points: list) -> list[list[float]]:
    n = len(points)
    D = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = space.distance(points[i], points[j])
            D[i][j] = D[j][i] = d
    return D


# ---------------------------------------------------------------------------
# Bitmask DP on an arbitrary matrix
# ---------------------------------------------------------------------------

@dataclass
class PathTable:
    """Held & Karp's cost-to-go over matrix ``D``: walks that visit a set of
    ``targets`` (matrix rows) and then stop at ``end`` (a row, or FREE).

    ``T[S * m + j]`` is the cheapest cost from row ``targets[j]`` that visits
    every target in the bitmask ``S`` (over positions in ``targets``) and
    then stops; entries with ``j`` in ``S`` are unused.
    """

    D: list[list[float]]
    targets: tuple[int, ...]
    end: Any  # a matrix row, or FREE
    T: array

    def walk(self, start: int, remaining: int) -> tuple[float, list[int]]:
        """Cost from row ``start`` over the targets in ``remaining`` and the
        lexicographically smallest optimal visiting order, as positions in
        ``targets``."""
        D, targets, T = self.D, self.targets, self.T
        m = len(targets)
        if not remaining:
            return (0.0 if self.end == FREE else D[start][self.end]), []
        cost = None
        order = []
        row = D[start]
        while remaining:
            cands = [
                (j, row[targets[j]] + T[(remaining ^ (1 << j)) * m + j])
                for j in range(m) if remaining >> j & 1
            ]
            want = min(c for _, c in cands)
            if cost is None:
                cost = want
            j = next(j for j, c in cands if c <= want + TIE)
            order.append(j)
            remaining ^= 1 << j
            row = D[targets[j]]
        return cost, order


def exact_path(D, targets: tuple[int, ...], end) -> PathTable:
    """Fill the cost-to-go table of walks over ``targets`` ending at ``end``
    (a matrix row, or FREE), bottom-up over the remaining-target mask."""
    m = len(targets)
    if m > HELD_KARP_CAP:
        raise SizeCapExceeded(f"{m} targets exceeds bitmask cap {HELD_KARP_CAP}")
    T = array("d", [0.0]) * (m << m)
    rows = [D[t] for t in targets]
    if end != FREE:
        for j in range(m):
            T[j] = rows[j][end]
    for S in range(1, 1 << m):
        subs = [(targets[k], (S ^ (1 << k)) * m + k) for k in range(m) if S >> k & 1]
        base = S * m
        for j in range(m):
            if not S >> j & 1:
                row = rows[j]
                T[base + j] = min([row[t] + T[i] for t, i in subs])
    return PathTable(D, targets, end, T)


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
    D = _build_matrix(query.space, pts)
    m = len(query.required)
    cost, order = exact_path(D, tuple(range(1, m + 1)), end_idx).walk(0, (1 << m) - 1)
    return OptResult(cost, order)


# ---------------------------------------------------------------------------
# Segment (line interval) cover
# ---------------------------------------------------------------------------

def segment_cover(s: float, req: list[tuple[float, Any]], end) -> tuple[float, list]:
    """Optimal covering walk on a line from ``s`` over ``req`` positions.

    ``end`` is a coordinate, FREE, or CLOSED (return to ``s``).  Returns
    (length, keys in serving order).
    """
    if not req and end in (FREE, CLOSED):
        return 0.0, []
    ext = [p for p, _ in req] + [s]
    if end not in (FREE, CLOSED):
        ext.append(end)
    m, M = min(ext), max(ext)

    def left_first():
        lo = sorted((p, k) for p, k in req if p <= s)[::-1]
        hi = sorted((p, k) for p, k in req if p > s)
        return [k for _, k in lo] + [k for _, k in hi]

    def right_first():
        hi = sorted((p, k) for p, k in req if p >= s)
        lo = sorted((p, k) for p, k in req if p < s)[::-1]
        return [k for _, k in hi] + [k for _, k in lo]

    if end == CLOSED:
        return 2 * (M - m), left_first()
    if end == FREE:
        a = (s - m) + (M - m)   # sweep left, end right
        b = (M - s) + (M - m)   # sweep right, end left
        return (a, left_first()) if a <= b else (b, right_first())
    a = (s - m) + (M - m) + (M - end)
    b = (M - s) + (M - m) + (end - m)
    return (a, left_first()) if a <= b else (b, right_first())


# ---------------------------------------------------------------------------
# Ring cover
# ---------------------------------------------------------------------------

def ring_cover(C: float, s: float, req: list[tuple[float, Any]], end) -> tuple[float, list]:
    """Optimal covering walk on a circle of circumference ``C``."""
    s = s % C
    req = [(p % C, k) for p, k in req]
    fixed = end not in (FREE, CLOSED)
    e = end % C if fixed else None

    relevant = sorted({p for p, _ in req} | {s} | ({e} if fixed else set()))
    candidates: list[tuple[float, list]] = []

    # cut the circle inside each gap between consecutive relevant positions
    for i in range(len(relevant)):
        nxt = relevant[(i + 1) % len(relevant)]
        gap = (nxt - relevant[i]) % C
        if len(relevant) > 1 and gap <= TIE:
            continue
        cut = (relevant[i] + gap / 2.0) % C if len(relevant) > 1 else (relevant[0] + C / 2) % C

        def unroll(p):
            return (p - cut) % C

        seg_end = CLOSED if end == CLOSED else (FREE if end == FREE else unroll(e))
        cost, order = segment_cover(unroll(s), [(unroll(p), k) for p, k in req], seg_end)
        candidates.append((cost, order))

    # wrap: a full loop (plus the hop to a fixed end)
    loop_order = [k for _, k in sorted(req, key=lambda r: ((r[0] - s) % C, str(r[1])))]
    if end == CLOSED or end == FREE:
        candidates.append((C, loop_order))
    else:
        arc = abs(s - e)
        candidates.append((C + min(arc, C - arc), loop_order))

    candidates.sort(key=lambda c: c[0])
    return candidates[0]


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
    :func:`_line_tree` build them.
    """

    def __init__(self, tree: Tree, node_of_item: dict[Any, int]):
        self.tree = tree
        self.node_of = dict(node_of_item)
        n = tree.n_nodes
        self.n = n
        self.par = [-1] * n
        self.plen = [0.0] * n
        for u, v, ln in tree.edges:
            self.par[v] = u
            self.plen[v] = ln
        self.items_at: dict[int, list] = {}
        for item, v in self.node_of.items():
            self.items_at.setdefault(v, []).append(item)
        for v in self.items_at:
            self.items_at[v].sort(key=str)

    def _parents_from(self, root: int) -> list[int]:
        """Parent array of the tree rerooted at ``root``."""
        par = list(self.par)
        child, v = -1, root
        while v != -1:
            par[v], child, v = child, v, self.par[v]
        return par

    def maximal_nodes(self, nodes, root: int = 0) -> list[int]:
        """Members that are no other member's proper ancestor when the tree
        is rooted at ``root``, in ascending order."""
        par = self._parents_from(root)
        nodes = set(nodes)
        marked = set()
        for v in nodes:
            u = par[v]
            while u != -1 and u not in marked:
                marked.add(u)
                u = par[u]
        return sorted(nodes - marked)

    def span(self, nodes) -> tuple[float, list[int]]:
        """Weight and edges (as child nodes, ascending) of the Steiner span
        of ``nodes``."""
        nodes = set(nodes)
        below = [0] * self.n
        for v in nodes:
            below[v] = 1
        for v in range(self.n - 1, 0, -1):
            below[self.par[v]] += below[v]
        edges = [v for v in range(1, self.n) if 0 < below[v] < len(nodes)]
        W = 0.0
        for v in edges:
            W += self.plen[v]
        return W, edges

    def path_cover(self, s: int, req_nodes, end) -> tuple[float, list[int]]:
        """Optimal covering walk from node ``s`` over ``req_nodes``.

        ``end`` is a node, FREE, or CLOSED.  Returns (length, node visit
        order including every span node, first-visit order).
        """
        K = set(req_nodes) | {s}
        if end not in (FREE, CLOSED):
            K.add(end)
        W, edges = self.span(K)
        span_nodes = set(K)
        for v in edges:
            span_nodes.add(v)
            span_nodes.add(self.par[v])
        dist = self.tree.node_dist
        if end == CLOSED:
            cost = 2 * W
            e = s
        else:
            e = end if end != FREE else max(span_nodes, key=lambda v: (dist(s, v), -v))
            cost = 2 * W - dist(s, e)

        adj: dict[int, list[int]] = {v: [] for v in span_nodes}
        for v in edges:
            adj[v].append(self.par[v])
            adj[self.par[v]].append(v)

        # depth-first, children in node order, except that the child
        # towards the walk's end is entered last
        toward = self._parents_from(e)
        order: list[int] = []
        stack = [(s, -1, end != CLOSED)]
        while stack:
            x, prev, to_end = stack.pop()
            order.append(x)
            last = toward[x] if to_end and x != e else None
            if last is not None:
                stack.append((last, x, True))
            for y in sorted(adj[x], reverse=True):
                if y != prev and y != last:
                    stack.append((y, x, False))
        return cost, order


def tree_index_for(space: Space, items: dict[Any, Any]) -> TreeIndex:
    """Index item -> location over a tree-shaped space (Line or Tree)."""
    keys = list(items)
    if isinstance(space, Line):
        tree, mapped = _line_tree([items[k] for k in keys])
    elif isinstance(space, Tree):
        tree, mapped = trim_tree(space, [items[k] for k in keys])
    else:
        raise TypeError(f"not a tree-shaped space: {space}")
    node_of = {}
    for k, p in zip(keys, mapped):
        node_of[k] = _node_index(tree, p)
    return TreeIndex(tree, node_of)


def _node_index(tree: Tree, p) -> int:
    p = tree.canon(p)
    if p[0] == -1:
        return 0
    ei, off = p
    u, v, ln = tree.edges[ei]
    if off >= ln:
        return v
    raise ValueError(f"point {p} is not a node of the tree")


def _line_tree(coords: list[float]) -> tuple[Tree, list]:
    edges = []
    node_at = {0.0: 0}
    for side in (-1, 1):
        vals = sorted({c for c in coords if (c < 0 if side < 0 else c > 0)}, key=abs)
        prev, prev_node = 0.0, 0
        for c in vals:
            node = len(node_at)
            edges.append((prev_node, node, abs(c) - abs(prev)))
            node_at[c] = node
            prev, prev_node = c, node
    tree = Tree(edges)
    mapped = [tree.node_point(node_at[c]) for c in coords]
    return tree, mapped


# ---------------------------------------------------------------------------
# Flower cover
# ---------------------------------------------------------------------------

def flower_cover(flower: Flower, s, req: list[tuple[Any, Any]], end) -> tuple[float, list]:
    """Optimal covering walk on a flower from point ``s`` over request points.

    Components (petals, stem) only communicate through the receptacle, so
    the walk decomposes into per-component covers stitched at the origin;
    when start and end share a component its requests are split between
    the first and last excursions by exhaustive bipartition.
    """
    s = flower.canon(s)
    origin = flower.origin()
    fixed = end not in (FREE, CLOSED)
    e = flower.canon(end) if fixed else (s if end == CLOSED else None)

    def comp(p):
        return None if p == origin else p[0]

    def off(p):
        return 0.0 if p == origin else p[1]

    sc = comp(s)
    ec = comp(e) if e is not None else None

    groups: dict[Any, list[tuple[float, Any]]] = {}
    for p, k in req:
        p = flower.canon(p)
        c = comp(p)
        if c is None:
            # requests at the receptacle: attach to the start component if
            # any, so they are served when the walk first touches the origin
            c = sc if sc is not None else ec
        if c is None:
            c = "stem"
        groups.setdefault(c, []).append((off(p) if comp(p) == c else 0.0, k))

    comps = sorted(
        set(groups) | ({sc} if sc is not None else set()) | ({ec} if ec is not None else set()),
        key=str,
    )

    def comp_cover(c, a_off, items, b) -> tuple[float, list]:
        # b: an offset within c, FREE, or CLOSED
        if c == "stem":
            return segment_cover(a_off, items, b)
        return ring_cover(flower.petals[c], a_off, items, b)

    if not comps:
        return (0.0 if not fixed else flower.distance(s, e)), []
    if len(comps) == 1:
        c = comps[0]
        if (sc is None or sc == c) and (not fixed or ec is None or ec == c):
            b = CLOSED if end == CLOSED and sc == c else (FREE if end == FREE else (off(e) if ec == c else 0.0))
            if end == CLOSED and sc is None:
                b = 0.0
            cost, order = comp_cover(c, off(s) if sc == c else 0.0, groups.get(c, []), b)
            extra = 0.0
            if sc is not None and sc != c:  # start elsewhere: walk to the origin first
                extra += flower.to_origin(s)
            if fixed and ec is not None and ec != c:
                extra += flower.to_origin(e)
            return cost + extra, order

    def middles(exclude):
        cost, order = 0.0, []
        for c in comps:
            if c in exclude or c not in groups:
                continue
            cc, oo = comp_cover(c, 0.0, groups[c], CLOSED)
            cost += cc
            order += oo
        return cost, order

    best: tuple[float, list] | None = None

    def consider(cost, order):
        nonlocal best
        if best is None or cost < best[0] - TIE:
            best = (cost, order)

    def evaluate(final_comp, final_mode):
        """Walk = start-comp cover to O, middle comps closed, final comp."""
        if final_comp is None or final_comp == sc:
            if sc is None:
                mc, mo = middles(set())
                consider(mc, mo)
                return
            items = groups.get(sc, [])
            mc, mo = middles({sc})
            if final_comp is None:
                hc, ho = comp_cover(sc, off(s), items, 0.0)
                consider(hc + mc, ho + mo)
                return
            for mask in range(1 << len(items)):
                A = [items[i] for i in range(len(items)) if mask & (1 << i)]
                B = [items[i] for i in range(len(items)) if not mask & (1 << i)]
                ac, ao = comp_cover(sc, off(s), A, 0.0)
                bc, bo = comp_cover(sc, 0.0, B, final_mode)
                consider(ac + mc + bc, ao + mo + bo)
        else:
            hc, ho = (0.0, []) if sc is None else comp_cover(sc, off(s), groups.get(sc, []), 0.0)
            mc, mo = middles({sc, final_comp})
            tc, to = comp_cover(final_comp, 0.0, groups.get(final_comp, []), final_mode)
            consider(hc + mc + tc, ho + mo + to)

    if end == FREE:
        evaluate(None, None)  # end at the origin
        for c in comps:
            evaluate(c, FREE)
    elif end == CLOSED:
        if sc is None:
            evaluate(None, None)
        else:
            evaluate(sc, off(s))
    else:
        if ec is None:
            evaluate(None, None)
        else:
            evaluate(ec, off(e))

    assert best is not None
    return best


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
    serve = _emit(idx, order, range(len(query.required)))
    return OptResult(cost, serve)


def ring_tsp(query: PathQuery) -> OptResult:
    space = query.space
    req = [(space.norm(p), i) for i, p in enumerate(query.required)]
    end = query.end
    if end not in (FREE, CLOSED):
        end = space.norm(end)
    cost, order = ring_cover(space.circumference, space.norm(query.start), req, end)
    return OptResult(cost, order)


def flower_tsp(query: PathQuery) -> OptResult:
    req = [(p, i) for i, p in enumerate(query.required)]
    cost, order = flower_cover(query.space, query.start, req, query.end)
    return OptResult(cost, order)


def solve_classical(query: PathQuery) -> OptResult:
    space = query.space
    if isinstance(space, (Line, Tree)):
        return tree_tsp(query)
    if isinstance(space, Ring):
        return ring_tsp(query)
    if isinstance(space, Flower):
        return flower_tsp(query)
    return held_karp(query)


def _emit(idx: TreeIndex, node_order: list[int], wanted) -> list:
    wanted = set(wanted)
    out = []
    for v in node_order:
        for item in idx.items_at.get(v, []):
            if item in wanted:
                out.append(item)
                wanted.discard(item)
    return out


# ---------------------------------------------------------------------------
# Release-time-aware evaluation and brute force
# ---------------------------------------------------------------------------

def eval_serving_order(instance, order) -> float:
    """Completion time of eagerly following ``order``, waiting at requests."""
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


_PERM_CACHE: dict[int, np.ndarray] = {}


def _perms(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    return _PERM_CACHE[n]


def opt_bruteforce(instance) -> OptResult:
    """Exact optimum over all serving orders (with release times)."""
    n = len(instance.requests)
    if n > BRUTE_FORCE_CAP:
        raise SizeCapExceeded(f"{n} requests exceeds factorial cap {BRUTE_FORCE_CAP}")
    if n == 0:
        return OptResult(0.0, [])
    space = instance.space
    pts = [instance.origin] + [r.location for r in instance.requests]
    D = np.array(_build_matrix(space, pts))
    rel = np.array([r.release for r in instance.requests])
    P = _perms(n)
    t = np.zeros(len(P))
    prev = np.zeros(len(P), dtype=np.int64)
    for k in range(n):
        cur = P[:, k].astype(np.int64) + 1
        t = np.maximum(t + D[prev, cur], rel[cur - 1])
        prev = cur
    if instance.variant == "closed":
        t = t + D[prev, 0]
    best = int(np.argmin(t))  # permutations enumerate in lex order: first min is lex-smallest
    return OptResult(float(t[best]), [int(x) for x in P[best]])


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
