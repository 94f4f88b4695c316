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
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any

import numpy as np

from .spaces import Flower, Line, Ring, Space, Tree, trim_tree
from .tolerance import TIE

FREE = "free"
CLOSED = "closed"

HELD_KARP_CAP = 16  # a cost-to-go table holds m * 2^m doubles: 8 MB at the cap
OPT_CAP = 14  # a table of n * 2^n doubles is 1.8 MB at the cap


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
    cost, left = _segment_cost(s, min(ext), max(ext), end)
    if left:
        lo = sorted((p, k) for p, k in req if p <= s)[::-1]
        hi = sorted((p, k) for p, k in req if p > s)
        return cost, [k for _, k in lo] + [k for _, k in hi]
    hi = sorted((p, k) for p, k in req if p >= s)
    lo = sorted((p, k) for p, k in req if p < s)[::-1]
    return cost, [k for _, k in hi] + [k for _, k in lo]


# ---------------------------------------------------------------------------
# Ring cover
# ---------------------------------------------------------------------------

def ring_cover(C: float, s: float, req: list[tuple[float, Any]], end) -> tuple[float, list]:
    """Optimal covering walk on a circle of circumference ``C``: the circle
    cut inside one gap between consecutive relevant positions and walked as
    a segment, or a full loop.  Each cut is priced without building its
    order; the first cheapest wins, and the loop only when strictly
    cheaper."""
    s = s % C
    req = [(p % C, k) for p, k in req]
    fixed = end not in (FREE, CLOSED)
    e = end % C if fixed else None

    relevant = sorted({p for p, _ in req} | {s} | ({e} if fixed else set()))
    best_cost, best_cut = math.inf, None
    for i in range(len(relevant)):
        nxt = relevant[(i + 1) % len(relevant)]
        gap = (nxt - relevant[i]) % C
        if len(relevant) > 1 and gap <= TIE:
            continue
        cut = (relevant[i] + gap / 2.0) % C if len(relevant) > 1 else (relevant[0] + C / 2) % C
        pos = [(p - cut) % C for p in relevant]
        seg_end = (e - cut) % C if fixed else end
        cost, _ = _segment_cost((s - cut) % C, min(pos), max(pos), seg_end)
        if cost < best_cost:
            best_cost, best_cut = cost, cut

    loop = C
    if fixed:
        arc = abs(s - e)
        loop += min(arc, C - arc)
    if best_cut is not None and best_cost <= loop:
        cut = best_cut
        seg_end = (e - cut) % C if fixed else end
        return segment_cover((s - cut) % C, [((p - cut) % C, k) for p, k in req], seg_end)
    return loop, [k for _, k in sorted(req, key=lambda r: ((r[0] - s) % C, str(r[1])))]


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
# Release-time-aware evaluation and the exact optimum
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


_BITS = struct.Struct("<q")
_DOUBLE = struct.Struct("<d")
_SIGN = 1 << 63


def _float_key(x: float) -> int:
    """Integer that orders like ``x`` over the finite floats (-0.0 and 0.0
    share key 0)."""
    k = _BITS.unpack(_DOUBLE.pack(x))[0]
    return k if k >= 0 else -(k + _SIGN)


def _key_float(k: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(k if k >= 0 else -k - _SIGN))[0]


def _latest(c: float, d: float) -> float:
    """The largest float ``t`` with ``t + d <= c`` in float arithmetic, for a
    finite ``c`` and a finite ``d >= 0``."""
    t = c - d
    if t + d <= c < math.nextafter(t, math.inf) + d:
        return t
    # ``t + d`` is monotone in ``t``: bisect the float keys of a bracket a
    # few ulps of ``c`` and ``d`` wide.  Stepping ``t`` one ulp at a time
    # never ends when ``t`` is much smaller than ``d``.
    step = math.ulp(c) + math.ulp(d)
    while (t - step) + d > c or (t + step) + d <= c:
        step *= 2
    lo_k, hi_k = _float_key(t - step), _float_key(t + step)
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        if _key_float(mid) + d <= c:
            lo_k = mid
        else:
            hi_k = mid
    return _key_float(lo_k)


@lru_cache(maxsize=None)
def _layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Index tables of the forward DP over ``n`` requests, one per popcount
    k = 2..n: the sets ``S`` with k members, ascending; ``js[s]``, the k
    members of ``S[s]``, ascending; and ``prev[s, c] = S[s] ^ (1 << js[s, c])``.
    Read-only, as every call shares them; at most ``OPT_CAP`` sizes are
    cached, about 4 MB in all."""
    sets = np.arange(1 << n)
    member = ((sets[:, None] >> np.arange(n)) & 1) == 1
    size = member.sum(axis=1)
    out = []
    for k in range(2, n + 1):
        S = sets[size == k]
        js = np.nonzero(member[S])[1].reshape(len(S), k)
        tables = (S, js, S[:, None] ^ (1 << js))
        for t in tables:
            t.flags.writeable = False
        out.append(tables)
    return tuple(out)


class _LazyOptResult(OptResult):
    """An optimum whose serving order is found the first time it is read."""

    def __init__(self, length: float, D: list[list[float]], rel: list[float], closed: bool):
        self.length = length
        self._problem = (D, rel, closed)

    @cached_property
    def order(self) -> list[int]:
        return _serving_order(*self._problem, self.length)


def opt_bruteforce(instance) -> OptResult:
    """Exact optimum over all serving orders (with release times).

    A subset DP over release dates (Held & Karp 1962; Psaraftis et al.
    1990) in O(2^n n^2) time and n 2^n doubles per table, up to
    ``OPT_CAP`` requests.  It keeps the name of the n! enumeration it
    replaced, which callers and the benchmark's tracer use.

    The result is, bit for bit, the enumeration's: the value of the best
    order evaluated leg by leg as :func:`eval_serving_order` does, and the
    lexicographically smallest order that attains it.  ``max(t + d, r)`` is
    monotone in ``t`` in float arithmetic, so the earliest time at the
    last request of each served set is the minimum over those orders.  The
    forward table of those times gives the value, one popcount layer per
    numpy step with the same float ``+``, ``min`` and ``max`` as a loop;
    the order is found by :func:`_serving_order` when ``.order`` is first
    read.  No tolerance decides anything.
    """
    n = len(instance.requests)
    if n > OPT_CAP:
        raise SizeCapExceeded(f"{n} requests exceeds subset-DP cap {OPT_CAP}")
    if n == 0:
        return OptResult(0.0, [])
    D = _build_matrix(instance.space, [instance.origin] + [r.location for r in instance.requests])
    rel = [r.release for r in instance.requests]
    closed = instance.variant == "closed"
    Dn = np.array(D)
    legs = Dn[1:, 1:]  # legs[j, i]: request j to request i
    relv = np.array(rel)

    # f[S, j]: earliest time at request j having served the set S; inf
    # where j is not in S.  np.maximum(a, r) returns r when a == r, as
    # ``a if a > r else r`` does, so the sign of a zero ``a`` never counts.
    f = np.full((1 << n, n), np.inf)
    ids = np.arange(n)
    f[1 << ids, ids] = np.maximum(Dn[0, 1:], relv)
    for S, js, prev in _layers(n):
        a = (f[prev] + legs[js]).min(axis=2)
        f[S[:, None], js] = np.maximum(a, relv[js])
    # Python's min keeps the first of equal values, 0.0 or -0.0, as a loop does
    last = f[-1] + Dn[1:, 0] if closed else f[-1]
    return _LazyOptResult(min(last.tolist()), D, rel, closed)


def _serving_order(D: list[list[float]], rel: list[float], closed: bool, opt: float) -> list[int]:
    """The lexicographically smallest order that finishes by ``opt``, the
    optimum over matrix ``D`` (row 0 the origin) and releases ``rel``.

    A backward table of the latest time from which the rest still finishes
    by ``opt`` lets a greedy pass take the smallest feasible next request.
    """
    n = len(rel)
    full = (1 << n) - 1
    # legs[i][j]: request i to request j; _build_matrix fills both
    # triangles from one distance call, so legs[i][j] == legs[j][i]
    legs = [row[1:] for row in D[1:]]
    members = [[k for k in range(n) if S >> k & 1] for S in range(full + 1)]

    # tau[R * n + j]: latest time at request j, with the set R still to
    # serve, from which the server still finishes by ``opt``
    tau = array("d", [0.0]) * (n << n)
    for j in range(n):
        tau[j] = _latest(opt, D[j + 1][0]) if closed else opt
    # _latest(c, d) lies within 2.5 ulps of the largest |c| or d of fl(c - d),
    # so only candidates within ``near`` of the best difference can win
    near = 8 * math.ulp(max(opt, max(map(max, legs))))
    for R in range(1, full):
        cands = []
        for k in members[R]:
            c = tau[(R ^ (1 << k)) * n + k]
            if rel[k] <= c:
                cands.append((k, c))
        base = R * n
        for j in members[full ^ R]:
            if not cands:
                tau[base + j] = -math.inf
                continue
            row = legs[j]
            diffs = [c - row[k] for k, c in cands]
            top = max(diffs) - near
            tau[base + j] = max([
                _latest(c, row[k]) for (k, c), v in zip(cands, diffs) if v >= top
            ])

    order = []
    t = 0.0
    row = D[0][1:]
    R = full
    while R:
        for k in members[R]:
            a = t + row[k]
            if a < rel[k]:
                a = rel[k]
            if a <= tau[(R ^ (1 << k)) * n + k]:
                break
        order.append(k)
        t = a
        R ^= 1 << k
        row = legs[k]
    return order


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
