"""Safe/sensible permutation sets for structured spaces.

These are verification aids: enumerate the structured orders that are
guaranteed to contain an optimum for every release-time assignment, so
tests can check that the oracles dominate exactly the right families.
``opt_by_enumeration`` is the exact optimum by evaluating every order,
the reference for ``offline.opt_bruteforce``; ``opt_value_by_loop`` is its
value by the forward subset DP in pure Python (``finish_by_loop`` from
the origin, which is also the reference for ``offline._finish`` from any
row, time and set of requests), and ``serving_order_by_latest_times``
its order by a backward table of latest start times, the references
above the enumeration's reach.  All three
read ``offline.distance_matrix``, each leg from the request it leaves to
the one it reaches, as ``eval_serving_order`` walks it: a tree's
distance is not bitwise symmetric.
``FollowOrderPolicy`` serves a fixed order through ``core.follow_route``,
waiting at each true location for its release; the simulator tests run
it along OPT's order.
``ring_cover_all_cuts`` builds the walk of every cut, the reference for
``offline.ring_cover``; ``flower_cover_by_masks`` prices
each candidate walk's legs afresh, the reference for
``offline.flower_cover``; ``exact_path_by_loop`` is the
Held-Karp table in pure Python with a greedy walk that rescans every
candidate per step, the reference for ``offline.exact_path``;
``alpha_by_reach`` scores a route from its whole list of distances on
arriving at each stop, the reference for ``RouteStats.advance``, which
sums legs only up to its cursor;
``witness_by_scan`` reads every scored oracle entry for the shortest
half-released one, the reference for ``LaSwagPolicy``'s running witness;
``general_batch_by_walks`` walks every head and tail of a general
oracle's batch afresh at each step, each head from a table of its own
pivot's, the reference for ``GeneralOracle._batch``;
``tree_batch_by_finals`` emits every scan of a tree-style batch afresh
along an uncached covering walk (``items_along``) for each guessed final
request, its pivots and leaves found by ``maximal_nodes_by_walk`` rerooted
at the final's node, and cleans up with no memo and no oracle table
(along ``walk_by_dfs`` on a line or tree, by ``ring_cover`` on a ring),
the reference for ``DominationOracle._tree_batch``; ``tree_row_by_rest`` filters a row's
item walk against the set of ids outside its head and final, built per
row, the reference for a tree oracle's row (``TreeOracle._cleanup``);
``flower_batch_by_variants`` builds a flower oracle's batch one approach
at a time, each set of kept petals scanning its own snipped index and
finding its maximal nodes by ``maximal_nodes_by_walk``, the reference for
``FlowerOracle._batch``;
``path_cover_by_dfs``, ``span_by_counts`` and ``maximal_nodes_by_walk``
recompute a ``TreeIndex``'s adjacency, counts and rerooted parents on
every call, the reference for its per-index tables and for maximal nodes
read from its root-0 tips; ``walk_by_dfs``
walks the whole tree depth first from a start node to an end node, the
reference for ``TreeIndex.walk_items`` (its items) and for the node walk
a tree oracle's clean-up emits along (its nodes).
``general_distance_by_anchors`` takes the min over every pair of
anchors (and the shared edge) for any two points, sites too, the
reference for ``spaces.General.distance``;
``trim_tree_by_contraction`` builds a whole intermediate tree and
contracts it, the reference for ``spaces.trim_tree``;
``tree_index_by_round_trip`` and ``snipped_index_by_round_trip`` build a
line's, a tree's or a snipped flower's whole tree (``line_tree``,
``snip_flower``) and turn each item's tree point back into its node, the
reference for ``offline.star_index`` and ``offline.tree_index_for``;
``snipped_index_by_round_trip`` is also the reference for the star that
``FlowerOracle`` scans and, per set of kept petals, for the requests a
scan reads and the index ``flower_batch_by_variants`` scans.
"""
from __future__ import annotations

import itertools
import math
import struct
from array import array
from dataclasses import dataclass
from typing import Any

import numpy as np

from oltsp.core import Instance, Simulation, follow_route
from oltsp.engine import _HALF
from oltsp.offline import (
    CLOSED,
    FREE,
    HELD_KARP_CAP,
    OptResult,
    SizeCapExceeded,
    TreeIndex,
    _id_key,
    _segment_cost,
    _segment_price,
    distance_matrix,
    exact_path,
    ring_cover,
    segment_cover,
)
from oltsp.oracles import _subsets
from oltsp.spaces import TREE_ROOT, Flower, General, Line, Ring, Space, Tree
from oltsp.tolerance import FEAS, TIE


def _precedence(space, locations, root_loc=None):
    """prec[u][w]: u must be served before w (w lies on u's path home)."""
    n = len(locations)
    root = root_loc if root_loc is not None else space.origin()
    d = space.distance
    prec = [[False] * n for _ in range(n)]
    for u in range(n):
        for w in range(n):
            if u == w:
                continue
            duw = d(locations[u], locations[w])
            if duw <= 1e-9:
                continue  # co-located requests are unconstrained
            if abs(d(locations[u], root) - (duw + d(locations[w], root))) <= 1e-9:
                prec[u][w] = True
    return prec


def _respects(perm, prec) -> bool:
    pos = {r: k for k, r in enumerate(perm)}
    for u in range(len(perm)):
        for w in range(len(perm)):
            if prec[u][w] and pos[u] > pos[w]:
                return False
    return True


def sensible_tree_perms(space: Space, locations: list) -> list[tuple]:
    """Closed-variant sensible orders: descendants before ancestors."""
    prec = _precedence(space, locations)
    n = len(locations)
    return [p for p in itertools.permutations(range(n)) if _respects(p, prec)]


def sensible_tree_open_perms(space: Space, locations: list) -> list[tuple]:
    """Open-variant sensible orders: those ending at some request q_f and
    respecting the tree rerooted at q_f."""
    n = len(locations)
    out = []
    for p in itertools.permutations(range(n)):
        qf = p[-1]
        prec = _precedence(space, locations, root_loc=locations[qf])
        if _respects(p, prec):
            out.append(p)
    return out


def _petal_loop_ok(seq_offs, block_len, direction) -> bool:
    block = seq_offs[:block_len]
    for a, b in zip(block, block[1:]):
        if direction == 1 and b < a - 1e-12:
            return False
        if direction == -1 and b > a + 1e-12:
            return False
    return True


def sensible_flower_perms(flower: Flower, locations: list) -> list[tuple]:
    """Closed-variant sensible orders on a flower.

    Per petal: an optional loop block (contiguous in the permutation,
    cyclic order, before any other visit of that petal), then
    snipped-tree order on the two halves; the stem follows plain tree
    order throughout.
    """
    n = len(locations)
    loc = [flower.canon(p) for p in locations]
    petals: dict[int, list[int]] = {}
    for i, (c, off) in enumerate(loc):
        if c != "stem":
            petals.setdefault(c, []).append(i)

    def half_depth(i):
        c, off = loc[i]
        ln = flower.petals[c]
        if off <= ln / 2 + 1e-12:
            return ("cw", off)
        return ("ccw", ln - off)

    def ok(perm) -> bool:
        pos = {r: k for k, r in enumerate(perm)}
        # stem + cross-component: deeper-first on the same branch
        for u in range(n):
            for w in range(n):
                if u == w or loc[u][0] != loc[w][0]:
                    continue
                if loc[u][0] == "stem":
                    if loc[w][1] < loc[u][1] - 1e-12 and pos[w] < pos[u]:
                        return False
        for k, members in petals.items():
            seq = sorted(members, key=lambda i: pos[i])
            offs = [loc[i][1] for i in seq]
            feasible = False
            for block_len in range(len(seq) + 1):
                dirs = (1, -1) if block_len >= 2 else (1,)
                for d in dirs:
                    if not _petal_loop_ok(offs, block_len, d):
                        continue
                    # loop block must be contiguous in the permutation
                    if block_len >= 1:
                        p0 = pos[seq[0]]
                        if any(pos[seq[j]] != p0 + j for j in range(block_len)):
                            continue
                    # remaining petal requests follow snipped-tree order
                    rest = seq[block_len:]
                    good = True
                    for a in range(len(rest)):
                        for b in range(len(rest)):
                            ha, da = half_depth(rest[a])
                            hb, db = half_depth(rest[b])
                            if ha == hb and db < da - 1e-12 and pos[rest[b]] < pos[rest[a]]:
                                good = False
                    if good:
                        feasible = True
                        break
                if feasible:
                    break
            if not feasible:
                return False
        return True

    return [p for p in itertools.permutations(range(n)) if ok(p)]


def sensible_ring_perms(ring: Ring, locations: list) -> list[tuple]:
    """Closed-variant sensible orders on a ring: an optional initial full
    loop, then line order on the ring split at the antipode."""
    locs = [(0, ring.canon(p)) for p in locations]
    out = []
    n = len(locations)
    for p in itertools.permutations(range(n)):
        if _ring_ok(ring, locs, p):
            out.append(p)
    return out


def _ring_ok(ring: Ring, loc, perm) -> bool:
    C = ring.circumference
    pos = {r: k for k, r in enumerate(perm)}
    n = len(perm)

    def half_depth(i):
        off = loc[i][1]
        if off <= C / 2 + 1e-12:
            return ("cw", off)
        return ("ccw", C - off)

    offs = [loc[i][1] for i in perm]
    for block_len in range(n + 1):
        for d in (1, -1) if block_len >= 2 else (1,):
            if not _petal_loop_ok(offs, block_len, d):
                continue
            rest = list(perm[block_len:])
            good = True
            for a in rest:
                for b in rest:
                    ha, da = half_depth(a)
                    hb, db = half_depth(b)
                    if ha == hb and db < da - 1e-12 and pos[b] < pos[a]:
                        good = False
            if good:
                return True
    return False


def opt_by_enumeration(instance):
    """Exact optimum by evaluating every serving order in numpy: the
    reference that ``offline.opt_bruteforce`` must match bit for bit."""
    n = len(instance.requests)
    if n == 0:
        return OptResult(0.0, [])
    space = instance.space
    pts = [instance.origin] + [r.location for r in instance.requests]
    D = np.array(distance_matrix(space, pts))
    rel = np.array([r.release for r in instance.requests])
    P = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
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


def opt_value_by_loop(instance) -> float:
    """Value of ``offline.opt_bruteforce``: ``finish_by_loop`` from the
    origin at time 0 over every request."""
    n = len(instance.requests)
    if n == 0:
        return 0.0
    D = distance_matrix(instance.space, [instance.origin] + [r.location for r in instance.requests])
    return finish_by_loop(D, [r.release for r in instance.requests], instance.variant == "closed",
                          0, 0.0, list(range(n)))


def finish_by_loop(D, rel, closed: bool, row: int, t: float, ids: list[int]) -> float:
    """``offline._finish`` by the forward subset DP, one set and one last
    request at a time in pure Python: the earliest finish of a server at
    row ``row`` of matrix ``D`` (0 the origin, ``k + 1`` request ``k``)
    at time ``t`` that serves the requests ``ids`` (ascending), each at
    its release ``rel[k]`` at the earliest, and, if ``closed``, returns to
    the origin."""
    D = [list(map(float, d)) for d in D]
    m = len(ids)
    rows = [k + 1 for k in ids]
    r = [float(rel[k]) for k in ids]
    full = (1 << m) - 1
    members = [[k for k in range(m) if S >> k & 1] for S in range(full + 1)]

    # f[S * m + j]: earliest time at request ids[j] having served the set S
    f = array("d", [0.0]) * (m << m)
    for j in range(m):
        a = t + D[row][rows[j]]
        f[(m << j) + j] = a if a > r[j] else r[j]
    for S in range(3, full + 1):
        ks = members[S]
        if len(ks) < 2:
            continue
        base = S * m
        for j in ks:
            prev = (S ^ (1 << j)) * m
            a = min([f[prev + i] + D[rows[i]][rows[j]] for i in ks if i != j])
            f[base + j] = a if a > r[j] else r[j]
    last = full * m
    if closed:
        return min([f[last + j] + D[rows[j]][0] for j in range(m)])
    return min(f[last:last + m])


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


def serving_order_by_latest_times(instance, opt: float) -> list[int]:
    """The serving order of ``offline.opt_bruteforce``: the lexicographically
    smallest order that finishes by ``opt``, the instance's optimum.

    A backward table of the latest time from which the rest still finishes
    by ``opt`` lets a greedy pass take the smallest feasible next request.
    """
    n = len(instance.requests)
    if n == 0:
        return []
    D = distance_matrix(instance.space, [instance.origin] + [r.location for r in instance.requests])
    rel = [r.release for r in instance.requests]
    closed = instance.variant == "closed"
    full = (1 << n) - 1
    # legs[i][j]: request i to request j
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


class FollowOrderPolicy:
    """Serve the requests in a fixed order: go to each one's true
    location, wait there for its release and serve it; closed, return
    home."""

    def __init__(self, instance: Instance, order):
        locations = [instance.space.canon(x) for x in instance.locations()]
        self.route = [stop for rid in order for stop in ((rid, locations[rid]), (rid, None))]
        if instance.variant == "closed":
            self.route.append((None, instance.origin))

    def decide(self, sim: Simulation):
        return follow_route(sim, self.route)


def ring_cover_all_cuts(C: float, s: float, req: list[tuple[float, Any]], end) -> tuple[float, list]:
    """``offline.ring_cover`` by building the walk of every cut and the full
    loop, then taking the first cheapest."""
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
    loop_order = [k for _, k in sorted(req, key=lambda r: ((r[0] - s) % C, r[1]))]  # int ids
    if end == CLOSED or end == FREE:
        candidates.append((C, loop_order))
    else:
        arc = abs(s - e)
        candidates.append((C + min(arc, C - arc), loop_order))

    candidates.sort(key=lambda c: c[0])
    return candidates[0]


def _ring_price_by_cuts(C: float, s: float, positions: list[float], end) -> tuple[float, float | None]:
    """``offline._ring_price`` with each cut's segment extremes taken over a
    list of every relevant position unrolled at that cut."""
    s = s % C
    fixed = end not in (FREE, CLOSED)
    e = end % C if fixed else None

    relevant = sorted({p % C for p in positions} | {s} | ({e} if fixed else set()))
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
        return best_cost, best_cut
    return loop, None


def flower_cover_by_masks(flower: Flower, s, req: list[tuple[Any, Any]], end) -> tuple[float, list]:
    """``offline.flower_cover`` with every leg priced afresh for each
    candidate walk and the winner's legs re-priced by ``ring_cover`` and
    ``segment_cover`` as they are walked."""
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
            c = sc if sc is not None else ec
        if c is None:
            c = "stem"
        groups.setdefault(c, []).append((off(p) if comp(p) == c else 0.0, k))

    comps = sorted(
        set(groups) | ({sc} if sc is not None else set()) | ({ec} if ec is not None else set()),
        key=_id_key,
    )

    def comp_cover(c, a_off, items, b) -> tuple[float, list]:
        if c == "stem":
            return segment_cover(a_off, items, b)
        return ring_cover(flower.petals[c], a_off, items, b)

    def comp_cost(c, a_off, items, b) -> float:
        positions = [p for p, _ in items]
        if c == "stem":
            return _segment_price(a_off, positions, b)[0]
        return _ring_price_by_cuts(flower.petals[c], a_off, positions, b)[0]

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
            if sc is not None and sc != c:
                extra += flower._to_origin(s)
            if fixed and ec is not None and ec != c:
                extra += flower._to_origin(e)
            return cost + extra, order

    def middles(exclude):
        cost, legs = 0.0, []
        for c in comps:
            if c in exclude or c not in groups:
                continue
            leg = (c, 0.0, groups[c], CLOSED)
            cost += comp_cost(*leg)
            legs.append(leg)
        return cost, legs

    best: tuple[float, list] | None = None

    def consider(cost, legs):
        nonlocal best
        if best is None or cost < best[0] - TIE:
            best = (cost, legs)

    def evaluate(final_comp, final_mode):
        if final_comp is None or final_comp == sc:
            if sc is None:
                consider(*middles(set()))
                return
            items = groups.get(sc, [])
            mc, ml = middles({sc})
            if final_comp is None:
                head = (sc, off(s), items, 0.0)
                consider(comp_cost(*head) + mc, [head] + ml)
                return
            for mask in range(1 << len(items)):
                A = [items[i] for i in range(len(items)) if mask & (1 << i)]
                B = [items[i] for i in range(len(items)) if not mask & (1 << i)]
                head, tail = (sc, off(s), A, 0.0), (sc, 0.0, B, final_mode)
                consider(comp_cost(*head) + mc + comp_cost(*tail), [head] + ml + [tail])
        else:
            head = [] if sc is None else [(sc, off(s), groups.get(sc, []), 0.0)]
            hc = comp_cost(*head[0]) if head else 0.0
            mc, ml = middles({sc, final_comp})
            tail = (final_comp, 0.0, groups.get(final_comp, []), final_mode)
            consider(hc + mc + comp_cost(*tail), head + ml + [tail])

    if end == FREE:
        evaluate(None, None)
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
    cost, legs = best
    order = []
    for leg in legs:
        order += comp_cover(*leg)[1]
    return cost, order


@dataclass
class PathTableByLoop:
    """``offline.PathTable`` with a walk that picks each step from all of
    its candidates."""

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


def general_distance_by_anchors(space: General, a, b) -> float:
    """The length of the shortest geodesic between points ``a`` and ``b``
    of ``space``: 0 for one point, else the min over the shared edge and
    every exit through an anchor of each, a site an anchor of itself at
    cost 0.0."""
    ca, cb = space.canon(a), space.canon(b)
    if ca == cb:
        return 0.0

    def anchors(p):
        if isinstance(p, int):
            return [(p, 0.0)]
        x, y, t = p
        return [(x, t), (y, space.matrix[x][y] - t)]

    best = math.inf
    if not isinstance(ca, int) and not isinstance(cb, int) and ca[:2] == cb[:2]:
        best = abs(ca[2] - cb[2])
    for na, xa in anchors(ca):
        for nb, xb in anchors(cb):
            best = min(best, xa + space.matrix[na][nb] + xb)
    return best


def exact_path_by_loop(D, targets: tuple[int, ...], end) -> PathTableByLoop:
    """Fill the cost-to-go table of walks over ``targets`` ending at ``end``
    (a matrix row, or FREE), bottom-up over the remaining-target mask."""
    m = len(targets)
    if m > HELD_KARP_CAP:
        raise SizeCapExceeded(f"{m} targets exceeds bitmask cap {HELD_KARP_CAP}", m, HELD_KARP_CAP)
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
    return PathTableByLoop(D, targets, end, T)


def alpha_by_reach(perm, D, closed: bool):
    """The released fraction of ``perm`` as a function of the position k of
    its first unreleased request (``len(perm)``: none), read from ``reach``,
    the distance on arriving at each stop, summed leg by leg."""
    reach = []
    total = 0.0
    prev = 0
    for i in perm:
        total += D[prev][i + 1]
        reach.append(total)
        prev = i + 1
    if closed and perm:
        total += D[prev][0]
    return lambda k: 1.0 if total <= FEAS or k == len(perm) else reach[k] / total


def witness_by_scan(scored):
    """The shortest entry at alpha >= 1/2 - TIE, the lexicographically
    smallest among equal lengths, or None.  ``scored`` pairs each oracle
    entry's released fraction with it."""
    return min((e for alpha, e in scored if alpha >= _HALF), key=lambda e: (e.length, e.perm), default=None)


def general_batch_by_walks(oracle, released: frozenset) -> list[tuple]:
    """``GeneralOracle._batch`` walking each (pivot, subset) dominator of
    the step afresh: its head from a Held-Karp table over the other
    requests that ends at the pivot u, built for each u at each step, and
    its tail from the oracle's tail table.  The heads are the
    lexicographically smallest optimal walks forward, where the oracle's
    are the smallest backward."""
    full = (1 << oracle.n) - 1
    rel = sorted(released)
    out = []
    for u in sorted(oracle.ids - released):
        others = [i for i in range(oracle.n) if i != u]
        heads = exact_path(oracle.D, tuple(i + 1 for i in others), u + 1)
        for k in range(1 << len(rel)):
            sub = [rel[j] for j in range(len(rel)) if k >> j & 1]
            head_mask = sum(1 << (i - (i > u)) for i in sub)  # u's own bit is left out
            head = [others[j] for j in heads.walk(0, head_mask)[1]]
            rest = full ^ (1 << u) ^ sum(1 << i for i in sub)
            tail = oracle._tail.walk(u + 1, rest)[1]
            out.append(tuple(head + [u] + tail))
    return out


def items_along(idx: TreeIndex, node_order: list[int], wanted) -> list:
    """The items of ``wanted`` at the nodes of ``node_order``, in its order
    (at one node, in ``items_at`` order)."""
    return [item for v in node_order for item in idx.items_at[v] if item in wanted]


def tree_batch_by_finals(oracle, idx, released: frozenset) -> list[tuple]:
    """``DominationOracle._tree_batch`` over ``idx`` with no table shared
    across finals: for each final request qf it emits every scan against
    the released requests other than qf along the node order of an
    uncached ``path_cover``, and cleans up each dominator by
    ``_cleanup_by_walk``, with no memo.  Each final's pivots and leaves
    are maximal nodes rerooted at its node, with no tips."""
    unrel = oracle.ids - released
    rel_nodes = {idx.node_of[i] for i in released}
    out = []
    for qf in [None] if oracle.variant == "closed" else sorted(oracle.ids):
        root = 0 if qf is None else idx.node_of[qf]
        pivots = _pivots_by_walk(idx, unrel - {qf}, root)
        if unrel == {qf}:
            pivots.append((root, qf))  # the final request is the only unreleased one
        leaves = maximal_nodes_by_walk(idx, rel_nodes, root)
        wanted = released - {qf}
        pin = [] if qf is None else [qf]
        for qnode, q in pivots:
            for chosen in _subsets(leaves):
                prefix = items_along(idx, idx.path_cover(0, chosen + (qnode,), qnode)[1], wanted)
                head = prefix if q == qf else prefix + [q]
                out.append(tuple(head + _cleanup_by_walk(oracle, idx, q, oracle.ids.difference(head, pin), qf) + pin))
    return out


def _cleanup_by_walk(oracle, idx, q: int, rest: frozenset, final: int | None) -> list[int]:
    """The ids of ``rest`` on an optimal walk from request ``q`` to request
    ``final``, or with ``None`` to the origin: on a ring, ``ring_cover`` of
    the canonical predictions; on a line or tree, the ids along the whole
    node walk of ``walk_by_dfs`` from q's node to the final's."""
    if isinstance(oracle.space, Ring):
        pos = oracle.predictions
        end_pos = 0.0 if final is None else pos[final]
        return ring_cover(oracle.space.circumference, pos[q], [(pos[i], i) for i in sorted(rest)], end_pos)[1]
    node_of = idx.node_of
    return items_along(idx, walk_by_dfs(idx, node_of[q], 0 if final is None else node_of[final])[0], rest)


def tree_row_by_rest(oracle, prefix: list[int], q: int, final: int | None = None) -> tuple:
    """A tree oracle's dominator row: ``prefix``, then ``q`` (unless it is
    the pinned ``final``), then the item walk from q's node to the final's
    (the origin when closed) filtered against ``ids - head - final``, then
    the final."""
    head = prefix if q == final else prefix + [q]
    pin = [] if final is None else [final]
    rest = oracle.ids - set(head) - set(pin)
    node_of = oracle.idx.node_of
    walk = oracle.idx.walk_items(node_of[q], 0 if final is None else node_of[final])
    return tuple(head + [i for i in walk if i in rest] + pin)


def _pivots_by_walk(idx, ids, root: int) -> list[tuple[int, int]]:
    """(node, smallest id) for each node hosting one of ``ids`` that is
    maximal among them with the tree rooted at ``root``."""
    by_node: dict[int, int] = {}
    for i in sorted(ids):
        by_node.setdefault(idx.node_of[i], i)
    return [(v, by_node[v]) for v in maximal_nodes_by_walk(idx, by_node, root)]


def flower_batch_by_variants(oracle, released: frozenset) -> list[tuple]:
    """``FlowerOracle._batch`` as one call per (final, pivot, looped petals,
    approach), each rebuilding its petal loop orders and its maximal
    released and unreleased nodes (``maximal_nodes_by_walk``), with the
    after-loop direction of q's own petal read from the oracle's ``_arm``.
    A pivot on the stem, with the final on a petal, also walks that petal
    from the origin by each of its extent heads.  Each set of kept petals
    scans its own index of the requests off them, built by
    ``snipped_index_by_round_trip``, along the node order of an uncached
    ``path_cover``."""
    comp = [p[0] for p in oracle.predictions]
    off = [p[1] for p in oracle.predictions]
    indexes: dict = {}

    def snipped(kept):
        if kept not in indexes:
            indexes[kept] = snipped_index_by_round_trip(oracle.space, oracle.predictions, kept)
        return indexes[kept]

    def subsets(items):
        return [tuple(x for j, x in enumerate(items) if mask >> j & 1) for mask in range(1 << len(items))]

    def loop_order(petal, pool, direction):
        return sorted((i for i in pool if comp[i] == petal), key=lambda i: (direction * off[i], i))

    def extent_heads(petal, pool):
        # q at the base of ``petal``: the heads that sweep one half of it out
        # to an extent and back, then the other half to an extent, or only the
        # forward half, nearest first; each head once, the empty one too
        length = oracle.space.petals[petal]
        fwd = sorted((off[i], i) for i in pool if comp[i] == petal and off[i] <= length / 2)
        bwd = sorted((length - off[i], i) for i in pool if comp[i] == petal and off[i] > length / 2)
        heads = []
        for ef in [0.0] + [d for d, _ in fwd if d > TIE]:
            f_part = [i for d, i in fwd if d <= ef + TIE]
            for eb in [None] + [d for d, _ in bwd]:
                b_part = [] if eb is None else [i for d, i in bwd if d <= eb + TIE]
                for head in [b_part + f_part] + ([f_part + b_part] if b_part else []):
                    if head not in heads:
                        heads.append(head)
        return heads

    def variants(loop_pool, q, qf, approach, kept, direction):
        """``direction`` is the way along q's petal of an arc or a late loop,
        and the head along the final's petal of an extent."""
        qc = comp[q]
        walked = comp[qf] if approach == "extent" else qc
        done = sorted(k for k in kept if k != walked or approach == "after_loop")
        idx = snipped(kept)
        root_node = idx.node_of[qf] if qf is not None and qf in idx.node_of else 0
        if approach == "tree":
            unrel_nodes = {idx.node_of[i] for i in idx.node_of if i not in released and (i != qf or i == q)}
            if idx.node_of[q] not in maximal_nodes_by_walk(idx, unrel_nodes, root_node):
                return []
        leaves = maximal_nodes_by_walk(idx, {idx.node_of[i] for i in released if i in idx.node_of}, root_node)
        loop_prefix = []
        for k in done:
            loop_prefix += loop_order(k, loop_pool, oracle._arm[q][0][1] if k == qc else 1)
        petal_part = []
        if approach == "arc":
            petal_part = [i for i in loop_order(qc, loop_pool, direction)
                          if (direction == 1 and off[i] <= off[q] + TIE)
                          or (direction == -1 and off[i] >= off[q] - TIE)]
        elif approach == "late_loop":
            petal_part = loop_order(qc, loop_pool, direction)
        elif approach == "extent":
            petal_part = direction
        out = []
        for chosen in subsets(leaves):
            tree_part = []
            if approach == "tree":
                qnode = idx.node_of[q]
                tree_part = items_along(idx, idx.path_cover(0, chosen + (qnode,), qnode)[1], loop_pool)
            elif chosen:
                tree_part = items_along(idx, idx.path_cover(0, chosen, CLOSED)[1], loop_pool)
            prefix = list(dict.fromkeys(loop_prefix + tree_part + petal_part))
            out.append(oracle._dominator(prefix, q, qf))
        return out

    unrel = sorted(oracle.ids - released)
    petals_with_rel = sorted({comp[i] for i in released} - {"stem"})
    out = []
    for qf in [None] if oracle.variant == "closed" else [None] + sorted(oracle.ids):
        loop_pool = released - {qf}
        for q in unrel:
            if qf is not None and q == qf and len(unrel) > 1:
                continue
            qc = comp[q]
            same_final_petal = qf is not None and qc != "stem" and comp[qf] == qc
            for done in subsets(petals_with_rel):
                done = frozenset(done)
                if qc == "stem":
                    options = [("tree", done, None)]
                    if qf is not None and comp[qf] not in ("stem", *done):
                        options += [("extent", done | {comp[qf]}, head)
                                    for head in extent_heads(comp[qf], loop_pool)]
                elif qc in done:
                    options = [("after_loop", done, None)]
                else:
                    options = [("tree", done, None), ("arc", done | {qc}, 1), ("arc", done | {qc}, -1)]
                    if same_final_petal:
                        options += [("late_loop", done | {qc}, 1), ("late_loop", done | {qc}, -1)]
                for approach, kept, direction in options:
                    out += variants(loop_pool, q, qf, approach, kept, direction)
    return out


def _parents_from(idx, root: int) -> list[int]:
    """Parent array of the tree rerooted at ``root``."""
    par = list(idx.par)
    child, v = -1, root
    while v != -1:
        par[v], child, v = child, v, idx.par[v]
    return par


def maximal_nodes_by_walk(idx, nodes, root: int = 0) -> list[int]:
    """``TreeIndex.maximal_nodes`` over a parent array rerooted per call,
    with no tips."""
    par = _parents_from(idx, root)
    nodes = set(nodes)
    marked = set()
    for v in nodes:
        u = par[v]
        while u != -1 and u not in marked:
            marked.add(u)
            u = par[u]
    return sorted(nodes - marked)


def span_by_counts(idx, nodes) -> tuple[float, list[int]]:
    """``TreeIndex.span`` by counting the members below every edge."""
    nodes = set(nodes)
    below = [0] * idx.n
    for v in nodes:
        below[v] = 1
    for v in range(idx.n - 1, 0, -1):
        below[idx.par[v]] += below[v]
    edges = [v for v in range(1, idx.n) if 0 < below[v] < len(nodes)]
    W = 0.0
    for v in edges:
        W += idx.plen[v]
    return W, edges


def path_cover_by_dfs(idx, s: int, req_nodes, end) -> tuple[float, list[int]]:
    """``TreeIndex.path_cover`` by a depth-first walk over an adjacency
    built per call."""
    K = set(req_nodes) | {s}
    if end not in (FREE, CLOSED):
        K.add(end)
    W, edges = span_by_counts(idx, K)
    span_nodes = set(K)
    for v in edges:
        span_nodes.add(v)
        span_nodes.add(idx.par[v])
    dist = idx.tree.node_dist
    if end == CLOSED:
        cost = 2 * W
        e = s
    else:
        e = end if end != FREE else max(span_nodes, key=lambda v: (dist(s, v), -v))
        cost = 2 * W - dist(s, e)

    adj: dict[int, list[int]] = {v: [] for v in span_nodes}
    for v in edges:
        adj[v].append(idx.par[v])
        adj[idx.par[v]].append(v)

    # depth-first, children in node order, except that the child
    # towards the walk's end is entered last
    toward = _parents_from(idx, e)
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


def walk_by_dfs(idx, s: int, e: int) -> tuple[list[int], list]:
    """Every node of ``idx`` in the order of a depth-first walk from ``s``
    over an adjacency built from the tree's edges, children ascending but
    the child toward ``e`` entered last, and every item in that order (at
    one node, in ``items_at`` order)."""
    adj: list[list[int]] = [[] for _ in range(idx.tree.n_nodes)]
    for u, v, _ in idx.tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    toward = {e: -1}  # each node's neighbour on its path to e
    stack = [e]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in toward:
                toward[y] = x
                stack.append(y)
    order: list[int] = []
    stack = [(s, -1)]
    while stack:
        x, prev = stack.pop()
        order.append(x)
        kids = sorted((y for y in adj[x] if y != prev), key=lambda y: (y == toward[x], y))
        stack += [(y, x) for y in reversed(kids)]
    return order, [item for v in order for item in idx.items_at[v]]


# ---------------------------------------------------------------------------
# Tree indexes built through intermediate trees and point round trips
# ---------------------------------------------------------------------------

def trim_tree_by_contraction(tree: Tree, points) -> tuple[Tree, list]:
    """Restrict a tree to the union of root-to-point paths.

    Returns the trimmed tree plus the image of each input point in it.
    Degree-2 interior vertices (other than the root) are contracted,
    edges are truncated right past the deepest point on them, and every
    leaf of the result hosts a point.
    """
    points = [tree.canon(p) for p in points]
    if not points:
        return Tree([]), []

    # offsets of interest per original edge
    cuts: dict[int, set[float]] = {}
    for p in points:
        if p[0] != -1:
            cuts.setdefault(p[0], set()).add(p[1])

    # which original nodes still have content at or below them
    has_below: dict[int, bool] = {}

    def fill(v: int) -> bool:
        any_c = False
        for w in tree._children.get(v, []):
            ei = tree._parent[w][1]
            if fill(w) or cuts.get(ei):
                any_c = True
        has_below[v] = any_c
        return any_c

    fill(0)

    new_edges: list[tuple[int, int, float]] = []
    next_id = [0]
    loc_of: dict[tuple, int] = {TREE_ROOT: 0}

    def new_node() -> int:
        next_id[0] += 1
        return next_id[0]

    def build(v_old: int, v_new: int) -> None:
        for w in tree._children.get(v_old, []):
            ei = tree._parent[w][1]
            ln = tree._parent[w][2]
            offs = sorted(cuts.get(ei, ()))
            deeper = has_below.get(w, False)
            if not offs and not deeper:
                continue
            prev_new, prev_off = v_new, 0.0
            for off in offs:
                if off == 0.0:
                    loc_of[(ei, 0.0)] = prev_new
                    continue
                node = new_node()
                new_edges.append((prev_new, node, off - prev_off))
                loc_of[(ei, off)] = node
                prev_new, prev_off = node, off
            if deeper:
                if prev_off < ln:
                    node = new_node()
                    new_edges.append((prev_new, node, ln - prev_off))
                else:
                    node = prev_new
                loc_of[tree.canon((ei, ln))] = node
                build(w, node)

    build(0, 0)

    # contract degree-2 vertices that host no point and are not the root
    t = Tree(new_edges)
    hosted = {loc_of[p] for p in points}
    kept = {0} | hosted | {
        v for v in range(1, t.n_nodes) if len(t._children.get(v, [])) >= 2
    }
    ids = {v: i for i, v in enumerate(sorted(kept))}
    final_edges = []
    for v in sorted(kept - {0}):
        length = 0.0
        u = v
        while True:
            p, _, ln = t._parent[u]
            length += ln
            u = p
            if u in kept:
                break
        final_edges.append((ids[u], ids[v], length))

    out = Tree(final_edges)
    mapped = [out.node_point(ids[loc_of[p]]) for p in points]
    return out, mapped


def snip_flower(flower: Flower, keep_petals, points=()) -> tuple[Tree, dict, list]:
    """Replace every petal not kept by two half-length branches.

    Returns (tree part, kept petal lengths by id, mapped points).  A
    mapped point is a tree point for stem/snipped locations and
    ``("petal", k, offset)`` for points on kept petals.
    """
    keep = set(keep_petals)
    edges = []
    next_id = [0]

    def branch(length):
        next_id[0] += 1
        edges.append((0, next_id[0], length))
        return next_id[0]

    stem_node = branch(flower.stem) if flower.stem > 0 else None
    halves = {}
    for k, ln in enumerate(flower.petals):
        if k in keep:
            continue
        halves[k] = (branch(ln / 2), branch(ln / 2))
    tree = Tree(edges)

    def map_point(p):
        comp, off = flower.canon(p)
        if (comp, off) == ("stem", 0.0):
            return TREE_ROOT
        if comp == "stem":
            ei = tree._parent[stem_node][1]
            return tree.canon((ei, off))
        if comp in keep:
            return ("petal", comp, off)
        ln = flower.petals[comp]
        cw, ccw = halves[comp]
        if off <= ln / 2:
            return tree.canon((tree._parent[cw][1], off))
        return tree.canon((tree._parent[ccw][1], ln - off))

    kept = {k: flower.petals[k] for k in keep}
    return tree, kept, [map_point(p) for p in points]


def line_tree(coords: list[float]) -> tuple[Tree, list]:
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


def node_index(tree: Tree, p) -> int:
    p = tree.canon(p)
    if p[0] == -1:
        return 0
    ei, off = p
    u, v, ln = tree.edges[ei]
    if off >= ln:
        return v
    raise ValueError(f"point {p} is not a node of the tree")


def tree_index_by_round_trip(space, items: dict) -> TreeIndex:
    """``offline.tree_index_for`` through a whole tree built per space: a
    line's nodes by side, or a tree trimmed and contracted, with every
    item's tree point turned back into its node by ``node_index``."""
    keys = list(items)
    if isinstance(space, Line):
        tree, mapped = line_tree([items[k] for k in keys])
    else:
        tree, mapped = trim_tree_by_contraction(space, [items[k] for k in keys])
    return TreeIndex(tree, {k: node_index(tree, p) for k, p in zip(keys, mapped)})


def snipped_index_by_round_trip(flower: Flower, locations: list, kept) -> TreeIndex:
    """``FlowerOracle``'s index of the requests off the ``kept`` petals,
    through the whole snipped tree."""
    loc = [flower.canon(p) for p in locations]
    ids = [i for i, p in enumerate(loc) if p[0] == "stem" or p[0] not in kept]
    tree, _, mapped = snip_flower(flower, kept, [loc[i] for i in ids])
    return tree_index_by_round_trip(tree, dict(zip(ids, mapped)))
