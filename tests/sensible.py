"""Safe/sensible permutation sets for structured spaces.

These are verification aids: enumerate the structured orders that are
guaranteed to contain an optimum for every release-time assignment, so
tests can check that the oracles dominate exactly the right families.
``opt_by_enumeration`` is the exact optimum by evaluating every order,
the reference for ``offline.opt_bruteforce``; ``opt_value_by_loop`` is its
value by the forward subset DP in pure Python, the reference above the
enumeration's reach; ``ring_cover_all_cuts`` builds the walk of every cut,
the reference for ``offline.ring_cover``.
"""
from __future__ import annotations

import itertools
from array import array
from typing import Any

import numpy as np

from oltsp.offline import CLOSED, FREE, OptResult, _build_matrix, segment_cover
from oltsp.spaces import Flower, Ring, Space
from oltsp.tolerance import TIE


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
    locs = [(0, ring.norm(p)) for p in locations]
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
    D = np.array(_build_matrix(space, pts))
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
    """Value of ``offline.opt_bruteforce`` by the forward subset DP, one
    set and one last request at a time in pure Python."""
    n = len(instance.requests)
    if n == 0:
        return 0.0
    D = _build_matrix(instance.space, [instance.origin] + [r.location for r in instance.requests])
    rel = [r.release for r in instance.requests]
    closed = instance.variant == "closed"
    full = (1 << n) - 1
    # legs[i][j]: request i to request j; _build_matrix fills both
    # triangles from one distance call, so legs[i][j] == legs[j][i]
    legs = [row[1:] for row in D[1:]]
    members = [[k for k in range(n) if S >> k & 1] for S in range(full + 1)]

    # f[S * n + j]: earliest time at request j having served the set S
    f = array("d", [0.0]) * (n << n)
    for j in range(n):
        a = D[0][j + 1]
        f[(n << j) + j] = a if a > rel[j] else rel[j]
    for S in range(3, full + 1):
        ks = members[S]
        if len(ks) < 2:
            continue
        base = S * n
        for j in ks:
            prev = (S ^ (1 << j)) * n
            col = legs[j]
            a = min([f[prev + i] + col[i] for i in ks if i != j])
            f[base + j] = a if a > rel[j] else rel[j]
    last = full * n
    if closed:
        opt = min([f[last + j] + D[j + 1][0] for j in range(n)])
    else:
        opt = min(f[last:last + n])
    return opt


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
    loop_order = [k for _, k in sorted(req, key=lambda r: ((r[0] - s) % C, str(r[1])))]
    if end == CLOSED or end == FREE:
        candidates.append((C, loop_order))
    else:
        arc = abs(s - e)
        candidates.append((C + min(arc, C - arc), loop_order))

    candidates.sort(key=lambda c: c[0])
    return candidates[0]
