"""Safe/sensible permutation sets for structured spaces.

These are verification aids: enumerate the structured orders that are
guaranteed to contain an optimum for every release-time assignment, so
tests can check that the oracles dominate exactly the right families.
"""
from __future__ import annotations

import itertools

from oltsp.spaces import Flower, Ring, Space


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
