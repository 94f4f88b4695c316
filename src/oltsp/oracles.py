"""Domination oracles: monotonically growing permutation sets queried at
release events.

Every batch follows one template.  For each guessed final request qf
(``None`` in the closed variant, where the walk ends at the origin) and
each pivot q, the first unreleased request of a hypothetical order, a
scan picks a structured prefix of released requests on an optimal route
to q; :meth:`DominationOracle._dominator` then appends q, cleans up the
rest with an exact classical solver, and pins qf last.  Once every
request is released the batch is a single optimal tour from the origin.
The general oracle enumerates released subsets directly
(single-exponential); the tree, ring and flower oracles enumerate leaves,
crescents/loops, and petal states instead (FPT or polynomial).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import RouteStats
from .offline import (
    CLOSED,
    FREE,
    TreeIndex,
    distance_matrix,
    exact_path,
    flower_cover_grouped,
    ring_cover,
    star_index,
    tree_index_for,
)
from .spaces import Flower, Line, Ring, Space, Tree
from .tolerance import FEAS, SNAP, TIE


@dataclass
class BatchRecord:
    time: float
    perms: tuple[tuple, ...]  # the batch, in emission order
    new_perms: int  # how many of them were not in the set before

    @property
    def batch_size(self) -> int:
        return len(self.perms)


class OutOfOrderEvent(ValueError):
    pass


class DominationOracle:
    """Base class holding the cumulative permutation set S(t)."""

    def __init__(self, space: Space, predictions: list, variant: str):
        self.space = space
        self.predictions = list(predictions)
        self.variant = variant
        self.n = len(predictions)
        self.ids = frozenset(range(self.n))
        self.end = CLOSED if variant == "closed" else FREE  # where a tour ends
        self.origin = space.origin()
        self.D = distance_matrix(space, [self.origin] + self.predictions)
        self.entries: dict[tuple, RouteStats] = {}
        self.batches: list[BatchRecord] = []
        self._last_time: float | None = None
        self._last_released: frozenset = frozenset()
        self._cleanup_memo: dict[tuple, list[int]] = {}

    # -- protocol ----------------------------------------------------------

    def step(self, t: float, released: Iterable[int]) -> list[tuple]:
        released = frozenset(released)
        if self._last_time is not None and t < self._last_time - FEAS:
            raise OutOfOrderEvent(f"event at {t} precedes {self._last_time}")
        if not released >= self._last_released:
            raise OutOfOrderEvent("released set shrank")
        if self._last_time is not None and released == self._last_released and self.batches:
            return []  # idempotent repeat query
        self._last_time = t
        self._last_released = released
        if released >= self.ids:
            batch = [tuple(self._cover(None, self.ids, self.end))]
        else:
            batch = list(dict.fromkeys(self._batch(released)))
        new = []
        closed = self.variant == "closed"
        for perm in batch:
            if perm not in self.entries:
                self.entries[perm] = RouteStats(perm, self.D, closed)
                new.append(perm)
        self.batches.append(BatchRecord(t, tuple(batch), len(new)))
        return new

    def dump_batches(self) -> str:
        lines = []
        for rec in self.batches:
            body = " ".join("(" + ",".join(map(str, p)) + ")" for p in rec.perms)
            lines.append(f"batch t={rec.time:.9g}: {body}")
        return "\n".join(lines)

    def _batch(self, released: frozenset) -> list[tuple]:
        """Dominators for a released set that leaves some request out."""
        raise NotImplementedError

    def _dominator(self, prefix: list[int], q: int, final: int | None = None) -> tuple:
        """``prefix``, then ``q`` (unless q is the pinned ``final``), then the
        clean-up of every other request from q to ``final``, pinned last, or
        with no final to this variant's end."""
        head = prefix if q == final else prefix + [q]
        pin = [] if final is None else [final]
        end = self.end if final is None else final
        return tuple(head + self._cleanup(q, self.ids.difference(head, pin), end) + pin)

    def _cleanup(self, qid: int, rest: frozenset, end) -> list[int]:
        """Serving order of ``rest`` on an optimal walk from request ``qid``
        to ``end``: CLOSED (the origin), FREE, or a request id.  Memoised;
        the tree oracle, whose index keeps the walks, skips the memo."""
        key = (qid, rest, end)
        hit = self._cleanup_memo.get(key)
        if hit is None:
            hit = self._cleanup_memo[key] = self._cover(qid, rest, end)
        return hit

    def _cover(self, qid: int | None, rest: frozenset, end) -> list[int]:
        """The uncached computation behind :meth:`_cleanup`; a ``qid`` of
        None starts at the origin."""
        raise NotImplementedError

    def _tree_batch(self, idx: TreeIndex, released: frozenset) -> list[tuple]:
        """Scan-to-pivot dominators over the tree ``idx``, one set per final
        request: rooted at the origin with no final (closed), or at each
        request's node with that request pinned last (open).  The pivots
        are the maximal unreleased nodes, each with its smallest id but the
        final, and the leaves the maximal released nodes, both read at the
        final's node from the step's tips; each scan is read from the
        step's :func:`_scanner`."""
        node_of = idx.node_of
        smallest: dict[int, int] = {}  # unreleased node -> its smallest id
        second: dict[int, int] = {}  # and its next, the pivot if the final is the smallest
        for i in sorted(self.ids - released):
            if node_of[i] in smallest:
                second.setdefault(node_of[i], i)
            else:
                smallest[node_of[i]] = i
        # one set serves every final: rooted at the final's node, the other
        # unreleased nodes have the same maximal nodes with that node added;
        # where it is the only one, its next id is the pivot, or the final
        # itself if it is the last unreleased request
        unrel_tips = idx.tips(smallest)
        rel_tips = idx.tips({node_of[i] for i in released})
        scan = _scanner(idx, released)
        out = []
        for qf in [None] if self.variant == "closed" else sorted(self.ids):
            root = 0 if qf is None else node_of[qf]
            pivots = [(v, second.get(v, qf) if smallest[v] == qf else smallest[v])
                      for v in idx.tips_at(unrel_tips, root)]
            leaves = idx.tips_at(rel_tips, root)
            out += [self._dominator(scan(chosen + (qnode,), qnode, qf), q, qf)
                    for qnode, q in pivots for chosen in _subsets(leaves)]
        return out


# ---------------------------------------------------------------------------
# General metric oracle
# ---------------------------------------------------------------------------

class GeneralOracle(DominationOracle):
    """One dominator per (released subset R', unreleased pivot u): an
    optimal head from the origin over R' to u, then an optimal tail over
    every other request.

    Heads and tails are read from Held-Karp tables built once over the
    prediction matrix.  A head read backward is a walk from u over R' to the
    origin, so one back table, ending at the origin, holds every head and is
    the closed variant's tail table; the open variant adds one ending anywhere.
    Among equal-length heads the one taken is the lexicographically smallest
    backward.  A dominator depends on neither the step nor the rest of the
    released set, so each is walked once per instance, the first time a batch
    holds it, and kept in ``_dominators[u]`` under the id bitmask of R'.
    """

    def __init__(self, space, predictions, variant):
        super().__init__(space, predictions, variant)
        rows = tuple(range(1, self.n + 1))
        self._back = exact_path(self.D, rows, 0)
        self._tail = self._back if self.end == CLOSED else exact_path(self.D, rows, FREE)
        self._dominators: list[dict[int, tuple]] = [{} for _ in range(self.n)]

    def _cover(self, qid, rest, end) -> list[int]:
        # the tail table's walks end at this variant's end
        return self._tail.walk(0 if qid is None else qid + 1, sum(1 << i for i in rest))[1]

    def _batch(self, released: frozenset) -> list[tuple]:
        # every subset of the released ids, as id bitmasks in binary
        # counting order over the sorted ids
        masks = [0]
        for i in sorted(released):
            masks += [mask | 1 << i for mask in masks]
        out = []
        for u in sorted(self.ids - released):
            table = self._dominators[u]
            for mask in masks:
                perm = table.get(mask)
                if perm is None:
                    perm = table[mask] = self._walk_dominator(u, mask)
                out.append(perm)
        return out

    def _walk_dominator(self, u: int, mask: int) -> tuple:
        head = self._back.walk(u + 1, mask)[1][::-1]
        tail = self._tail.walk(u + 1, ((1 << self.n) - 1) ^ (1 << u) ^ mask)[1]
        return tuple(head + [u] + tail)


# ---------------------------------------------------------------------------
# Tree-style batches over a TreeIndex (shared by tree, ring and flower)
# ---------------------------------------------------------------------------

def _subsets(items: list) -> Iterable[tuple]:
    for mask in range(1 << len(items)):
        yield tuple(items[j] for j in range(len(items)) if mask >> j & 1)


def _scanner(idx: TreeIndex, released: frozenset) -> Callable[..., list[int]]:
    """One step's scans: ``scan(nodes, e, final)``, the released ids but
    ``final`` along ``idx.walk_items(0, e)`` on the span of ``nodes`` and
    the origin, the covering walk's order.  Each (nodes, e) is filtered
    once per step; an empty node set scans nothing."""
    par, node_of = idx.par, idx.node_of
    table: dict[tuple, list[int]] = {}

    def scan(nodes: tuple, e: int, final: int | None = None) -> list[int]:
        ids = table.get((nodes, e))
        if ids is None:
            inside = set()  # each node's path up to the origin
            for v in nodes:
                while v != -1 and v not in inside:
                    inside.add(v)
                    v = par[v]
            ids = table[nodes, e] = [i for i in idx.walk_items(0, e) if i in released and node_of[i] in inside]
        return [i for i in ids if i != final] if final in released else ids

    return scan


class TreeOracle(DominationOracle):
    def __init__(self, space, predictions, variant):
        super().__init__(space, predictions, variant)
        self.idx = tree_index_for(space, {i: p for i, p in enumerate(self.predictions)})

    def _cover(self, qid, rest, end) -> list[int]:
        if not rest:
            return []
        node_of = self.idx.node_of
        start = 0 if qid is None else node_of[qid]
        if end == FREE:  # the open variant's one all-released tour
            order = self.idx.path_cover(start, {node_of[i] for i in rest}, FREE)[1]
            return [i for v in order for i in self.idx.items_at[v] if i in rest]
        # rest's nodes lie on the walk's span, which the whole tree's walk
        # order visits in the walk's own order: no span needed
        return [i for i in self.idx.walk_items(start, 0 if end == CLOSED else node_of[end]) if i in rest]

    # the index keeps every item walk a clean-up reads, so no memo
    _cleanup = _cover

    def _batch(self, released: frozenset) -> list[tuple]:
        return self._tree_batch(self.idx, released)


# ---------------------------------------------------------------------------
# Ring oracle
# ---------------------------------------------------------------------------

class RingOracle(DominationOracle):
    def __init__(self, space: Ring, predictions, variant):
        super().__init__(space, predictions, variant)
        C = self.C = space.circumference
        pos = self.pos = [space.canon(p) for p in self.predictions]
        # the ring split at the antipode: each request's arm (+1 clockwise,
        # -1 counter-clockwise) and its distance from the origin along it,
        # indexed as a star of two arms, the counter-clockwise half first
        self.arm = [1 if p <= C / 2 else -1 for p in pos]
        self.depth = [p if a == 1 else C - p for p, a in zip(pos, self.arm)]
        self.idx = star_index([[(d, i) for i, (d, a) in enumerate(zip(self.depth, self.arm)) if a == side]
                               for side in (-1, 1)])
        # request ids in four scan orders, ties to the smaller id
        ids = range(self.n)
        self.cw = sorted(ids, key=lambda i: (pos[i], i))
        self.ccw = sorted(ids, key=lambda i: (-pos[i], i))
        self.near = sorted(ids, key=lambda i: (self.depth[i], i))
        self.far = sorted(ids, key=lambda i: (-self.depth[i], i))

    def _cover(self, qid, rest, end) -> list[int]:
        # in the true ring metric, not on the split index; the walk does
        # not depend on the order of its items
        pos = self.pos
        start = 0.0 if qid is None else pos[qid]
        end_pos = 0.0 if end == CLOSED else (FREE if end == FREE else pos[end])
        return ring_cover(self.C, start, [(pos[i], i) for i in rest], end_pos)[1]

    def _crescents(self, released: frozenset, cw: list[int], ccw: list[int]) -> list[tuple]:
        out = []
        for q in sorted(self.ids - released):
            pq = self.pos[q]
            left = [i for i in cw if self.pos[i] <= pq + TIE]
            right = [i for i in ccw if self.pos[i] >= pq - TIE]
            full_moon = cw if self.arm[q] == 1 else ccw
            out += [self._dominator(prefix, q) for prefix in (left, right, full_moon)]
        return out

    def _line_extents(self, released: frozenset, near: list[int]) -> list[tuple]:
        """Open-variant dominators for orders that never cross the antipode:
        guess the farthest visited request on each arm, sweep both arms,
        finish at q, then clean up freely.  One dominator per
        (q, left extent, right extent) choice."""
        depth = self.depth
        out = []
        for q in sorted(self.ids - released):
            same = [i for i in near if self.arm[i] == self.arm[q]]
            other = [i for i in near if self.arm[i] != self.arm[q]]
            same_extents = [depth[q]] + [depth[i] for i in same if depth[i] > depth[q] + TIE]
            other_extents = [None] + [depth[i] for i in other]
            for es in same_extents:
                s_part = [i for i in same if depth[i] <= es + TIE]
                for eo in other_extents:
                    o_part = [] if eo is None else [i for i in other if depth[i] <= eo + TIE]
                    out.append(self._dominator(o_part + s_part, q))
                    if o_part:
                        out.append(self._dominator(s_part + o_part, q))
        return out

    def _out_and_back(self, released: frozenset, near: list[int], far: list[int]) -> list[tuple]:
        """Open-variant dominators that turn around at q1, loop out the other
        arc through the antipode, descend to q2, and finish at q."""
        depth = self.depth
        out = []
        for side in (1, -1):
            # "other" arc where q1/q2 live, nearest and farthest first
            other_near = [i for i in near if self.arm[i] == side]
            other_far = [i for i in far if self.arm[i] == side]
            outbound = [i for i in near if self.arm[i] != side]
            for q in sorted(self.ids - released):
                q2_opts = other_near + ([q] if self.arm[q] == side else [])
                for q1 in [None] + other_near:
                    d1 = depth[q1] if q1 is not None else 0.0
                    for q2 in q2_opts:
                        if depth[q2] <= d1 + TIE:
                            continue
                        a_part = [i for i in other_far if depth[i] <= d1 + TIE]
                        c_part = [i for i in other_far if depth[i] >= depth[q2] - TIE]
                        out.append(self._dominator(a_part + outbound + c_part, q))
        return out

    def _batch(self, released: frozenset) -> list[tuple]:
        cw, ccw, near, far = ([i for i in order if i in released]
                              for order in (self.cw, self.ccw, self.near, self.far))
        out = self._tree_batch(self.idx, released)
        if self.variant == "closed":
            return out + self._crescents(released, cw, ccw)
        # orders that never cross the antipode need not be sensible for
        # their own final request, so cover all extent choices directly
        out += self._line_extents(released, near)
        for q in sorted(self.ids - released):  # full loops either way
            out += [self._dominator(cw, q), self._dominator(ccw, q)]
        out += self._crescents(released, cw, ccw)
        out += self._out_and_back(released, near, far)
        return out


# ---------------------------------------------------------------------------
# Flower oracle
# ---------------------------------------------------------------------------

class FlowerOracle(DominationOracle):
    """Petal-state dominators.  For each final qf, pivot q and set ``done``
    of petals that host a released request, the petals in ``done`` are
    looped first: forward, except q's own, looped toward q's half.  A scan
    over the leaves of one star, reading only the other petals' requests,
    follows.  It ends at q (tree); or at the origin, then walks q's kept
    petal either way up to q (arc) or around it (late loop, when qf shares
    that petal); or, when q's petal is in ``done``, at the origin."""

    def __init__(self, space: Flower, predictions, variant):
        super().__init__(space, predictions, variant)
        self.flower = space
        self.loc = [space.canon(p) for p in self.predictions]
        # each request's arm once its petal is snipped into two halves
        # ("stem", or (petal, +1 forward / -1 backward)) and its offset on it
        self._arm = [_star_arm(space, c, o) for c, o in self.loc]
        # each petal's ids in loop order by direction (+1 forward, -1
        # backward), ties to the smaller id
        petals = sorted({c for c, _ in self.loc} - {"stem"})
        self._petal_order = {(k, d): sorted((i for i in self.ids if self.loc[i][0] == k),
                                            key=lambda i: (d * self.loc[i][1], i))
                             for k in petals for d in (1, -1)}
        # the star of every petal snipped at its antipode: the stem arm, then
        # each petal's forward and backward half, with the requests on them
        self.idx = star_index([[(off, i) for i, (a, off) in enumerate(self._arm) if a == arm]
                               for arm in ["stem", *((k, d) for k in petals for d in (1, -1))]])
        # for each set of kept petals, the requests a scan reads: those off them
        self._scanned = {frozenset(kept): frozenset(i for i in self.ids if self.loc[i][0] not in kept)
                         for kept in _subsets(petals)}
        # the clean-ups' leg table, kept for the oracle's lifetime: every
        # clean-up prices and walks each leg once
        self._legs: dict = {}

    def _cover(self, qid, rest, end) -> list[int]:
        loc, origin = self.loc, self.origin
        start = origin if qid is None else loc[qid]
        end = origin if end == CLOSED else FREE if end == FREE else loc[end]
        # in id order: the cover's split ties go to the first one it tries
        return flower_cover_grouped(self.flower, start, [(loc[i], i) for i in sorted(rest)], end, self._legs)[1]

    def _batch(self, released: frozenset) -> list[tuple]:
        idx, node_of = self.idx, self.idx.node_of
        unrel = sorted(self.ids - released)
        # every set of looped petals, in binary counting order
        dones = list(_subsets(sorted({self.loc[i][0] for i in released} - {"stem"})))
        # per set of kept petals, the released and the unreleased nodes off
        # them, and one tip pass per distinct such set
        members = {kept: (frozenset(node_of[i] for i in on & released), frozenset(node_of[i] for i in on - released))
                   for kept, on in self._scanned.items()}
        tips = {nodes: idx.tips(nodes) for nodes in set().union(*members.values())}
        # (kept, root) -> the subsets of the maximal released nodes there, and
        # the maximal unreleased nodes.  These keep an unreleased final's
        # node, which changes no answer a pivot reads, as in the tree batch:
        # the pivot is the final itself or another request off the kept petals
        reads: dict[tuple, tuple[list[tuple], list[int]]] = {}
        scan = _scanner(idx, released)
        # each petal's released ids in loop order; a released final leaves itself out
        rel_loops = {key: [i for i in order if i in released] for key, order in self._petal_order.items()}
        out = []
        for qf in [None] if self.variant == "closed" else [None] + sorted(self.ids):
            loops = rel_loops if qf not in released else {
                key: [i for i in ids if i != qf] for key, ids in rel_loops.items()}
            for q in unrel:
                if q == qf and len(unrel) > 1:
                    continue
                (qc, qo), (arm, _) = self.loc[q], self._arm[q]
                # q's petal walks, each once: to q either way, or around it if qf shares it
                walks = []
                if qc != "stem":
                    fwd, bwd = loops[qc, 1], loops[qc, -1]
                    walks = [[i for i in fwd if self.loc[i][1] <= qo + TIE],
                             [i for i in bwd if self.loc[i][1] >= qo - TIE],
                             *([fwd, bwd] if qf is not None and self.loc[qf][0] == qc else [])]
                    walks = [w for j, w in enumerate(walks) if w not in walks[:j]]
                for done in dones:
                    prefix = [i for k in done for i in loops[k, arm[1] if k == qc else 1]]
                    looped = frozenset(done)
                    # (kept petals, scan ends at q, walk along q's petal)
                    options = [(looped, qc not in looped, [])]
                    if qc not in looped:
                        options += [(looped | {qc}, False, walk) for walk in walks]
                    for kept, at_q, walk in options:
                        on = self._scanned[kept]
                        root = node_of[qf] if qf in on else 0
                        read = reads.get((kept, root))
                        if read is None:
                            rel_nodes, unrel_nodes = members[kept]
                            read = reads[kept, root] = (list(_subsets(idx.tips_at(tips[rel_nodes], root))),
                                                        idx.tips_at(tips[unrel_nodes], root))
                        leaves, tops = read
                        qnode = node_of[q]
                        # only the deepest unreleased request per branch can
                        # be the first unreleased of a sensible order
                        if at_q and qnode not in tops:
                            continue
                        # disjoint parts: looped petals, other arms' span, q's petal
                        for chosen in leaves:
                            ids = scan(chosen + (qnode,), qnode, qf) if at_q else scan(chosen, 0, qf)
                            out.append(self._dominator(prefix + ids + walk, q, qf))
        return out


def _star_arm(flower: Flower, comp, off) -> tuple:
    """Arm and offset of a canonical flower point on the snipped star, an
    offset within ``SNAP`` of the arm's root or end snapped onto it."""
    if comp == "stem":
        arm, end = "stem", flower.stem
    elif off <= flower.petals[comp] / 2:
        arm, end = (comp, 1), flower.petals[comp] / 2
    else:
        arm, end, off = (comp, -1), flower.petals[comp] / 2, flower.petals[comp] - off
    return arm, (0.0 if off <= SNAP else end if off >= end - SNAP else off)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

# kind -> (oracle class, spaces it accepts), in the order that picks the
# default: a space's default kind is the first that accepts it
ORACLES = {
    "tree": (TreeOracle, (Line, Tree)),
    "ring": (RingOracle, (Ring,)),
    "flower": (FlowerOracle, (Flower,)),
    "general": (GeneralOracle, (Space,)),
}


def default_oracle_kind(space: Space) -> str:
    return next(kind for kind, (_, spaces) in ORACLES.items() if isinstance(space, spaces))


def make_oracle(space: Space, predictions, variant: str, kind: str = "auto") -> DominationOracle:
    if kind == "auto":
        kind = default_oracle_kind(space)
    try:
        cls, spaces = ORACLES[kind]
    except KeyError:
        raise ValueError(f"unknown oracle kind {kind!r}") from None
    if not isinstance(space, spaces):
        raise ValueError(f"oracle {kind!r} is not compatible with {type(space).__name__}")
    return cls(space, predictions, variant)
