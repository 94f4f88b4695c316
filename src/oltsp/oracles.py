"""Domination oracles: monotonically growing permutation sets queried at
release events.

Every batch follows one template.  For each guessed final request qf
(``None`` in the closed variant, where the walk ends at the origin) and
each pivot q, the first unreleased request of a hypothetical order, a
scan picks a structured prefix of released requests on an optimal route
to q; :meth:`DominationOracle._dominator` then appends q, cleans up the
rest with an exact classical solver, and pins qf last.  Once every
request is released the batch is one offline solver's tour from the
origin: ``solve_classical``'s, or a walk on the general oracle's own
Held-Karp table.  The general oracle enumerates released subsets directly
(single-exponential); the tree, ring and flower oracles enumerate leaves,
crescents/loops, and petal states instead (FPT or polynomial).  The ring
and each flower petal are an :class:`Arc`, whose row families are
functions of it, so a petal's rows are the ring's.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator

from .core import RouteStats, check_setting
from .offline import (
    FREE,
    PathQuery,
    TreeIndex,
    distance_matrix,
    exact_path,
    flower_cover_grouped,
    ring_cover,
    solve_classical,
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
        check_setting(space, predictions, variant)
        self.space = space
        self.predictions = [space.canon(p) for p in predictions]
        self.variant = variant
        self.n = len(predictions)
        self.ids = frozenset(range(self.n))
        self.origin = space.origin()
        self.end = self.origin if variant == "closed" else FREE  # where a tour ends
        self.D = distance_matrix(space, [self.origin] + self.predictions)
        self.entries: dict[tuple, RouteStats] = {}
        self.batches: list[BatchRecord] = []
        self.released: frozenset = frozenset()  # at the last step
        self._cleanup_memo: dict[tuple, list[int]] = {}

    # -- protocol ----------------------------------------------------------

    def step(self, t: float, released: Iterable[int]) -> list[tuple]:
        released = frozenset(released)
        bad = sorted((i for i in released if type(i) is not int or not 0 <= i < self.n), key=repr)  # no bools
        if bad:
            raise ValueError(f"released ids {bad} are not request ids 0..{self.n - 1}")
        if not math.isfinite(t):
            raise ValueError(f"event time {t} is not finite")
        if t < 0.0:
            raise ValueError(f"event time {t} is negative")
        if self.batches and t < self.batches[-1].time - FEAS:
            raise OutOfOrderEvent(f"event at {t} precedes {self.batches[-1].time}")
        if not released >= self.released:
            raise OutOfOrderEvent("released set shrank")
        if self.batches and released == self.released:
            return []  # idempotent repeat query
        self.released = released
        if released >= self.ids:
            batch = [tuple(self._tour(PathQuery(self.space, self.origin, self.predictions, self.end)))]
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

    def _tour(self, query: PathQuery) -> list[int]:
        """Serving order of the all-released batch's optimal classical tour."""
        return solve_classical(query).order

    def _dominator(self, prefix: list[int], q: int, final: int | None = None) -> tuple:
        """Every structured oracle's row: ``prefix``, then ``q`` (unless q is
        the pinned ``final``), then their :meth:`_cleanup`, then ``final``."""
        head = prefix if q == final else prefix + [q]
        return tuple(head + self._cleanup(q, head, final) + ([] if final is None else [final]))

    def _cleanup(self, q: int, head: list[int], final: int | None) -> list[int]:
        """Serving order of the requests outside ``head`` and ``final`` on an optimal walk
        from request ``q`` to ``final``, or with none to the tour's ``end``.  Memoised per
        (q, head set, final): with the final fixed the head set fixes the rest, and is smaller."""
        key = (q, frozenset(head), final)
        hit = self._cleanup_memo.get(key)
        if hit is None:
            rest = self.ids.difference(head, [] if final is None else [final])
            end = self.end if final is None else self.predictions[final]
            hit = self._cleanup_memo[key] = self._cover(q, rest, end)
        return hit

    def _cover(self, qid: int, rest: frozenset, end) -> list[int]:
        """:meth:`_cleanup`'s walk, unmemoised: ``rest`` from request ``qid`` to ``end``, a point or FREE."""
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
            leaves = list(_subsets(idx.tips_at(rel_tips, root)))
            out += [self._dominator(scan(chosen + (qnode,), qnode, qf), q, qf)
                    for qnode, q in pivots for chosen in leaves]
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
        self._back = exact_path(self.D, rows, 0, hops=True)
        self._tail = self._back if variant == "closed" else exact_path(self.D, rows, FREE, hops=True)
        self._dominators: list[dict[int, tuple]] = [{} for _ in range(self.n)]

    def _tour(self, query) -> list[int]:
        # Held-Karp on every space, so a structured one keeps its tie-breaks:
        # the tail table holds the tour, a walk from the origin over every id
        return self._tail.walk(0, (1 << self.n) - 1)[1]

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
        # table positions are ids: the tables' targets are rows 1..n
        perm = self._back.hops(u, mask)
        perm.reverse()
        perm.append(u)
        perm += self._tail.hops(u, ((1 << self.n) - 1) ^ (1 << u) ^ mask)
        return tuple(perm)


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
        self.idx = tree_index_for(space, dict(enumerate(self.predictions)))

    def _cleanup(self, q, head, final) -> list[int]:
        # the index's item walk from q to the final (the origin when
        # closed), less the head and the final; it keeps every walk, so no memo
        node_of = self.idx.node_of
        skip = {*head, final}
        return [i for i in self.idx.walk_items(node_of[q], 0 if final is None else node_of[final]) if i not in skip]

    def _batch(self, released: frozenset) -> list[tuple]:
        return self._tree_batch(self.idx, released)


# ---------------------------------------------------------------------------
# Ring oracle, and the arc that the ring and every flower petal are
# ---------------------------------------------------------------------------

class Arc(namedtuple("Arc", "pos arm depth cw ccw near far")):
    """A loop, the ring or one flower petal, split at its antipode: per id
    (dicts) its position, its arm (+1 at most half the loop along, else -1)
    and its depth along that arm; and the ids in four scan orders (cw, ccw,
    near and far first, ties to the smaller id), which a step restricts to
    its released ids.  A loop's row families are functions of the restricted
    arc and the sorted unreleased pivots, yielding (head, pivot) pairs."""

    @classmethod
    def split(cls, length: float, pos: dict[int, float]) -> Arc:
        arm = {i: 1 if p <= length / 2 else -1 for i, p in pos.items()}
        depth = {i: p if arm[i] == 1 else length - p for i, p in pos.items()}
        return cls(pos, arm, depth, *(sorted(pos, key=lambda i: (key(i), i)) for key in (
            pos.get, lambda i: -pos[i], depth.get, lambda i: -depth[i])))

    def restrict(self, keep) -> Arc:
        """The scan orders cut to the ids in ``keep``; every id keeps its place."""
        return Arc(*self[:3], *([i for i in order if i in keep] for order in self[3:]))


def _crescents(arc: Arc, unrel) -> Iterator[tuple[list[int], int]]:
    """Per pivot q: the released ids clockwise up to q, counter-clockwise
    down to q, and the full loop toward q's arm."""
    pos = arc.pos
    for q in unrel:
        pq = pos[q]
        yield [i for i in arc.cw if pos[i] <= pq + TIE], q
        yield [i for i in arc.ccw if pos[i] >= pq - TIE], q
        yield (arc.cw if arc.arm[q] == 1 else arc.ccw), q


def _line_extents(arc: Arc, unrel) -> Iterator[tuple[list[int], int]]:
    """Heads of the open orders that never cross the antipode: guess the
    farthest visited request on each arm, sweep both arms, then q.  One
    head per (q, extent on q's arm, extent on the other) choice."""
    arm, depth = arc.arm, arc.depth
    for q in unrel:
        same = [i for i in arc.near if arm[i] == arm[q]]
        other = [i for i in arc.near if arm[i] != arm[q]]
        other_extents = [None] + [depth[i] for i in other]
        for es in [depth[q]] + [depth[i] for i in same if depth[i] > depth[q] + TIE]:
            s_part = [i for i in same if depth[i] <= es + TIE]
            for eo in other_extents:
                o_part = [] if eo is None else [i for i in other if depth[i] <= eo + TIE]
                yield o_part + s_part, q
                if o_part:
                    yield s_part + o_part, q


def _out_and_back(arc: Arc, unrel) -> Iterator[tuple[list[int], int]]:
    """Heads of the open orders that turn around at q1, loop out the other
    arm through the antipode, descend to q2, then q."""
    arm, depth = arc.arm, arc.depth
    for side in (1, -1):
        # the arm where q1 and q2 live, nearest and farthest first
        other_near = [i for i in arc.near if arm[i] == side]
        other_far = [i for i in arc.far if arm[i] == side]
        outbound = [i for i in arc.near if arm[i] != side]
        for q in unrel:
            q2_opts = other_near + ([q] if arm[q] == side else [])
            for q1 in [None] + other_near:
                d1 = depth[q1] if q1 is not None else 0.0
                a_part = [i for i in other_far if depth[i] <= d1 + TIE]
                for q2 in q2_opts:
                    if depth[q2] > d1 + TIE:
                        yield a_part + outbound + [i for i in other_far if depth[i] >= depth[q2] - TIE], q


class RingOracle(DominationOracle):
    def __init__(self, space: Ring, predictions, variant):
        super().__init__(space, predictions, variant)
        arc = self.arc = Arc.split(space.circumference, dict(enumerate(self.predictions)))
        # the split indexed as a star of two arms, the counter-clockwise half first
        self.idx = star_index([[(arc.depth[i], i) for i in arc.pos if arc.arm[i] == side] for side in (-1, 1)])

    def _cover(self, qid, rest, end) -> list[int]:
        # in the true ring metric, not on the split index; the walk does
        # not depend on the order of its items
        pos = self.arc.pos
        return ring_cover(self.space.circumference, pos[qid], [(pos[i], i) for i in rest], end)[1]

    def _batch(self, released: frozenset) -> list[tuple]:
        arc = self.arc.restrict(released)
        unrel = sorted(self.ids - released)
        rows = _crescents(arc, unrel)
        if self.variant == "open":
            # orders that never cross the antipode need not be sensible for their
            # own final request, so cover all extent choices; then full loops
            rows = chain(_line_extents(arc, unrel), ((head, q) for q in unrel for head in (arc.cw, arc.ccw)),
                         rows, _out_and_back(arc, unrel))
        return self._tree_batch(self.idx, released) + [self._dominator(head, q) for head, q in rows]


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
    that petal); or, when q's petal is in ``done``, at the origin.  With q
    on the stem and the final on a petal, the scan may also end at the
    origin and walk the final's kept petal out and back (its line extents
    with q at the base).  Loops and walks are read from the petals' arcs:
    q's are its crescents."""

    def __init__(self, space: Flower, predictions, variant):
        super().__init__(space, predictions, variant)
        loc = self.predictions
        # each petal that hosts a request, ascending, as an arc over the ids on it
        self.arcs = {k: Arc.split(space.petals[k], {i: o for i, (c, o) in enumerate(loc) if c == k})
                     for k in sorted({c for c, _ in loc} - {"stem"})}
        # each request's arm once its petal is snipped into two halves
        # ("stem", or (petal, +1 forward / -1 backward)) and its offset on it
        self._arm = [_star_arm(space, self.arcs, i, c, o) for i, (c, o) in enumerate(loc)]
        # the star of every petal snipped at its antipode: the stem arm, then
        # each petal's forward and backward half, with the requests on them
        self.idx = star_index([[(off, i) for i, (a, off) in enumerate(self._arm) if a == arm]
                               for arm in ["stem", *((k, d) for k in self.arcs for d in (1, -1))]])
        # for each set of kept petals, the requests a scan reads: those off them
        self._scanned = {frozenset(kept): frozenset(i for i in self.ids if loc[i][0] not in kept)
                         for kept in _subsets(list(self.arcs))}
        # the clean-ups' leg table, kept for the oracle's lifetime: every
        # clean-up prices and walks each leg once
        self._legs: dict = {}

    def _cover(self, qid, rest, end) -> list[int]:
        loc = self.predictions
        # in id order: the cover's split ties go to the first one it tries
        return flower_cover_grouped(self.space, loc[qid], [(loc[i], i) for i in sorted(rest)], end, self._legs)[1]

    def _batch(self, released: frozenset) -> list[tuple]:
        idx, node_of = self.idx, self.idx.node_of
        unrel = sorted(self.ids - released)
        # every set of looped petals, in binary counting order
        dones = list(_subsets(sorted({self.predictions[i][0] for i in released} - {"stem"})))
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
        # each petal's arc cut to the released ids; a released final leaves its own
        rel_arcs = {k: arc.restrict(released) for k, arc in self.arcs.items()}
        out = []
        for qf in [None] if self.variant == "closed" else [None] + sorted(self.ids):
            qfc = None if qf is None else self.predictions[qf][0]
            arcs = rel_arcs if qf not in released or qfc == "stem" else {
                **rel_arcs, qfc: self.arcs[qfc].restrict(released - {qf})}
            for q in unrel:
                if q == qf and len(unrel) > 1:
                    continue
                qc = self.predictions[q][0]
                # the walks along petal ``along``, each once: q's crescents to q either
                # way, or around it if qf shares it; looped first, toward q's half (its
                # full moon).  With q on the stem, the final's petal with q at its base,
                # at depth 0: its line extents, out and back to q
                walks, full, along = [], None, qc
                if qc != "stem":
                    arc = arcs[qc]
                    (left, _), (right, _), (full, _) = _crescents(arc, [q])
                    walks = [left, right, *([arc.cw, arc.ccw] if qfc == qc else [])]
                elif qfc not in (None, "stem"):
                    along, arc = qfc, arcs[qfc]
                    arc = arc._replace(arm={**arc.arm, q: 1}, depth={**arc.depth, q: 0.0})
                    walks = [head for head, _ in _line_extents(arc, [q])]
                walks = [w for j, w in enumerate(walks) if w not in walks[:j]]
                for done in dones:
                    prefix = [i for k in done for i in (full if k == qc else arcs[k].cw)]
                    looped = frozenset(done)
                    # (kept petals, scan ends at q, walk along petal ``along``)
                    options = [(looped, qc not in looped, [])]
                    if along not in looped:
                        options += [(looped | {along}, False, walk) for walk in walks]
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


def _star_arm(flower: Flower, arcs: dict[int, Arc], i: int, comp, off) -> tuple:
    """Arm and offset on the snipped star of request ``i``, at canonical point (comp, off): a petal
    depth read from its arc, snapped to the antipode within ``SNAP``.  A stem offset within ``SNAP``
    of the origin, only the tip of a stem that short, is the origin, as ``distance`` reads it."""
    if comp == "stem":
        return "stem", (0.0 if off <= SNAP else off)
    arc, half = arcs[comp], flower.petals[comp] / 2
    return (comp, arc.arm[i]), (half if arc.depth[i] >= half - SNAP else arc.depth[i])


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
