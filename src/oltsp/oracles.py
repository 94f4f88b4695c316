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
from typing import Iterable

from .core import RouteStats, distance_matrix
from .offline import (
    CLOSED,
    FREE,
    TreeIndex,
    _emit,
    exact_path,
    flower_cover,
    ring_cover,
    tree_index_for,
)
from .spaces import Flower, Line, Ring, Space, Tree, snip_flower
from .tolerance import FEAS, TIE


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
        to ``end``: CLOSED (the origin), FREE, or a request id."""
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
        request's node with that request pinned last (open)."""
        unrel = self.ids - released
        rel_nodes = {idx.node_of[i] for i in released}
        out = []
        for qf in [None] if self.variant == "closed" else sorted(self.ids):
            root = 0 if qf is None else idx.node_of[qf]
            pivots = _pivots(idx, unrel - {qf}, root)
            if unrel == {qf}:
                pivots.append((root, qf))  # the final request is the only unreleased one
            leaves = idx.maximal_nodes(rel_nodes, root)
            for qnode, q in pivots:
                for chosen in _subsets(leaves):
                    _, order = idx.path_cover(0, set(chosen) | {qnode}, qnode)
                    out.append(self._dominator(_emit(idx, order, released - {qf}), q, qf))
        return out


# ---------------------------------------------------------------------------
# General metric oracle
# ---------------------------------------------------------------------------

class GeneralOracle(DominationOracle):
    """One dominator per (released subset R', unreleased pivot u).

    Heads and tails are optimal paths read from Held-Karp tables built once
    over the prediction matrix: one tail table over every request, ending
    at the origin (closed) or anywhere (open), and one head table per pivot
    u over the other requests, ending at u.
    """

    def __init__(self, space, predictions, variant):
        super().__init__(space, predictions, variant)
        rows = tuple(range(1, self.n + 1))
        self._tail = exact_path(self.D, rows, 0 if variant == "closed" else FREE)
        self._heads = [exact_path(self.D, rows[:u] + rows[u + 1:], u + 1) for u in range(self.n)]

    def _cover(self, qid, rest, end) -> list[int]:
        # the tail table's walks end at this variant's end
        return self._tail.walk(0 if qid is None else qid + 1, sum(1 << i for i in rest))[1]

    def _batch(self, released: frozenset) -> list[tuple]:
        full = (1 << self.n) - 1
        rel = sorted(released)
        out = []
        for u in sorted(self.ids - released):
            others = [i for i in range(self.n) if i != u]
            for sub in _subsets(rel):
                head_mask = sum(1 << (i - (i > u)) for i in sub)  # u's own bit is left out
                head = [others[j] for j in self._heads[u].walk(0, head_mask)[1]]
                rest = full ^ (1 << u) ^ sum(1 << i for i in sub)
                tail = self._tail.walk(u + 1, rest)[1]
                out.append(tuple(head + [u] + tail))
        return out


# ---------------------------------------------------------------------------
# Tree-style batches over a TreeIndex (shared by tree, ring and flower)
# ---------------------------------------------------------------------------

def _subsets(items: list) -> Iterable[tuple]:
    for mask in range(1 << len(items)):
        yield tuple(items[j] for j in range(len(items)) if mask >> j & 1)


def _pivots(idx: TreeIndex, ids: Iterable[int], root: int) -> list[tuple[int, int]]:
    """(node, smallest id) for each maximal node hosting one of ``ids``."""
    by_node: dict[int, int] = {}
    for i in sorted(ids):
        v = idx.node_of[i]
        by_node.setdefault(v, i)
    return [(v, by_node[v]) for v in idx.maximal_nodes(by_node, root)]


class TreeOracle(DominationOracle):
    def __init__(self, space, predictions, variant):
        super().__init__(space, predictions, variant)
        self.idx = tree_index_for(space, {i: p for i, p in enumerate(self.predictions)})

    def _cover(self, qid, rest, end) -> list[int]:
        if not rest:
            return []
        node_of = self.idx.node_of
        end_node = 0 if end == CLOSED else (FREE if end == FREE else node_of[end])
        start = 0 if qid is None else node_of[qid]
        _, order = self.idx.path_cover(start, {node_of[i] for i in rest}, end_node)
        return _emit(self.idx, order, rest)

    def _batch(self, released: frozenset) -> list[tuple]:
        return self._tree_batch(self.idx, released)


# ---------------------------------------------------------------------------
# Ring oracle
# ---------------------------------------------------------------------------

class RingOracle(DominationOracle):
    def __init__(self, space: Ring, predictions, variant):
        super().__init__(space, predictions, variant)
        C = self.C = space.circumference
        pos = self.pos = [space.norm(p) for p in self.predictions]
        # the ring split at the antipode, as a line: the clockwise half
        # positive, the counter-clockwise half negative
        self.idx = tree_index_for(Line(), {i: p if p <= C / 2.0 else p - C for i, p in enumerate(pos)})
        # each request's arm (+1 clockwise, -1 counter-clockwise) and its
        # distance from the origin along that arm
        self.arm = [1 if p <= C / 2 + TIE else -1 for p in pos]
        self.depth = [p if a == 1 else C - p for p, a in zip(pos, self.arm)]
        # request ids in four scan orders, ties to the smaller id
        ids = range(self.n)
        self.cw = sorted(ids, key=lambda i: (pos[i], i))
        self.ccw = sorted(ids, key=lambda i: (-pos[i], i))
        self.near = sorted(ids, key=lambda i: (self.depth[i], i))
        self.far = sorted(ids, key=lambda i: (-self.depth[i], i))

    def _cover(self, qid, rest, end) -> list[int]:
        # in the true ring metric, not on the split index
        items = [(self.pos[i], i) for i in sorted(rest)]
        start = 0.0 if qid is None else self.pos[qid]
        end_pos = 0.0 if end == CLOSED else (FREE if end == FREE else self.pos[end])
        return ring_cover(self.C, start, items, end_pos)[1]

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
    def __init__(self, space: Flower, predictions, variant):
        super().__init__(space, predictions, variant)
        self.flower = space
        self.loc = [space.canon(p) for p in self.predictions]
        self.comp = [p[0] for p in self.loc]
        self.off = [p[1] for p in self.loc]
        petal_ids: dict[int, list[int]] = {}
        for i, c in enumerate(self.comp):
            if c != "stem":
                petal_ids.setdefault(c, []).append(i)
        # each petal's ids in loop order, by direction (+1 forward, -1
        # backward), ties to the smaller id
        self._petal_order = {
            k: {d: sorted(ids, key=lambda i: (d * self.off[i], i)) for d in (1, -1)}
            for k, ids in petal_ids.items()
        }
        # the tree left by snipping every petal outside ``kept``, for each
        # set of kept petals that host a prediction
        self._snipped = {
            frozenset(kept): self._snip_index(frozenset(kept))
            for kept in _subsets(sorted(petal_ids))
        }

    def _snip_index(self, kept: frozenset) -> TreeIndex:
        ids = [i for i in range(self.n) if self.comp[i] == "stem" or self.comp[i] not in kept]
        tree, _, mapped = snip_flower(self.flower, kept, [self.loc[i] for i in ids])
        return tree_index_for(tree, dict(zip(ids, mapped)))

    def _cover(self, qid, rest, end) -> list[int]:
        items = [(self.loc[i], i) for i in sorted(rest)]
        start = self.origin if qid is None else self.loc[qid]
        end_pt = self.origin if end == CLOSED else (FREE if end == FREE else self.loc[end])
        return flower_cover(self.flower, start, items, end_pt)[1]

    def _loop_order(self, petal: int, pool, direction: int) -> list[int]:
        return [i for i in self._petal_order[petal][direction] if i in pool]

    def _petal_dir_for(self, petal: int, qid: int) -> int:
        # loop direction matching the full-moon convention when q sits on it
        if self.comp[qid] == petal:
            return 1 if self.off[qid] <= self.flower.petals[petal] / 2 + TIE else -1
        return 1

    def _batch(self, released: frozenset) -> list[tuple]:
        unrel = sorted(self.ids - released)
        petals_with_rel = sorted(k for k, order in self._petal_order.items()
                                 if any(i in released for i in order[1]))
        out = []
        for qf in [None] if self.variant == "closed" else [None] + sorted(self.ids):
            for q in unrel:
                if qf is not None and q == qf and len(unrel) > 1:
                    continue
                qc = self.comp[q]
                same_final_petal = qf is not None and qc != "stem" and self.comp[qf] == qc
                for done in _subsets(petals_with_rel):
                    done = set(done)
                    # (approach kind, kept petal set, direction)
                    options: list[tuple]
                    if qc == "stem":
                        options = [("tree", frozenset(done), None)]
                    elif qc in done:
                        options = [("after_loop", frozenset(done), None)]
                    else:
                        options = [("tree", frozenset(done), None)]
                        kept_q = frozenset(done | {qc})
                        options += [("arc", kept_q, 1), ("arc", kept_q, -1)]
                        if same_final_petal:
                            options += [("late_loop", kept_q, 1), ("late_loop", kept_q, -1)]
                    for approach, kept, direction in options:
                        out += self._variants(released, q, qf, approach, kept, direction)
        return out

    def _variants(self, rel, q, qf, approach, kept, direction) -> list[tuple]:
        qc = self.comp[q]
        done = sorted(k for k in kept if k != qc or approach == "after_loop")
        idx = self._snipped[kept]
        tree_rel_nodes = {idx.node_of[i] for i in rel if i in idx.node_of}
        root_node = 0
        if qf is not None and qf in idx.node_of:
            root_node = idx.node_of[qf]
        if approach == "tree":
            # only the deepest unreleased request per branch can be the
            # first unreleased of a sensible order within the tree part
            unrel_nodes = {
                idx.node_of[i] for i in idx.node_of if i not in rel and (i != qf or i == q)
            }
            if idx.node_of[q] not in idx.maximal_nodes(unrel_nodes, root_node):
                return []
        leaves = idx.maximal_nodes(tree_rel_nodes, root_node)
        loop_pool = rel - {qf}
        loop_prefix: list[int] = []
        for k in done:
            loop_prefix += self._loop_order(k, loop_pool, self._petal_dir_for(k, q))
        petal_part = []  # the walk along q's own petal, after the tree part
        if approach == "arc":
            qo = self.off[q]
            petal_part = [
                i for i in self._loop_order(qc, loop_pool, direction)
                if (direction == 1 and self.off[i] <= qo + TIE)
                or (direction == -1 and self.off[i] >= qo - TIE)
            ]
        elif approach == "late_loop":
            petal_part = self._loop_order(qc, loop_pool, direction)
        out = []
        for chosen in _subsets(leaves):
            tree_part: list[int] = []
            if approach == "tree":
                qnode = idx.node_of[q]
                _, order = idx.path_cover(0, set(chosen) | {qnode}, qnode)
                tree_part = _emit(idx, order, loop_pool)
            elif chosen:
                _, order = idx.path_cover(0, set(chosen), CLOSED)
                tree_part = _emit(idx, order, loop_pool)
            prefix = list(dict.fromkeys(loop_prefix + tree_part + petal_part))
            out.append(self._dominator(prefix, q, qf))
        return out


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
