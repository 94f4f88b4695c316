"""Domination oracles: monotonically growing permutation sets queried at
release events.

Every batch construction follows the same template: pick the first
unreleased request q of a hypothetical order, serve a structured set of
released requests on an optimal route to q, then clean up the remainder
with an exact classical solver.  The general oracle enumerates released
subsets directly (single-exponential); the tree, ring and flower oracles
enumerate leaves, crescents/loops, and petal states instead (FPT or
polynomial).
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
        batch = self._dedup(self._batch(released))
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
        raise NotImplementedError

    def _cleanup(self, qid: int, rest: frozenset, end) -> list[int]:
        """Serving order of ``rest`` on an optimal walk from request ``qid``
        to ``end``: CLOSED (the origin), FREE, or a request id."""
        key = (qid, rest, end)
        hit = self._cleanup_memo.get(key)
        if hit is None:
            hit = self._cleanup_memo[key] = self._cover(qid, rest, end)
        return hit

    def _cover(self, qid: int, rest: frozenset, end) -> list[int]:
        """The uncached computation behind :meth:`_cleanup`."""
        raise NotImplementedError

    @staticmethod
    def _dedup(perms: Iterable[tuple]) -> list[tuple]:
        seen = set()
        out = []
        for p in perms:
            if p not in seen:
                seen.add(p)
                out.append(p)
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

    def _batch(self, released: frozenset) -> list[tuple]:
        full = (1 << self.n) - 1
        unrel = [u for u in range(self.n) if u not in released]
        if not unrel:
            return [tuple(self._tail.walk(0, full)[1])]
        rel = sorted(released)
        out = []
        for u in unrel:
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


def closed_tree_batch(idx: TreeIndex, released: frozenset, ids: set,
                      cleanup) -> list[tuple]:
    """Scan-to-pivot dominators on a tree, cleaning up back to the origin.

    ``cleanup(q_id, rest_ids, end)`` must return the serving order of the
    remainder from q to ``end``: CLOSED (the origin) or a request id.
    """
    rel = released & ids
    unrel = ids - released
    if not unrel:
        _, order = idx.path_cover(0, {idx.node_of[i] for i in ids}, CLOSED)
        return [tuple(_emit(idx, order, ids))]
    rel_leaves = idx.maximal_nodes({idx.node_of[i] for i in rel}, 0)
    out = []
    for qnode, qid in _pivots(idx, unrel, 0):
        for chosen in _subsets(rel_leaves):
            _, order = idx.path_cover(0, set(chosen) | {qnode}, qnode)
            prefix = _emit(idx, order, rel)
            rest = ids - set(prefix) - {qid}
            out.append(tuple(prefix + [qid] + cleanup(qid, frozenset(rest), CLOSED)))
    return out


def open_tree_batch(idx: TreeIndex, released: frozenset, ids: set,
                    cleanup) -> list[tuple]:
    """Rerooted scan dominators for the open variant.

    ``cleanup`` is as for :func:`closed_tree_batch`; here it ends at the
    designated final request, which is pinned last.
    """
    rel = released & ids
    unrel = ids - released
    if not unrel:
        _, order = idx.path_cover(0, {idx.node_of[i] for i in ids}, FREE)
        return [tuple(_emit(idx, order, ids))]
    out = []
    rel_nodes = {idx.node_of[i] for i in rel}
    for qf in sorted(ids):
        fnode = idx.node_of[qf]
        rel_leaves = idx.maximal_nodes(rel_nodes, fnode)
        for qnode, qid in _pivots(idx, unrel - {qf}, fnode):
            for chosen in _subsets(rel_leaves):
                _, order = idx.path_cover(0, set(chosen) | {qnode}, qnode)
                prefix = _emit(idx, order, rel - {qf})
                rest = ids - set(prefix) - {qid} - {qf}
                tail = cleanup(qid, frozenset(rest), qf)
                out.append(tuple(prefix + [qid] + tail + [qf]))
        if unrel == {qf}:
            # the final request is the only unreleased one
            for chosen in _subsets(rel_leaves):
                _, order = idx.path_cover(0, set(chosen) | {fnode}, fnode)
                prefix = _emit(idx, order, rel)
                rest = ids - set(prefix) - {qf}
                tail = cleanup(qf, frozenset(rest), qf)
                out.append(tuple(prefix + tail + [qf]))
    return out


class TreeOracle(DominationOracle):
    def __init__(self, space, predictions, variant):
        super().__init__(space, predictions, variant)
        self.idx = tree_index_for(space, {i: p for i, p in enumerate(self.predictions)})

    def _cover(self, qid: int, rest: frozenset, end) -> list[int]:
        if not rest:
            return []
        node_of = self.idx.node_of
        end_node = 0 if end == CLOSED else node_of[end]
        _, order = self.idx.path_cover(node_of[qid], {node_of[i] for i in rest}, end_node)
        return _emit(self.idx, order, rest)

    def _batch(self, released: frozenset) -> list[tuple]:
        ids = set(range(self.n))
        if self.variant == "closed":
            return closed_tree_batch(self.idx, released, ids, self._cleanup)
        return open_tree_batch(self.idx, released, ids, self._cleanup)


# ---------------------------------------------------------------------------
# Ring oracle
# ---------------------------------------------------------------------------

class RingOracle(DominationOracle):
    def __init__(self, space: Ring, predictions, variant):
        super().__init__(space, predictions, variant)
        self.C = space.circumference
        self.pos = [space.norm(p) for p in self.predictions]
        # the ring split at the antipode, as a line: the clockwise half
        # positive, the counter-clockwise half negative
        half = self.C / 2.0
        self.idx = tree_index_for(
            Line(), {i: p if p <= half else p - self.C for i, p in enumerate(self.pos)})

    def _cover(self, qid: int, rest: frozenset, end) -> list[int]:
        # in the true ring metric, not on the split index
        items = [(self.pos[i], i) for i in sorted(rest)]
        end_pos = 0.0 if end == CLOSED else (FREE if end == FREE else self.pos[end])
        return ring_cover(self.C, self.pos[qid], items, end_pos)[1]

    def _crescents(self, released: frozenset, ids: set) -> list[tuple]:
        rel = sorted(released & ids)
        unrel = sorted(ids - released)
        out = []
        for q in unrel:
            pq = self.pos[q]
            left = [i for i in rel if self.pos[i] <= pq + TIE]
            right = [i for i in rel if self.pos[i] >= pq - TIE]
            lc = sorted(left, key=lambda i: (self.pos[i], i))
            rc = sorted(right, key=lambda i: (-self.pos[i], i))
            fm_dir = 1 if pq <= self.C / 2 + TIE else -1
            fm = sorted(rel, key=lambda i: (fm_dir * self.pos[i], i))
            for prefix in (lc, rc, fm):
                rest = frozenset(ids - set(prefix) - {q})
                tail = self._cleanup(q, rest, CLOSED if self.variant == "closed" else FREE)
                out.append(tuple(prefix + [q] + tail))
        return out

    def _loops(self, released: frozenset, ids: set) -> list[tuple]:
        rel = sorted(released & ids)
        unrel = sorted(ids - released)
        out = []
        for q in unrel:
            for d in (1, -1):
                prefix = sorted(rel, key=lambda i: (d * self.pos[i], i))
                rest = frozenset(ids - set(prefix) - {q})
                tail = self._cleanup(q, rest, FREE)
                out.append(tuple(prefix + [q] + tail))
        return out

    def _line_extents(self, released: frozenset, ids: set) -> list[tuple]:
        """Open-variant dominators for orders that never cross the antipode:
        guess the farthest visited request on each arm, sweep both arms,
        finish at q, then clean up freely.  One dominator per
        (q, left extent, right extent) choice."""
        rel = set(released & ids)
        unrel = sorted(ids - released)
        half = self.C / 2
        out = []

        def depth(i, side):
            return self.pos[i] if side == 1 else self.C - self.pos[i]

        def on_side(i, side):
            return (self.pos[i] <= half + TIE) if side == 1 else (self.pos[i] > half + TIE)

        for q in unrel:
            qside = 1 if self.pos[q] <= half + TIE else -1
            qd = depth(q, qside)
            same = sorted((i for i in rel if on_side(i, qside)), key=lambda i: (depth(i, qside), i))
            other = sorted((i for i in rel if not on_side(i, qside)), key=lambda i: (depth(i, -qside), i))
            same_extents = [qd] + [depth(i, qside) for i in same if depth(i, qside) > qd + TIE]
            other_extents = [None] + [depth(i, -qside) for i in other]
            for es in same_extents:
                s_part = [i for i in same if depth(i, qside) <= es + TIE]
                for eo in other_extents:
                    o_part = [] if eo is None else [i for i in other if depth(i, -qside) <= eo + TIE]
                    rest = frozenset(ids - set(s_part) - set(o_part) - {q})
                    tail = self._cleanup(q, rest, FREE)
                    out.append(tuple(o_part + s_part + [q] + tail))
                    if o_part:
                        out.append(tuple(s_part + o_part + [q] + tail))
        return out

    def _out_and_back(self, released: frozenset, ids: set) -> list[tuple]:
        """Open-variant dominators that turn around at q1, loop out the other
        arc through the antipode, descend to q2, and finish at q."""
        rel = set(released & ids)
        unrel = sorted(ids - released)
        half = self.C / 2
        out = []
        for side in (1, -1):
            # "other" arc where q1/q2 live; depth = distance from origin
            def depth(i):
                return self.pos[i] if side == 1 else self.C - self.pos[i]

            def on_other(i):
                return (self.pos[i] <= half + TIE) if side == 1 else (self.pos[i] > half + TIE)

            other_rel = sorted((i for i in rel if on_other(i)), key=depth)
            outbound = sorted(
                (i for i in rel if not on_other(i)),
                key=lambda i: (self.C - self.pos[i]) if side == 1 else self.pos[i],
            )
            for q in unrel:
                q1_opts = [None] + other_rel
                q2_opts = [i for i in other_rel] + ([q] if on_other(q) else [])
                for q1 in q1_opts:
                    d1 = depth(q1) if q1 is not None else 0.0
                    for q2 in q2_opts:
                        if depth(q2) <= d1 + TIE:
                            continue
                        a_part = sorted(
                            (i for i in other_rel if depth(i) <= d1 + TIE),
                            key=lambda i: (-depth(i), i),
                        )
                        c_part = sorted(
                            (i for i in other_rel if depth(i) >= depth(q2) - TIE),
                            key=lambda i: (-depth(i), i),
                        )
                        prefix = a_part + outbound + c_part
                        if q in prefix:
                            continue
                        prefix = prefix + [q]
                        rest = frozenset(ids - set(prefix))
                        tail = self._cleanup(q, rest, FREE)
                        out.append(tuple(prefix + tail))
        return out

    def _batch(self, released: frozenset) -> list[tuple]:
        ids = set(range(self.n))
        unrel = ids - released
        if not unrel:
            items = [(self.pos[i], i) for i in sorted(ids)]
            end = 0.0 if self.variant == "closed" else FREE
            _, order = ring_cover(self.C, 0.0, items, end)
            return [tuple(order)]
        if self.variant == "closed":
            out = closed_tree_batch(self.idx, released, ids, self._cleanup)
            out += self._crescents(released, ids)
            return out
        out = open_tree_batch(self.idx, released, ids, self._cleanup)
        # orders that never cross the antipode need not be sensible for
        # their own final request, so cover all extent choices directly
        out += self._line_extents(released, ids)
        out += self._loops(released, ids)
        out += self._crescents(released, ids)
        out += self._out_and_back(released, ids)
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
        self.petal_ids: dict[int, list[int]] = {}
        self.tree_ids: list[int] = []
        for i, c in enumerate(self.comp):
            if c == "stem":
                self.tree_ids.append(i)
            else:
                self.petal_ids.setdefault(c, []).append(i)
        # the tree left by snipping every petal outside ``kept``, for each
        # set of kept petals that host a prediction
        self._snipped = {
            frozenset(kept): self._snip_index(frozenset(kept))
            for kept in _subsets(sorted(self.petal_ids))
        }

    def _snip_index(self, kept: frozenset) -> TreeIndex:
        ids = [i for i in range(self.n) if self.comp[i] == "stem" or self.comp[i] not in kept]
        tree, _, mapped = snip_flower(self.flower, kept, [self.loc[i] for i in ids])
        return tree_index_for(tree, dict(zip(ids, mapped)))

    def _cover(self, qid: int, rest: frozenset, end) -> list[int]:
        items = [(self.loc[i], i) for i in sorted(rest)]
        end_pt = self.flower.origin() if end == CLOSED else (FREE if end == FREE else self.loc[end])
        return flower_cover(self.flower, self.loc[qid], items, end_pt)[1]

    def _loop_order(self, petal: int, pool, direction: int) -> list[int]:
        return sorted(
            (i for i in self.petal_ids.get(petal, []) if i in pool),
            key=lambda i: (direction * self.off[i], i),
        )

    def _petal_dir_for(self, petal: int, qid: int) -> int:
        # loop direction matching the full-moon convention when q sits on it
        if self.comp[qid] == petal:
            return 1 if self.off[qid] <= self.flower.petals[petal] / 2 + TIE else -1
        return 1

    def _batch(self, released: frozenset) -> list[tuple]:
        ids = set(range(self.n))
        unrel = sorted(ids - released)
        if not unrel:
            items = [(self.loc[i], i) for i in sorted(ids)]
            end = self.flower.origin() if self.variant == "closed" else FREE
            _, order = flower_cover(self.flower, self.flower.origin(), items, end)
            return [tuple(order)]
        if self.variant == "closed":
            return self._structured(released, ids, finals=[None], none_end=CLOSED)
        finals: list[int | None] = [None] + sorted(ids)
        return self._structured(released, ids, finals=finals, none_end=FREE)

    def _structured(self, released: frozenset, ids: set, finals, none_end: str) -> list[tuple]:
        rel = released & ids
        out = []
        seen: set[tuple] = set()
        petals_with_rel = sorted(k for k, members in self.petal_ids.items() if any(i in rel for i in members))
        for qf in finals:
            pin = [] if qf is None else [qf]
            end_key = none_end if qf is None else qf
            for q in sorted(ids - released):
                if qf is not None and q == qf and len(ids - released) > 1:
                    continue
                qc = self.comp[q]
                same_final_petal = (
                    qf is not None and qc != "stem" and self.comp[qf] == qc
                )
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
                        self._variants(
                            out, seen, ids, rel, q, qf, approach, kept, direction,
                            pin, end_key,
                        )
        return out

    def _variants(self, out, seen, ids, rel, q, qf, approach, kept, direction,
                  pin, end_key) -> None:
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
                idx.node_of[i]
                for i in idx.node_of
                if isinstance(i, int) and i not in rel and (i != qf or i == q)
            }
            if idx.node_of[q] not in idx.maximal_nodes(unrel_nodes, root_node):
                return
        leaves = idx.maximal_nodes(tree_rel_nodes, root_node)
        loop_pool = rel if qf is None else rel - {qf}
        loop_prefix: list[int] = []
        for k in done:
            loop_prefix += self._loop_order(k, loop_pool, self._petal_dir_for(k, q))
        for chosen in _subsets(leaves):
            prefix = list(loop_prefix)
            if approach == "tree":
                qnode = idx.node_of[q]
                _, order = idx.path_cover(0, set(chosen) | {qnode}, qnode)
                prefix += [i for i in _emit(idx, order, rel) if i != qf]
            else:
                if chosen:
                    _, order = idx.path_cover(0, set(chosen), CLOSED)
                    prefix += [i for i in _emit(idx, order, rel) if i != qf]
                if approach == "arc":
                    qo = self.off[q]
                    arc_pool = [
                        i
                        for i in self.petal_ids.get(qc, [])
                        if i in rel and i != qf
                        and (
                            (direction == 1 and self.off[i] <= qo + TIE)
                            or (direction == -1 and self.off[i] >= qo - TIE)
                        )
                    ]
                    prefix += sorted(arc_pool, key=lambda i: (direction * self.off[i], i))
                elif approach == "late_loop":
                    pool = [i for i in self.petal_ids.get(qc, []) if i in rel and i != qf]
                    prefix += sorted(pool, key=lambda i: (direction * self.off[i], i))
            dedup_prefix = []
            used = set()
            for i in prefix:
                if i not in used:
                    used.add(i)
                    dedup_prefix.append(i)
            key = (tuple(dedup_prefix), q, qf)
            if key in seen:
                continue
            seen.add(key)
            rest = frozenset(ids - used - {q} - set(pin))
            tail = self._cleanup(q, rest, end_key)
            if pin and pin[0] == q:
                out.append(tuple(dedup_prefix + tail + pin))
            else:
                out.append(tuple(dedup_prefix + [q] + tail + pin))


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
