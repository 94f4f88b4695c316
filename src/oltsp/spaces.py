"""Continuous metric spaces a unit-speed server can travel in.

Six families: the real line, the Euclidean plane, weighted rooted trees,
rings, flowers (rings plus a stem glued at one point), and general
finite metrics given by a distance matrix.  Each space knows its origin,
computes exact shortest-path distances between points, and can move a
point a given distance along a canonical geodesic toward a target.

Point encodings are space specific:
  Line      float coordinate
  Euclid2D  (x, y)
  Ring      arc position in [0, circumference)
  Tree      (edge_index, offset_from_parent); the root is (-1, 0.0)
  Flower    (component, offset) with component "stem" or a petal index
  General   site index, or (a, b, t) for the point t along the a->b geodesic
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .tolerance import FEAS, SNAP, TIE

TREE_ROOT = (-1, 0.0)


class SpaceError(ValueError):
    """Point outside the space, malformed descriptor, or kind mismatch."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FEAS


# ---------------------------------------------------------------------------
# Line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    kind = "line"

    def origin(self) -> float:
        return 0.0

    def contains(self, p) -> bool:
        return isinstance(p, (int, float)) and math.isfinite(p)

    def distance(self, a: float, b: float) -> float:
        return abs(a - b)

    def move_along(self, a: float, b: float, t: float):
        _check_traveled(self, a, b, t)
        if b >= a:
            return a + t
        return a - t

    def validate(self) -> list[str]:
        return []

    def scaled(self, c: float):
        return Line(), lambda p: p * c

    def to_json(self) -> dict:
        return {"kind": "line"}


# ---------------------------------------------------------------------------
# Euclidean plane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Euclid2D:
    kind = "euclid2d"

    def origin(self):
        return (0.0, 0.0)

    def contains(self, p) -> bool:
        return (
            isinstance(p, tuple)
            and len(p) == 2
            and all(isinstance(v, (int, float)) and math.isfinite(v) for v in p)
        )

    def distance(self, a, b) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def move_along(self, a, b, t: float):
        d = _check_traveled(self, a, b, t)
        if d == 0.0:
            return a
        f = t / d
        return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))

    def validate(self) -> list[str]:
        return []

    def scaled(self, c: float):
        return Euclid2D(), lambda p: (p[0] * c, p[1] * c)

    def to_json(self) -> dict:
        return {"kind": "euclid2d"}


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ring:
    circumference: float
    kind = "ring"

    def origin(self) -> float:
        return 0.0

    def norm(self, p: float) -> float:
        return p % self.circumference

    def contains(self, p) -> bool:
        return isinstance(p, (int, float)) and math.isfinite(p)

    def distance(self, a: float, b: float) -> float:
        arc = abs(self.norm(a) - self.norm(b))
        return min(arc, self.circumference - arc)

    def cw_arc(self, a: float, b: float) -> float:
        """Arc length going clockwise (increasing coordinate) from a to b."""
        return (self.norm(b) - self.norm(a)) % self.circumference

    def move_along(self, a: float, b: float, t: float):
        _check_traveled(self, a, b, t)
        cw = self.cw_arc(a, b)
        # clockwise wins ties, per the canonical-geodesic convention
        if cw <= self.circumference - cw:
            return self.norm(a + t)
        return self.norm(a - t)

    def validate(self) -> list[str]:
        if not (0 < self.circumference < math.inf):
            return ["circumference must be positive and finite"]
        return []

    def scaled(self, c: float):
        return Ring(self.circumference * c), lambda p: p * c

    def to_json(self) -> dict:
        return {"kind": "ring", "circumference": self.circumference}


# ---------------------------------------------------------------------------
# Tree
# ---------------------------------------------------------------------------

@dataclass
class Tree:
    """Weighted rooted tree; node 0 is the root/origin.

    ``edges[i] = (parent, child, length)``.  Lengths are positive; edges
    incident to a leaf may be ``math.inf`` (trimmed before any TSP use).
    A point is ``(edge_index, offset)`` with the offset measured from the
    parent endpoint; the root is ``(-1, 0.0)``.
    """

    edges: list[tuple[int, int, float]]
    # caches filled from ``edges``; equality and repr ignore them
    _parent: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)
    _depth: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._parent = {}  # child -> (parent, edge_idx, length)
        self._children = {0: []}
        for i, (u, v, ln) in enumerate(self.edges):
            self._parent[v] = (u, i, ln)
            self._children.setdefault(u, []).append(v)
            self._children.setdefault(v, [])
        self._depth = {0: 0.0}

    @property
    def n_nodes(self) -> int:
        return len(self.edges) + 1

    def origin(self):
        return TREE_ROOT

    def node_point(self, v: int):
        if v == 0:
            return TREE_ROOT
        _, ei, ln = self._parent[v]
        return (ei, ln)

    def depth(self, v: int) -> float:
        if v not in self._depth:
            u, _, ln = self._parent[v]
            self._depth[v] = self.depth(u) + ln
        return self._depth[v]

    def canon(self, p):
        """Snap offsets at 0/length onto node representations."""
        ei, off = p
        if ei == -1:
            return TREE_ROOT
        u, v, ln = self.edges[ei]
        if off <= SNAP:
            return self.node_point(u)
        if math.isfinite(ln) and off >= ln - SNAP:
            return (ei, ln)
        return (ei, off)

    def contains(self, p) -> bool:
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        ei, off = p
        if not isinstance(ei, int):
            return False
        if ei == -1:
            return off == 0.0
        if not (0 <= ei < len(self.edges)):
            return False
        return -SNAP <= off <= self.edges[ei][2] + SNAP

    def _anchors(self, p):
        """(node, cost) pairs through which geodesics from p must pass."""
        ei, off = self.canon(p)
        if ei == -1:
            return [(0, 0.0)]
        u, v, ln = self.edges[ei]
        if off >= ln:  # exactly at child node (finite edge)
            return [(v, 0.0)]
        out = [(u, off)]
        if math.isfinite(ln):
            out.append((v, ln - off))
        return out

    def node_dist(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        da, db = self.depth(a), self.depth(b)
        total_a = total_b = 0.0
        while a != b:
            if da >= db:
                u, _, ln = self._parent[a]
                total_a += ln
                a, da = u, da - ln
            else:
                u, _, ln = self._parent[b]
                total_b += ln
                b, db = u, db - ln
        return total_a + total_b

    def node_path(self, a: int, b: int) -> list[int]:
        up_a, up_b = [a], [b]
        da, db = self.depth(a), self.depth(b)
        while up_a[-1] != up_b[-1]:
            if da >= db:
                u, _, ln = self._parent[up_a[-1]]
                up_a.append(u)
                da -= ln
            else:
                u, _, ln = self._parent[up_b[-1]]
                up_b.append(u)
                db -= ln
        return up_a + up_b[-2::-1]

    def distance(self, a, b) -> float:
        a, b = self.canon(a), self.canon(b)
        if a == b:
            return 0.0
        if a[0] == b[0] and a[0] != -1:
            return abs(a[1] - b[1])
        best = math.inf
        for na, ca in self._anchors(a):
            for nb, cb in self._anchors(b):
                best = min(best, ca + self.node_dist(na, nb) + cb)
        return best

    def move_along(self, a, b, t: float):
        _check_traveled(self, a, b, t)
        a, b = self.canon(a), self.canon(b)
        if a == b:
            return a
        if a[0] == b[0] and a[0] != -1:
            ei = a[0]
            step = t if b[1] >= a[1] else -t
            return self.canon((ei, a[1] + step))
        # pick the anchor pair realizing the geodesic
        best = None
        for na, ca in self._anchors(a):
            for nb, cb in self._anchors(b):
                d = ca + self.node_dist(na, nb) + cb
                if best is None or d < best[0] - TIE:
                    best = (d, na, ca, nb, cb)
        _, na, ca, nb, cb = best
        if t <= ca:
            # still on a's edge, heading toward anchor na
            ei, off = a
            u, v, ln = self.edges[ei]
            step = -t if na == u else t
            return self.canon((ei, off + step))
        t -= ca
        path = self.node_path(na, nb)
        for x, y in zip(path, path[1:]):
            if y in self._parent and self._parent[y][0] == x:
                ei, ln = self._parent[y][1], self._parent[y][2]
                downward = True
            else:
                ei, ln = self._parent[x][1], self._parent[x][2]
                downward = False
            if t <= ln + SNAP:
                off = t if downward else ln - t
                return self.canon((ei, min(max(off, 0.0), ln)))
            t -= ln
        # remainder lies on b's edge beyond anchor nb
        ei, off = b
        u, v, ln = self.edges[ei]
        start = 0.0 if nb == u else ln
        step = t if nb == u else -t
        return self.canon((ei, start + step))

    def validate(self) -> list[str]:
        errs = []
        seen_children = set()
        for i, (u, v, ln) in enumerate(self.edges):
            if not ln > 0:
                errs.append(f"edge {i} has non-positive length")
            elif ln == math.inf and self._children[v]:
                errs.append(f"edge {i} is unbounded but node {v} has children")
            if v in seen_children or v == 0:
                errs.append(f"node {v} has multiple parents or is the root")
            seen_children.add(v)
        # connectivity: every child chain must reach the root
        for v in seen_children:
            hops, x = 0, v
            while x != 0 and hops <= len(self.edges):
                if x not in self._parent:
                    errs.append(f"node {x} is disconnected from the root")
                    break
                x = self._parent[x][0]
                hops += 1
            if hops > len(self.edges):
                errs.append(f"cycle reached from node {v}")
        return errs

    def scaled(self, c: float):
        t = Tree([(u, v, ln * c) for u, v, ln in self.edges])
        return t, lambda p: p if p[0] == -1 else (p[0], p[1] * c)

    def to_json(self) -> dict:
        return {
            "kind": "tree",
            "edges": [
                [u, v, None if math.isinf(ln) else ln] for u, v, ln in self.edges
            ],
        }


# ---------------------------------------------------------------------------
# Flower
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flower:
    """Rings (petals) and one stem segment, all glued at the origin."""

    petals: tuple[float, ...]
    stem: float = 0.0
    kind = "flower"

    def origin(self):
        return ("stem", 0.0)

    def canon(self, p):
        comp, off = p
        if comp == "stem":
            return ("stem", 0.0) if off <= SNAP else p
        ln = self.petals[comp]
        off = off % ln
        if off <= SNAP or off >= ln - SNAP:
            return ("stem", 0.0)
        return (comp, off)

    def contains(self, p) -> bool:
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        comp, off = p
        if comp == "stem":
            return -SNAP <= off <= self.stem + SNAP
        return isinstance(comp, int) and 0 <= comp < len(self.petals) and math.isfinite(off)

    def to_origin(self, p) -> float:
        comp, off = self.canon(p)
        if comp == "stem":
            return off
        ln = self.petals[comp]
        return min(off, ln - off)

    def distance(self, a, b) -> float:
        a, b = self.canon(a), self.canon(b)
        if a[0] == b[0] and a[0] != "stem":
            arc = abs(a[1] - b[1])
            return min(arc, self.petals[a[0]] - arc)
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        return self.to_origin(a) + self.to_origin(b)

    def move_along(self, a, b, t: float):
        _check_traveled(self, a, b, t)
        a, b = self.canon(a), self.canon(b)
        if a == b:
            return a
        if a[0] == b[0] and a[0] != "stem":
            comp = a[0]
            ln = self.petals[comp]
            fwd = (b[1] - a[1]) % ln
            if fwd <= ln - fwd:
                return self.canon((comp, (a[1] + t) % ln))
            return self.canon((comp, (a[1] - t) % ln))
        if a[0] == b[0]:
            return self.canon((a[0], a[1] + (t if b[1] >= a[1] else -t)))
        # through the origin
        d_a = self.to_origin(a)
        if t <= d_a:
            if a[0] == "stem":
                return self.canon(("stem", a[1] - t))
            ln = self.petals[a[0]]
            if a[1] <= ln - a[1]:
                return self.canon((a[0], a[1] - t))
            return self.canon((a[0], a[1] + t))
        t -= d_a
        if b[0] == "stem":
            return self.canon(("stem", t))
        ln = self.petals[b[0]]
        if b[1] <= ln - b[1]:
            return self.canon((b[0], t))
        return self.canon((b[0], ln - t))

    def validate(self) -> list[str]:
        errs = [f"petal {k} must have positive finite length"
                for k, ln in enumerate(self.petals) if not 0 < ln < math.inf]
        if not self.stem >= 0:
            errs.append("stem length must be nonnegative")
        return errs

    def scaled(self, c: float):
        f = Flower(tuple(p * c for p in self.petals), self.stem * c)
        return f, lambda p: (p[0], p[1] * c)

    def to_json(self) -> dict:
        return {"kind": "flower", "petals": list(self.petals), "stem": self.stem}


# ---------------------------------------------------------------------------
# General finite metric
# ---------------------------------------------------------------------------

@dataclass
class General:
    """Finite metric over named sites; site 0 is the origin.

    A moving server may sit at an interior point ``(a, b, t)`` of the
    a->b geodesic; its distance to anything else is the induced graph
    metric, the min over exiting through either endpoint.
    """

    matrix: list[list[float]]
    sites: list[str] | None = None
    kind = "general"

    @property
    def n(self) -> int:
        return len(self.matrix)

    def origin(self):
        return 0

    def canon(self, p):
        if isinstance(p, int):
            return p
        a, b, t = p
        d = self.matrix[a][b]
        if t <= SNAP:
            return a
        if t >= d - SNAP:
            return b
        if a > b:
            a, b, t = b, a, d - t
        return (a, b, t)

    def contains(self, p) -> bool:
        if isinstance(p, int):
            return 0 <= p < self.n
        if isinstance(p, tuple) and len(p) == 3:
            a, b, t = p
            return (
                0 <= a < self.n
                and 0 <= b < self.n
                and -SNAP <= t <= self.matrix[a][b] + SNAP
            )
        return False

    def _anchors(self, p):
        p = self.canon(p)
        if isinstance(p, int):
            return [(p, 0.0)]
        a, b, t = p
        return [(a, t), (b, self.matrix[a][b] - t)]

    def distance(self, a, b) -> float:
        ca, cb = self.canon(a), self.canon(b)
        if ca == cb:
            return 0.0
        best = math.inf
        if (
            not isinstance(ca, int)
            and not isinstance(cb, int)
            and ca[:2] == cb[:2]
        ):
            best = abs(ca[2] - cb[2])
        for na, xa in self._anchors(ca):
            for nb, xb in self._anchors(cb):
                best = min(best, xa + self.matrix[na][nb] + xb)
        return best

    def move_along(self, a, b, t: float):
        _check_traveled(self, a, b, t)
        ca, cb = self.canon(a), self.canon(b)
        if ca == cb:
            return ca
        routes = []
        if not isinstance(ca, int) and not isinstance(cb, int) and ca[:2] == cb[:2]:
            routes.append((abs(ca[2] - cb[2]), "same"))
        for na, xa in self._anchors(ca):
            for nb, xb in self._anchors(cb):
                routes.append((xa + self.matrix[na][nb] + xb, (na, xa, nb, xb)))
        routes.sort(key=lambda r: (r[0], str(r[1])))
        cost, route = routes[0]
        if route == "same":
            aa, bb, ta = ca
            tb = cb[2]
            return self.canon((aa, bb, ta + (t if tb >= ta else -t)))
        na, xa, nb, xb = route
        if t <= xa:
            aa, bb, ta = ca
            step = -t if na == aa else t
            return self.canon((aa, bb, ta + step))
        t -= xa
        mid = self.matrix[na][nb]
        if t <= mid + SNAP or isinstance(cb, int):
            return self.canon((na, nb, min(t, mid)))
        t -= mid
        aa, bb, tb = cb
        # walk from anchor nb toward cb along cb's edge
        if nb == aa:
            return self.canon((aa, bb, t))
        return self.canon((aa, bb, self.matrix[aa][bb] - t))

    def validate(self) -> list[str]:
        m, n = self.matrix, self.n
        if any(len(row) != n for row in m):
            return [f"matrix must be square: {n} rows of lengths {[len(row) for row in m]}"]
        errs = []
        for i in range(n):
            if not _close(m[i][i], 0.0):
                errs.append(f"diagonal entry {i} is nonzero")
            for j in range(i + 1, n):
                if not _close(m[i][j], m[j][i]):
                    errs.append(f"asymmetry at ({i},{j})")
                if m[i][j] < -FEAS:
                    errs.append(f"negative distance at ({i},{j})")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if m[i][j] > m[i][k] + m[k][j] + FEAS:
                        errs.append(
                            f"triangle violation: d({i},{j}) > d({i},{k}) + d({k},{j})"
                        )
        return errs

    def scaled(self, c: float):
        g = General([[v * c for v in row] for row in self.matrix], self.sites)

        def f(p):
            if isinstance(p, int):
                return p
            return (p[0], p[1], p[2] * c)

        return g, f

    def to_json(self) -> dict:
        out = {"kind": "general", "matrix": [list(r) for r in self.matrix]}
        if self.sites:
            out["sites"] = list(self.sites)
        return out


# ---------------------------------------------------------------------------
# Shared helpers and constructors
# ---------------------------------------------------------------------------

Space = Line | Euclid2D | Ring | Tree | Flower | General


def _check_traveled(space, a, b, t: float) -> float:
    d = space.distance(a, b)
    if t < -FEAS or t > d + FEAS:
        raise SpaceError(f"traveled {t} outside [0, {d}]")
    return d


def json_field(obj, key: str, what: str, decode=lambda v: v):
    """``decode(obj[key])`` for a decoded JSON object ``obj``.  A missing
    field, or one that ``decode`` rejects, raises SpaceError naming it."""
    if not isinstance(obj, dict) or key not in obj:
        raise SpaceError(f"{what}: missing field {key!r}")
    try:
        return decode(obj[key])
    except (TypeError, ValueError) as exc:
        raise SpaceError(f"{what}: malformed field {key!r}: {exc}") from None


def space_from_json(obj: dict) -> Space:
    """Decode a space.  An unknown kind, or a field that is missing or
    malformed, raises SpaceError naming it."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    what = f"{kind} space"
    if kind == "line":
        return Line()
    if kind == "euclid2d":
        return Euclid2D()
    if kind == "ring":
        return Ring(json_field(obj, "circumference", what, float))
    if kind == "tree":
        return Tree(json_field(obj, "edges", what, lambda edges: [
            (int(u), int(v), math.inf if ln is None else float(ln)) for u, v, ln in edges]))
    if kind == "flower":
        return Flower(json_field(obj, "petals", what, lambda petals: tuple(float(p) for p in petals)),
                      json_field(obj, "stem", what, float) if "stem" in obj else 0.0)
    if kind == "general":
        return General(json_field(obj, "matrix", what, lambda m: [[float(v) for v in row] for row in m]),
                       obj.get("sites"))
    raise SpaceError(f"unknown space kind {kind!r}")


def point_to_json(space: Space, p) -> Any:
    if isinstance(space, (Line, Ring)):
        return p
    if isinstance(space, Euclid2D):
        return [p[0], p[1]]
    if isinstance(space, Tree):
        return [p[0], p[1]]
    if isinstance(space, Flower):
        return [p[0], p[1]]
    if isinstance(space, General):
        return p if isinstance(p, int) else [p[0], p[1], p[2]]
    raise SpaceError("unknown space")


def point_from_json(space: Space, obj, what: str = "point") -> Any:
    """Decode a point.  A malformed one raises SpaceError naming ``what``.
    One outside the space comes back as decoded, not snapped onto the
    space, so that a containment check still rejects it."""
    try:
        if isinstance(space, (Line, Ring)):
            return float(obj)
        if isinstance(space, Euclid2D):
            return (float(obj[0]), float(obj[1]))
        if isinstance(space, Tree):
            p = (int(obj[0]), float(obj[1]))
        elif isinstance(space, Flower):
            p = (obj[0] if obj[0] == "stem" else int(obj[0]), float(obj[1]))
        elif isinstance(space, General):
            if isinstance(obj, int):
                return obj
            p = (int(obj[0]), int(obj[1]), float(obj[2]))
        else:
            raise SpaceError("unknown space")
    except (TypeError, ValueError, IndexError):
        raise SpaceError(f"{what}: {obj!r} is not a {type(space).__name__} point") from None
    return space.canon(p) if space.contains(p) else p


def canon_point(space: Space, p):
    if isinstance(space, (Tree, Flower, General)):
        return space.canon(p)
    if isinstance(space, Ring):
        return space.norm(p)
    return p


# ---------------------------------------------------------------------------
# Structural transforms: trim, snip
# ---------------------------------------------------------------------------

def trim_tree(tree: Tree, points) -> tuple[Tree, list]:
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
