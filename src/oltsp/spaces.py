"""Continuous metric spaces a unit-speed server can travel in.

Six families: the real line, the Euclidean plane, weighted rooted trees,
rings, flowers (rings plus a stem glued at one point), and general
finite metrics given by a distance matrix.  Each space knows its origin,
puts each point in one canonical form (``canon``), computes exact
shortest-path distances between points, and can move a point a given
distance along a canonical geodesic toward a target.  From a numpy
``Generator`` it draws a random point (``random_point``) and a point far
from x (``far_point``): at distance >= needed where the space runs that
far, else at least as far as any point ``random_point`` draws.

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

    def canon(self, p: float) -> float:
        return p

    def contains(self, p) -> bool:
        return isinstance(p, (int, float)) and math.isfinite(p)

    def distance(self, a: float, b: float) -> float:
        return abs(a - b)

    def move_along(self, a: float, b: float, t: float):
        _check_traveled(self, a, b, t)
        if b >= a:
            return a + t
        return a - t

    def random_point(self, rng) -> float:
        return float(rng.uniform(-2, 2))

    def far_point(self, x: float, needed: float, rng):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return x + sign * (needed + 1.0)

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

    def canon(self, p):
        return p

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

    def random_point(self, rng):
        return (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))

    def far_point(self, x, needed: float, rng):
        ang = float(rng.uniform(0, 2 * math.pi))
        r = needed + 1.0
        return (x[0] + r * math.cos(ang), x[1] + r * math.sin(ang))

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

    def canon(self, p: float) -> float:
        # p % C is C itself for a tiny negative p; the second % makes it 0
        return p % self.circumference % self.circumference

    def contains(self, p) -> bool:
        return isinstance(p, (int, float)) and math.isfinite(p)

    def distance(self, a: float, b: float) -> float:
        arc = abs(self.canon(a) - self.canon(b))
        return min(arc, self.circumference - arc)

    def cw_arc(self, a: float, b: float) -> float:
        """Arc length going clockwise (increasing coordinate) from a to b."""
        return (self.canon(b) - self.canon(a)) % self.circumference

    def move_along(self, a: float, b: float, t: float):
        _check_traveled(self, a, b, t)
        cw = self.cw_arc(a, b)
        # clockwise wins ties, per the canonical-geodesic convention
        if cw <= self.circumference - cw:
            return self.canon(a + t)
        return self.canon(a - t)

    def random_point(self, rng) -> float:
        return float(rng.uniform(0, self.circumference))

    def far_point(self, x: float, needed: float, rng):
        return self.canon(x + self.circumference / 2.0)

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
    kind = "tree"
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
        # depths from the root down, parents first, each node once: a node
        # listed under two parents takes its depth from its own parent edge,
        # and one not connected to the root gets none
        self._depth = {0: 0.0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._children[u]:
                if v not in self._depth and self._parent[v][0] == u:
                    self._depth[v] = self._depth[u] + self._parent[v][2]
                    stack.append(v)

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
        return self._depth[v]

    def canon(self, p):
        """Snap offsets at 0/length onto node representations.  The child
        end is tried first, so that a node's own representation (its
        parent edge at full length) stays put even on an edge no longer
        than SNAP."""
        ei, off = p
        if ei == -1:
            return TREE_ROOT
        u, v, ln = self.edges[ei]
        if math.isfinite(ln) and off >= ln - SNAP:
            return (ei, ln)
        if off <= SNAP:
            return self.node_point(u)
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
        """(node, cost) pairs through which geodesics from the canonical
        point p must pass."""
        ei, off = p
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
        anchors_b = self._anchors(b)
        for na, ca in self._anchors(a):
            for nb, cb in anchors_b:
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
        anchors_b = self._anchors(b)
        for na, ca in self._anchors(a):
            for nb, cb in anchors_b:
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

    def random_point(self, rng):
        ei = int(rng.integers(0, len(self.edges)))
        return self.canon((ei, float(rng.uniform(0, self.edges[ei][2]))))

    def far_point(self, x, needed: float, rng):
        for ei, (u, v, ln) in enumerate(self.edges):
            if math.isinf(ln):
                return (ei, self.distance(x, self.node_point(u)) + needed + 1.0)
        return max(map(self.node_point, range(self.n_nodes)), key=lambda p: self.distance(x, p))

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
            elif not 1 <= v <= len(self.edges):
                errs.append(f"edge {i} has child {v} outside 1..{len(self.edges)}")
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
        if comp == "stem":  # within SNAP of either end, the end
            return ("stem", 0.0) if off <= SNAP else ("stem", self.stem) if abs(off - self.stem) <= SNAP else p
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

    def _to_origin(self, p) -> float:
        """Distance from a canonical point to the origin."""
        comp, off = p
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
        return self._to_origin(a) + self._to_origin(b)

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
        d_a = self._to_origin(a)
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

    def random_point(self, rng):
        # a component with probability proportional to its length
        comps = list(range(len(self.petals))) + (["stem"] if self.stem > 0 else [])
        lengths = [self.stem if c == "stem" else self.petals[c] for c in comps]
        total = sum(lengths)
        k = int(rng.choice(len(comps), p=[ln / total for ln in lengths]))
        return self.canon((comps[k], float(rng.uniform(0, lengths[k]))))

    def far_point(self, x, needed: float, rng):
        cands = []
        if self.stem > 0:
            cands.append(("stem", self.stem))
        for k, ln in enumerate(self.petals):
            cands.append(self.canon((k, (x[1] + ln / 2.0) % ln)) if x[0] == k else (k, ln / 2.0))
        return max(cands, key=lambda c: self.distance(x, c))

    def validate(self) -> list[str]:
        errs = [f"petal {k} must have positive finite length"
                for k, ln in enumerate(self.petals) if not 0 < ln < math.inf]
        if not self.stem >= 0:
            errs.append("stem length must be nonnegative")
        elif self.stem == math.inf:
            errs.append("stem length must be finite")
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
        if a > b:  # orient first: snapping the offset it keeps makes canon idempotent
            a, b, t = b, a, self.matrix[a][b] - t
        if t <= SNAP:
            return a
        if t >= self.matrix[a][b] - SNAP:
            return b
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
        """(site, cost) pairs through which geodesics from the canonical
        point p must pass."""
        if isinstance(p, int):
            return [(p, 0.0)]
        a, b, t = p
        return [(a, t), (b, self.matrix[a][b] - t)]

    def distance(self, a, b) -> float:
        ca, cb = self.canon(a), self.canon(b)
        if ca == cb:
            return 0.0
        if isinstance(ca, int) and isinstance(cb, int):
            # the anchor loop's min(inf, 0.0 + x + 0.0), bit for bit
            return self.matrix[ca][cb] + 0.0
        best = math.inf
        if (
            not isinstance(ca, int)
            and not isinstance(cb, int)
            and ca[:2] == cb[:2]
        ):
            best = abs(ca[2] - cb[2])
        anchors_b = self._anchors(cb)
        for na, xa in self._anchors(ca):
            for nb, xb in anchors_b:
                best = min(best, xa + self.matrix[na][nb] + xb)
        return best

    def move_along(self, a, b, t: float):
        _check_traveled(self, a, b, t)
        ca, cb = self.canon(a), self.canon(b)
        if ca == cb or t <= 0.0:
            return ca
        routes = []
        if not isinstance(ca, int) and not isinstance(cb, int) and ca[:2] == cb[:2]:
            routes.append((abs(ca[2] - cb[2]), "same"))
        anchors_b = self._anchors(cb)
        for na, xa in self._anchors(ca):
            for nb, xb in anchors_b:
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

    def random_point(self, rng) -> int:
        return int(rng.integers(0, self.n))

    def far_point(self, x, needed: float, rng):
        return max(range(self.n), key=lambda s: self.distance(x, s))

    def validate(self) -> list[str]:
        m, n = self.matrix, self.n
        if any(len(row) != n for row in m):
            return [f"matrix must be square: {n} rows of lengths {[len(row) for row in m]}"]
        errs = []
        if self.sites is not None and not (isinstance(self.sites, list) and len(self.sites) == n
                                           and all(isinstance(s, str) for s in self.sites)):
            errs.append(f"sites must be a list of {n} strings")
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
    if not -FEAS <= t <= d + FEAS:  # NaN included
        raise SpaceError(f"traveled {t} outside [0, {d}]")
    return d


def _json(x, kind=float):
    # ``x`` as a ``kind`` if a JSON value of it (float: any number), not a bool
    if isinstance(x, bool) or not isinstance(x, (int, float) if kind is float else kind):
        raise TypeError(x)
    return kind(x)


def json_field(obj, key: str, what: str, decode=lambda v: v):
    """``decode(obj[key])`` for a decoded JSON object ``obj``.  A missing
    field, or one that ``decode`` rejects, raises SpaceError naming it."""
    if not isinstance(obj, dict) or key not in obj:
        raise SpaceError(f"{what}: missing field {key!r}")
    try:
        return decode(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
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
        return Ring(json_field(obj, "circumference", what, _json))
    if kind == "tree":
        return Tree(json_field(obj, "edges", what, lambda edges: [
            (_json(u, int), _json(v, int), math.inf if ln is None else _json(ln)) for u, v, ln in edges]))
    if kind == "flower":
        return Flower(json_field(obj, "petals", what, lambda petals: tuple(map(_json, petals))),
                      json_field(obj, "stem", what, _json) if "stem" in obj else 0.0)
    if kind == "general":
        return General(json_field(obj, "matrix", what, lambda m: [list(map(_json, row)) for row in m]),
                       obj.get("sites"))
    raise SpaceError(f"unknown space kind {kind!r}")


def point_to_json(p) -> Any:
    return list(p) if isinstance(p, tuple) else p


def point_from_json(space: Space, obj, what: str = "point") -> Any:
    """Decode a point.  A malformed one raises SpaceError naming ``what``.
    One outside the space comes back as decoded, not snapped onto the
    space, so that a containment check still rejects it."""
    if not isinstance(space, (Line, Ring, Euclid2D, Tree, Flower, General)):
        raise SpaceError("unknown space")
    try:
        if isinstance(space, (Line, Ring)):
            return _json(obj)
        if isinstance(space, General) and not isinstance(obj, (list, tuple)):
            return _json(obj, int)
        if len(obj) != (3 if isinstance(space, General) else 2):
            raise TypeError(obj)
        if isinstance(space, Euclid2D):
            return (_json(obj[0]), _json(obj[1]))
        if isinstance(space, Tree):
            p = (_json(obj[0], int), _json(obj[1]))
        elif isinstance(space, Flower):
            p = (obj[0] if obj[0] == "stem" else _json(obj[0], int), _json(obj[1]))
        else:
            p = (_json(obj[0], int), _json(obj[1], int), _json(obj[2]))
    except (TypeError, LookupError, OverflowError):
        raise SpaceError(f"{what}: {obj!r} is not a {type(space).__name__} point") from None
    return space.canon(p) if space.contains(p) else p


# ---------------------------------------------------------------------------
# Structural transform: trim
# ---------------------------------------------------------------------------

def trim_tree(tree: Tree, points) -> tuple[Tree, list[int]]:
    """Restrict a tree to the union of root-to-point paths.

    Returns the trimmed tree plus the node of each input point in it.  One
    depth-first pass (children in edge order) makes a node only where a
    point sits or where the tree branches, numbered in the order it is
    made, so parents come first and every leaf hosts a point; edges stop
    at the deepest point on them.  A node that is skipped adds its edge's
    length to the next node made below it, nearest first.
    """
    points = [tree.canon(p) for p in points]
    cuts: dict[int, set[float]] = {}  # offsets of points per original edge
    for ei, off in points:
        if ei != -1:
            cuts.setdefault(ei, set()).add(off)
    # busy[v]: how many child edges of v lead to a point; ``_depth`` holds
    # parents first, so each node is counted after its children
    busy: dict[int, int] = {}
    for v in reversed(tree._depth):
        busy[v] = sum(1 for w in tree._children[v] if busy[w] or tree._parent[w][1] in cuts)

    edges: list[tuple[int, int, float]] = []
    node_at: dict[tuple, int] = {TREE_ROOT: 0}
    # (original child, the last node made above it, the skipped edge
    # lengths below that node, top down)
    stack = [(w, 0, ()) for w in reversed(tree._children[0])]
    while stack:
        w, top, skipped = stack.pop()
        _, ei, ln = tree._parent[w]
        prev = 0.0
        for off in sorted(cuts.get(ei, ())) + ([ln] if busy[w] > 1 else []):
            if off == prev:  # a point sits on w, which branches
                continue
            length = off - prev
            for s in reversed(skipped):
                length += s
            edges.append((top, len(edges) + 1, length))
            top, skipped, prev = len(edges), (), off
            node_at[(ei, off)] = top
        if busy[w]:
            if prev < ln:
                skipped += (ln - prev,)
            stack += [(x, top, skipped) for x in reversed(tree._children[w])]
    return Tree(edges), [node_at[p] for p in points]
