"""Instances, route statistics, prediction error, and the exact
event-driven simulation of a unit-speed server.

The simulator never steps time on a grid: the next event is always one
of a release, an arrival at the current target, a policy wake-up (for
example the strategic start time), or an adversary wake-up, all of which
are computed in closed form.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Iterable

from . import spaces
from .spaces import Space, SpaceError, canon_point, json_field
from .tolerance import FEAS, TIE

DEPART = "depart"
ARRIVE = "arrive"
WAIT_START = "wait_start"
WAIT_END = "wait_end"
SERVE = "serve"
RELEASE = "release"
BREAK_RULE = "break_rule_fired"
FINISH = "finish"


@dataclass(frozen=True)
class Request:
    id: int
    location: Any
    release: float


@dataclass
class Instance:
    space: Space
    requests: list[Request]
    predictions: list
    variant: str = "closed"  # "open" | "closed"

    def __post_init__(self):
        if len(self.predictions) != len(self.requests):
            raise ValueError("one prediction per request is required")
        if self.variant not in ("open", "closed"):
            raise ValueError(f"bad variant {self.variant!r}")
        contains = self.space.contains
        for i, (r, p) in enumerate(zip(self.requests, self.predictions)):
            if not contains(r.location):
                raise SpaceError(f"request {i}: location {r.location!r} is outside the space")
            if not contains(p):
                raise SpaceError(f"request {i}: prediction {p!r} is outside the space")
            if not (math.isfinite(r.release) and r.release >= 0):
                raise ValueError(f"request {i}: release {r.release!r} must be finite and >= 0")

    @property
    def origin(self):
        return self.space.origin()

    @property
    def n(self) -> int:
        return len(self.requests)

    def locations(self) -> list:
        return [r.location for r in self.requests]

    def with_predictions(self, predictions) -> "Instance":
        return Instance(self.space, self.requests, list(predictions), self.variant)

    def perfect(self) -> "Instance":
        return self.with_predictions(self.locations())

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "variant": self.variant,
            "requests": [
                {"x": spaces.point_to_json(self.space, r.location), "t": r.release}
                for r in self.requests
            ],
            "predictions": [spaces.point_to_json(self.space, p) for p in self.predictions],
        }

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        """Decode an instance.  A field that is missing or malformed raises
        SpaceError naming it."""
        space = spaces.space_from_json(json_field(obj, "space", "instance"))
        problems = space.validate()
        if problems:
            raise SpaceError("invalid space: " + "; ".join(problems))
        reqs = [
            Request(i, spaces.point_from_json(space, json_field(r, "x", f"request {i}"),
                                              f"request {i}: location"),
                    json_field(r, "t", f"request {i}", float))
            for i, r in enumerate(json_field(obj, "requests", "instance", list))
        ]
        preds = [spaces.point_from_json(space, p, f"request {i}: prediction")
                 for i, p in enumerate(json_field(obj, "predictions", "instance", list))]
        return Instance(space, reqs, preds, obj.get("variant", "closed"))


# ---------------------------------------------------------------------------
# Route statistics
# ---------------------------------------------------------------------------

def distance_matrix(space: Space, points: list) -> list[list[float]]:
    """``D[a][b] = space.distance(points[a], points[b])``.  Both triangles
    are evaluated, in that argument order, because a distance need not be
    bitwise symmetric (tree anchors add up in a different order)."""
    return [[space.distance(a, b) for b in points] for a in points]


class RouteStats:
    """Length and released-prefix fraction of one serving order.

    ``D`` is a distance matrix whose row 0 is the origin and row i+1 is
    request i.  The released prefix of a route runs from the origin up to
    and including the leg that reaches the first unreleased request; if
    every request is released (or the route has length zero) the
    fraction is 1.
    """

    __slots__ = ("perm", "length", "reach")

    def __init__(self, perm: tuple, D, closed: bool):
        self.perm = perm
        reach = []
        total = 0.0
        prev = 0
        for i in perm:
            total += D[prev][i + 1]
            reach.append(total)
            prev = i + 1
        if closed and perm:
            total += D[prev][0]
        self.reach = reach  # distance travelled when arriving at each stop
        self.length = total

    def alpha_released(self, released) -> float:
        if self.length <= FEAS:
            return 1.0
        for k, i in enumerate(self.perm):
            if i not in released:
                return self.reach[k] / self.length
        return 1.0


def route_stats(instance: Instance, perm) -> RouteStats:
    """Statistics of ``perm`` over the instance's true locations."""
    D = distance_matrix(instance.space, [instance.origin] + instance.locations())
    return RouteStats(tuple(perm), D, instance.variant == "closed")


def prediction_error(instance: Instance) -> float:
    """Sum of true-to-predicted distances over the shortest serving path length."""
    from .offline import shortest_serving_path_length

    delta = sum(
        instance.space.distance(r.location, p)
        for r, p in zip(instance.requests, instance.predictions)
    )
    if delta <= FEAS:
        return 0.0
    F = shortest_serving_path_length(instance)
    if F <= FEAS:
        return 0.0
    return delta / F


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

@dataclass
class TrajEvent:
    time: float
    point: Any
    kind: str
    detail: Any = None


@dataclass
class RunResult:
    completion_time: float
    trajectory: list[TrajEvent]
    served_at: dict[int, float]

    def to_csv(self) -> str:
        lines = ["time,location,event"]
        for e in self.trajectory:
            loc = str(e.point).replace(",", ";")
            lines.append(f"{e.time:.12g},{loc},{e.kind}")
        return "\n".join(lines) + "\n"


class SimulationStalled(RuntimeError):
    """The policy makes no progress: it waits forever with nothing left to
    wake it, or it keeps deciding without serving or moving on."""

    def __init__(self, reason: str, time: float, position, unserved: list[int], action):
        super().__init__(reason, time, position, unserved, action)
        self.reason = reason
        self.time = time
        self.position = position
        self.unserved = unserved
        self.action = action

    def __str__(self) -> str:
        return (f"{self.reason} at t={self.time!r}, position {self.position!r}, "
                f"unserved {self.unserved}, last action {self.action!r}")


class IncompleteRun(RuntimeError):
    """The policy finished with a request unserved, or (closed variant)
    away from the origin."""

    def __init__(self, time: float, position, unserved: list[int]):
        super().__init__(time, position, unserved)
        self.time = time
        self.position = position
        self.unserved = unserved

    def __str__(self) -> str:
        what = f"unserved {self.unserved}" if self.unserved else "away from the origin"
        return f"finish with {what} at t={self.time!r}, position {self.position!r}"


class Simulation:
    """Single-server world: releases arrive, the policy moves the server."""

    def __init__(self, space: Space, n: int, predictions: list, variant: str,
                 releases: Iterable[tuple[float, int, Any]] = (),
                 adversary=None):
        self.space = space
        self.n = n
        self.predictions = list(predictions)
        self.variant = variant
        self.now = 0.0
        self.pos = space.origin()
        self.released: dict[int, Request] = {}
        self.served: dict[int, float] = {}
        self.trajectory: list[TrajEvent] = []
        self._queue: list[tuple[float, int, Any]] = []
        for t, i, loc in releases:
            heapq.heappush(self._queue, (t, i, loc))
        self._adversary = adversary
        self._leg = None  # (from_pos, depart_t, target, arrive_t)

    # -- policy-facing API -------------------------------------------------

    @property
    def current_leg(self):
        """(from, depart_time, target, arrival_time) of the active move."""
        return self._leg

    def all_released(self) -> bool:
        return len(self.released) == self.n

    def unserved_released(self) -> list[Request]:
        return [r for i, r in sorted(self.released.items()) if i not in self.served]

    def serve(self, rid: int) -> None:
        req = self.released.get(rid)
        if req is None:
            raise ValueError(f"request {rid} not released")
        if self.space.distance(self.pos, req.location) > FEAS:
            raise ValueError(f"server not at request {rid}")
        if rid in self.served:
            return
        self.served[rid] = self.now
        self._log(SERVE, detail=rid)

    def note(self, kind: str, detail=None) -> None:
        self._log(kind, detail=detail)

    # -- internals ---------------------------------------------------------

    def _unserved(self) -> list[int]:
        return [i for i in range(self.n) if i not in self.served]

    def _log(self, kind: str, detail=None) -> None:
        self.trajectory.append(TrajEvent(self.now, self.pos, kind, detail))

    def _fire_releases(self) -> bool:
        fired = False
        while self._queue and self._queue[0][0] <= self.now + TIE:
            t, i, loc = heapq.heappop(self._queue)
            if t < self.now - FEAS:
                raise ValueError("release scheduled in the past")
            if i in self.released:
                raise ValueError(f"request {i} released twice")
            self.released[i] = Request(i, canon_point(self.space, loc), t)
            self._log(RELEASE, detail=i)
            fired = True
        return fired

    def emit_release(self, rid: int, loc, t: float) -> None:
        if t < self.now - FEAS:
            raise ValueError("adversary released in the past")
        heapq.heappush(self._queue, (t, rid, loc))

    def run(self, policy) -> RunResult:
        self._fire_releases()
        adv_wake = self._adversary.step(self) if self._adversary else None
        waiting = False
        guard = 0
        act = None
        while True:
            guard += 1
            if guard > 100000:
                raise SimulationStalled("no progress after 100000 decisions",
                                        self.now, self.pos, self._unserved(), act)
            act = policy.decide(self)
            kind = act[0]
            if kind == "finish":
                unserved = self._unserved()
                if unserved or (self.variant == "closed" and
                                self.space.distance(self.pos, self.space.origin()) > FEAS):
                    raise IncompleteRun(self.now, self.pos, unserved)
                if waiting:
                    self._log(WAIT_END)
                self._log(FINISH)
                return RunResult(self.now, self.trajectory, dict(self.served))
            candidates = []
            if kind == "move":
                target = act[1]
                if not self.space.contains(target):
                    raise SpaceError(f"target {target!r} outside the space")
                target = canon_point(self.space, target)
                d = self.space.distance(self.pos, target)
                if waiting:
                    self._log(WAIT_END)
                    waiting = False
                if self._leg is None or self._leg[2] != target:
                    self._leg = (self.pos, self.now, target, self.now + d)
                    self._log(DEPART)
                candidates.append(self._leg[3])
            elif kind == "wait":
                self._leg = None
                if not waiting:
                    self._log(WAIT_START)
                    waiting = True
                if act[1] is not None:
                    candidates.append(act[1])
            else:
                raise ValueError(f"unknown action {act!r}")
            if self._queue:
                candidates.append(self._queue[0][0])
            if adv_wake is not None:
                candidates.append(adv_wake)
            candidates = [c for c in candidates if c is not None]
            if not candidates:
                raise SimulationStalled("policy waits forever and nothing is pending",
                                        self.now, self.pos, self._unserved(), act)
            t_next = min(candidates)
            t_next = max(t_next, self.now)
            # advance the server
            if self._leg is not None and t_next > self.now:
                frm, t0, target, t_arr = self._leg
                self.pos = self.space.move_along(frm, target, min(t_next, t_arr) - t0)
            self.now = t_next
            if self._leg is not None and t_next >= self._leg[3] - TIE:
                self.pos = self._leg[2]
                self._log(ARRIVE)
                self._leg = None
            self._fire_releases()
            if self._adversary is not None:
                adv_wake = self._adversary.step(self)


def simulate(instance: Instance, policy) -> RunResult:
    sim = Simulation(
        instance.space,
        instance.n,
        instance.predictions,
        instance.variant,
        releases=[(r.release, r.id, r.location) for r in instance.requests],
    )
    return sim.run(policy)


def run_adaptive(space: Space, adversary, policy_factory) -> tuple[RunResult, Instance]:
    """Play a policy against a release-time adversary; returns the run and
    the instance the adversary ended up realizing."""
    sim = Simulation(space, adversary.n, adversary.predictions, adversary.variant,
                     adversary=adversary)
    policy = policy_factory(space, adversary.n, adversary.predictions, adversary.variant)
    result = sim.run(policy)
    reqs = [sim.released[i] for i in sorted(sim.released)]
    if len(reqs) != adversary.n:
        raise RuntimeError("adversary did not release every request")
    inst = Instance(space, reqs, adversary.predictions, adversary.variant)
    return result, inst


class FollowOrderPolicy:
    """Serve the true locations in a fixed order, waiting at each request."""

    def __init__(self, instance: Instance, order):
        self.locations = instance.locations()
        self.order = list(order)
        self.variant = instance.variant
        self.origin = instance.origin
        self.i = 0

    def decide(self, sim: Simulation):
        while self.i < len(self.order):
            rid = self.order[self.i]
            loc = canon_point(sim.space, self.locations[rid])
            if sim.space.distance(sim.pos, loc) > FEAS:
                return ("move", loc)
            if rid not in sim.released:
                return ("wait", None)
            sim.serve(rid)
            self.i += 1
        if self.variant == "closed" and sim.space.distance(sim.pos, self.origin) > FEAS:
            return ("move", self.origin)
        return ("finish",)
