"""Instances, route statistics, prediction error, and the exact
event-driven simulation of a unit-speed server.

The simulator never steps time on a grid: the next event is always one
of a release, an arrival at the current target, a policy wake-up (for
example the strategic start time), or an adversary wake-up, all of which
are computed in closed form.
"""
from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass
from typing import Any, Iterable

from . import spaces
from .offline import check_order, distance_matrix, shortest_serving_path_length
from .spaces import Space, SpaceError, _json, json_field
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


def _check_space(space: Space) -> Space:
    problems = space.validate()
    if problems:
        raise SpaceError("invalid space: " + "; ".join(problems))
    return space


def check_setting(space: Space, predictions, variant: str) -> None:
    """Raise ValueError on a variant other than "open" or "closed", and
    SpaceError at the first prediction outside ``space``."""
    if variant not in ("open", "closed"):
        raise ValueError(f"bad variant {variant!r}")
    for i, p in enumerate(predictions):
        if not space.contains(p):
            raise SpaceError(f"request {i}: prediction {p!r} is outside the space")


@dataclass
class Instance:
    space: Space
    requests: list[Request]
    predictions: list
    variant: str = "closed"  # "open" | "closed"

    def __post_init__(self):
        _check_space(self.space)
        self._check_predictions()
        for i, r in enumerate(self.requests):
            if r.id != i:
                raise ValueError(f"request {i}: id {r.id!r} is not its position {i}")
            if not self.space.contains(r.location):
                raise SpaceError(f"request {i}: location {r.location!r} is outside the space")
            if not (math.isfinite(r.release) and r.release >= 0):
                raise ValueError(f"request {i}: release {r.release!r} must be finite and >= 0")

    def _check_predictions(self):
        if len(self.predictions) != len(self.requests):
            raise ValueError("one prediction per request is required")
        check_setting(self.space, self.predictions, self.variant)

    @property
    def origin(self):
        return self.space.origin()

    @property
    def n(self) -> int:
        return len(self.requests)

    def locations(self) -> list:
        return [r.location for r in self.requests]

    def with_predictions(self, predictions) -> "Instance":
        """This instance with other predictions; only they are checked."""
        out = copy.copy(self)
        out.predictions = list(predictions)
        out._check_predictions()
        return out

    def perfect(self) -> "Instance":
        return self.with_predictions(self.locations())

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "variant": self.variant,
            "requests": [
                {"x": spaces.point_to_json(r.location), "t": r.release}
                for r in self.requests
            ],
            "predictions": [spaces.point_to_json(p) for p in self.predictions],
        }

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        """Decode an instance.  A field that is missing or malformed raises
        SpaceError naming it."""
        # checked before the points are decoded, which index into the space
        space = _check_space(spaces.space_from_json(json_field(obj, "space", "instance")))
        reqs = [
            Request(i, spaces.point_from_json(space, json_field(r, "x", f"request {i}"),
                                              f"request {i}: location"),
                    json_field(r, "t", f"request {i}", _json))
            for i, r in enumerate(json_field(obj, "requests", "instance", lambda v: _json(v, list)))
        ]
        preds = [spaces.point_from_json(space, p, f"request {i}: prediction")
                 for i, p in enumerate(json_field(obj, "predictions", "instance", lambda v: _json(v, list)))]
        return Instance(space, reqs, preds, obj.get("variant", "closed"))


# ---------------------------------------------------------------------------
# Route statistics
# ---------------------------------------------------------------------------

class RouteStats:
    """Length and released-prefix fraction of one serving order.

    ``D`` is a distance matrix whose row 0 is the origin and row i+1 is
    request i.  The released prefix of a route runs from the origin up to
    and including the leg that reaches the first unreleased request; if
    every request is released (or the route has length zero) the
    fraction is 1.

    A policy that reads the route as it is released keeps its state here:
    ``cursor``, the position of the first unreleased request at its last
    :meth:`advance` (-1 before that), and ``alpha``, the released fraction
    there (0.0 before it).  The legs are summed only as far as the cursor.
    """

    __slots__ = ("perm", "length", "alpha", "cursor", "_D", "_walked")

    def __init__(self, perm: tuple, D, closed: bool):
        self.perm = perm
        total = 0.0
        prev = 0
        for i in perm:
            total += D[prev][i + 1]
            prev = i + 1
        if closed and perm:
            total += D[prev][0]
        self.length = total
        self.alpha = 0.0
        self.cursor = -1
        self._D = D
        self._walked = 0.0  # distance travelled on arriving at the cursor's stop

    def advance(self, released) -> float:
        """Move ``cursor`` on to the first request of ``perm`` past it that is
        not in ``released`` (``len(perm)``: none), adding up the legs it
        passes, and return the released fraction there, kept as ``alpha``."""
        perm, D = self.perm, self._D
        k = self.cursor + 1
        walked = self._walked
        prev = perm[k - 1] + 1 if k else 0
        for k in range(k, len(perm)):
            i = perm[k]
            walked += D[prev][i + 1]
            if i not in released:
                break
            prev = i + 1
        else:
            k = len(perm)
        self.cursor, self._walked = k, walked
        self.alpha = 1.0 if self.length <= FEAS or k == len(perm) else walked / self.length
        return self.alpha

    def alpha_released(self, released) -> float:
        """The released fraction at ``released``, its legs summed afresh from
        position 0; the entry's own cursor and alpha stay."""
        fresh = copy.copy(self)
        fresh.cursor, fresh._walked = -1, 0.0
        return fresh.advance(released)


def route_stats(instance: Instance, perm) -> RouteStats:
    """Statistics of ``perm`` over the instance's true locations."""
    perm = check_order(perm, instance.n)
    D = distance_matrix(instance.space, [instance.origin] + instance.locations())
    return RouteStats(perm, D, instance.variant == "closed")


def check_path_length(F) -> None:
    """A caller-held shortest serving path length must be finite and >= 0."""
    if not (math.isfinite(F) and F >= 0):
        raise ValueError(f"serving path length F={F!r} must be finite and >= 0")


def prediction_error(instance: Instance, F: float | None = None) -> float:
    """Sum of true-to-predicted distances over the shortest serving path
    length F, which depends on the true locations only; a caller that
    already holds F passes it."""
    if F is not None:
        check_path_length(F)
    delta = sum(
        instance.space.distance(r.location, p)
        for r, p in zip(instance.requests, instance.predictions)
    )
    if delta <= FEAS:
        return 0.0
    if F is None:
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

    def __init__(self, space: Space, n: int, variant: str,
                 releases: Iterable[tuple[float, int, Any]] = (),
                 adversary=None):
        self.space = space
        self.n = n
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
            self.released[i] = Request(i, self.space.canon(loc), t)
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
        # Decisions in a row that may pass with no progress, that is with
        # no advance of time and no trajectory event (a release, a serve, a
        # departure, ...), before the run counts as stalled.  On the
        # acceptance pools and the fixtures no decision passes without
        # progress, so the margin is wide.
        limit = 4 * self.n + 16
        streak = 0
        while True:
            before = (self.now, len(self.trajectory))
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
                target = self.space.canon(target)
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
            if not candidates:
                raise SimulationStalled("policy waits forever and nothing is pending",
                                        self.now, self.pos, self._unserved(), act)
            t_next = min(candidates)
            t_next = max(t_next, self.now)
            # advance the server; an arrival takes the target itself, as the
            # rounding of t_arr - t0 grows with the lengths and could carry a
            # walk of the whole leg past it
            if self._leg is not None and self.now < t_next < self._leg[3] - TIE:
                frm, t0, target, _ = self._leg
                self.pos = self.space.move_along(frm, target, t_next - t0)
            self.now = t_next
            if self._leg is not None and t_next >= self._leg[3] - TIE:
                self.pos = self._leg[2]
                self._log(ARRIVE)
                self._leg = None
            self._fire_releases()
            if self._adversary is not None:
                adv_wake = self._adversary.step(self)
            streak = streak + 1 if (self.now, len(self.trajectory)) == before else 0
            if streak > limit:
                raise SimulationStalled(f"no progress in {streak} decisions",
                                        self.now, self.pos, self._unserved(), act)


def simulate(instance: Instance, policy) -> RunResult:
    sim = Simulation(instance.space, instance.n, instance.variant,
                     releases=[(r.release, r.id, r.location) for r in instance.requests])
    return sim.run(policy)


def run_adaptive(adversary, policy) -> tuple[RunResult, Instance]:
    """Play ``policy`` against a release-time adversary, which carries the
    ``space``, ``n``, ``predictions`` and ``variant`` of the instance it
    builds; returns the run and the instance the adversary ended up
    realizing."""
    sim = Simulation(adversary.space, adversary.n, adversary.variant, adversary=adversary)
    result = sim.run(policy)
    reqs = [sim.released[i] for i in sorted(sim.released)]
    if len(reqs) != adversary.n:  # the run served 0..n-1, so there are extra ids
        raise RuntimeError(f"adversary released requests {sorted(sim.released)} for n = {adversary.n}")
    inst = Instance(adversary.space, reqs, adversary.predictions, adversary.variant)
    return result, inst


def follow_route(sim: Simulation, route: list) -> tuple:
    """The next action along ``route``, a list of stops; each stop is
    popped once done.  A stop ``(rid, point)`` moves to ``point`` and
    waits there until request ``rid``, if any, is released; ``(rid,
    None)`` moves to request ``rid``'s released location and serves it.
    The closed variant's return home is ``(None, origin)``.  An empty
    route finishes."""
    while route:
        rid, point = route[0]
        target = sim.released[rid].location if point is None else point
        if sim.space.distance(sim.pos, target) > FEAS:
            return ("move", target)
        if point is None:
            sim.serve(rid)
        elif rid is not None and rid not in sim.released:
            return ("wait", None)
        route.pop(0)
    return ("finish",)

