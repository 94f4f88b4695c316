"""The online policies: strategically wait, then follow the best
partially-released route; with predictions, visit predicted spots first
and fall back to an exact cleanup once everything is released.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace

from .core import BREAK_RULE, Instance, RouteStats, RunResult, Simulation, follow_route, simulate
from .offline import FREE, PathQuery, solve_classical
from .oracles import make_oracle
from .tolerance import FEAS, TIE

_HALF = 0.5 - TIE  # alpha threshold of the start conditions


@dataclass(frozen=True)
class EngineConfig:
    oracle: str = "auto"
    breaking_rule: bool = True


@dataclass
class StartDecision:
    T: float
    sigma0: tuple
    sigma1: tuple


def _minimizer(scored):
    """argmin (1 - beta) * length.  Ties go to the lexicographically
    largest permutation: that is what makes the worst case of the
    prediction-at-the-wrong-end instances actually bite."""
    best_val = math.inf
    best_perm = None
    for alpha, e in scored:
        beta = min(alpha, 0.5)
        val = (1.0 - beta) * e.length
        if val < best_val - TIE or (
            abs(val - best_val) <= TIE and (best_perm is None or e.perm > best_perm)
        ):
            best_val = val
            best_perm = e.perm
    return best_perm


class LaSwagPolicy:
    """LA-SWAG as one route of stops for :func:`~oltsp.core.follow_route`.

    It plans at the origin until some oracle route is half elapsed and
    half released, then follows sigma1: to each request's predicted spot,
    waits there for its release, then serves its true location, and
    (closed) returns home.  Once everything is released, the breaking
    rule replaces the rest of the route with an exact clean-up of the
    unserved requests."""

    def __init__(self, space, predictions, variant, config: EngineConfig = EngineConfig()):
        # first: the oracle checks the setting and keeps the predictions canonical for the route stops
        self.oracle = make_oracle(space, predictions, variant, config.oracle)
        self.n = len(predictions)
        self.variant = variant
        self.breaking_rule = config.breaking_rule
        self.phase = "plan"  # then "follow", or "cleanup" once the breaking rule fires
        self.start: StartDecision | None = None
        self.route: list = []
        self._home = [(None, space.origin())] if variant == "closed" else []
        # by request id, the oracle entries below alpha 1/2 whose cursor is
        # on that request (each entry keeps its own score and cursor); and
        # the witness: the shortest entry at alpha >= 1/2 - TIE, the
        # lexicographically smallest among equal lengths
        self._waiting: defaultdict[int, list[RouteStats]] = defaultdict(list)
        self._sigma0 = None

    # -- helpers -------------------------------------------------------------

    def _enter_cleanup(self, sim: Simulation) -> None:
        sim.note(BREAK_RULE)
        unserved = sim.unserved_released()
        end = sim.space.origin() if self.variant == "closed" else FREE
        query = PathQuery(sim.space, sim.pos, [r.location for r in unserved], end)
        order = solve_classical(query).order
        self.route = [(unserved[j].id, None) for j in order] + self._home
        self.phase = "cleanup"

    def _advance(self, entries, released: frozenset) -> None:
        """Move each of ``entries`` on to its first unreleased request past
        its cursor, score it, update the witness and, below alpha 1/2, file
        it there (alpha only grows, and the policy reads min(alpha, 1/2))."""
        waiting = self._waiting
        for e in entries:
            a = e.advance(released)
            if a < 0.5:  # alpha is 1 past the last request
                waiting[e.perm[e.cursor]].append(e)
            w = self._sigma0
            if a >= _HALF and (w is None or (e.length, e.perm) < (w.length, w.perm)):
                self._sigma0 = e

    def _plan(self, sim: Simulation):
        oracle = self.oracle
        before = oracle.released
        new = oracle.step(sim.now, sim.released)  # a repeat query adds nothing
        released = oracle.released
        # a release moves on only the entries waiting on it; a new entry,
        # one of the last len(new) in the oracle's insertion order, is
        # scored once, as it arrives
        for i in released - before:
            self._advance(self._waiting.pop(i, ()), released)
        fresh = [e for e, _ in zip(reversed(oracle.entries.values()), new)]
        self._advance(reversed(fresh), released)
        sigma0 = self._sigma0
        if sigma0 is None:
            return ("wait", None)
        if sigma0.length / 2.0 > sim.now + TIE:  # released set frozen, both conditions first hold then
            return ("wait", sigma0.length / 2.0)
        sigma1 = _minimizer((e.alpha, e) for e in oracle.entries.values())
        self.start = StartDecision(sim.now, sigma0.perm, sigma1)
        self.route = [stop for r in sigma1 for stop in ((r, oracle.predictions[r]), (r, None))]
        self.route += self._home
        self.phase = "follow"
        return None

    # -- policy protocol -----------------------------------------------------

    def decide(self, sim: Simulation):
        if self.breaking_rule and self.phase != "cleanup" and sim.all_released():
            if len(sim.served) == self.n and (
                self.variant == "open" or sim.space.distance(sim.pos, sim.space.origin()) <= FEAS
            ):
                return ("finish",)
            self._enter_cleanup(sim)
        if self.phase == "plan":
            act = self._plan(sim)
            if act is not None:
                return act
        return follow_route(sim, self.route)


def la_swag(instance: Instance, config: EngineConfig = EngineConfig()) -> tuple[RunResult, LaSwagPolicy]:
    policy = LaSwagPolicy(instance.space, instance.predictions, instance.variant, config)
    return simulate(instance, policy), policy


def la_swag_policy(instance: Instance, config: EngineConfig = EngineConfig()) -> RunResult:
    return la_swag(instance, config)[0]


def swag(instance: Instance, config: EngineConfig = EngineConfig()) -> tuple[RunResult, LaSwagPolicy]:
    """The perfect-prediction policy: LA-SWAG with the breaking rule off,
    whatever ``config`` says, so it waits at the request spots.  Predictions
    that are not the request locations raise ValueError."""
    for r, p in zip(instance.requests, instance.predictions):
        if instance.space.distance(r.location, p) > FEAS:
            raise ValueError("perfect predictions are required here")
    return la_swag(instance, replace(config, breaking_rule=False))


def swag_policy(instance: Instance, config: EngineConfig = EngineConfig()) -> RunResult:
    return swag(instance, config)[0]



ALGORITHMS = ("la-swag", "swag")  # the names ``oltsp run --algo`` and a sweep's "algo" field take


def run_algorithm(name: str, instance: Instance, config: EngineConfig = EngineConfig()):
    """``la_swag`` or ``swag`` by its name in ``ALGORITHMS``, read at the call, not kept in a
    table, so that a wrapper swapped in under its name (a tracer's) sees every run."""
    return (swag if name == "swag" else la_swag)(instance, config)
