"""The online policies: strategically wait, then follow the best
partially-released route; with predictions, visit predicted spots first
and fall back to an exact cleanup once everything is released.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BREAK_RULE, Instance, RunResult, Simulation, simulate
from .offline import FREE, PathQuery, solve_classical
from .oracles import make_oracle
from .spaces import canon_point
from .tolerance import FEAS, TIE

_HALF = 0.5 - TIE  # alpha threshold of the start conditions


@dataclass
class EngineConfig:
    oracle: str = "auto"
    breaking_rule: bool = True


@dataclass
class StartDecision:
    T: float
    sigma0: tuple
    sigma1: tuple


def _candidate(scored, window_start: float):
    """Earliest time >= window_start at which some route satisfies both
    start conditions, given the released set is frozen in this window.
    ``scored`` pairs each oracle entry's released fraction with it."""
    best = None
    for alpha, e in scored:
        if alpha >= _HALF:
            if best is None or e.length < best:
                best = e.length
    if best is None:
        return None
    return max(window_start, best / 2.0)


def _witness(scored, T: float):
    best = None
    limit = 2 * T + FEAS
    for alpha, e in scored:
        if alpha < _HALF:
            continue
        if e.length > limit:
            continue
        if best is None or (e.length, e.perm) < (best.length, best.perm):
            best = e
    return best


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
    """Algorithm policy: strategic wait, predicted-spot visits, breaking rule."""

    def __init__(self, space, n, predictions, variant,
                 oracle_kind: str = "auto", breaking_rule: bool = True):
        self.space = space
        self.n = n
        self.predictions = [canon_point(space, p) for p in predictions]
        self.variant = variant
        self.breaking_rule = breaking_rule
        self.oracle = make_oracle(space, self.predictions, variant, oracle_kind)
        self.phase = "plan"
        self.start: StartDecision | None = None
        self.sigma1: tuple = ()
        self.i = 0
        self.stage = "to_pred"
        self._legs: list | None = None
        self._seen_released = -1
        # the last plan's (released count, entry count) and its scored entries
        self._scored_for: tuple = ()
        self._scored: list = []

    @classmethod
    def factory(cls, oracle_kind: str = "auto", breaking_rule: bool = True):
        def make(space, n, predictions, variant):
            return cls(space, n, predictions, variant, oracle_kind, breaking_rule)

        return make

    # -- helpers -------------------------------------------------------------

    def _at(self, sim: Simulation, point) -> bool:
        return sim.space.distance(sim.pos, point) <= FEAS

    def _enter_cleanup(self, sim: Simulation) -> None:
        sim.note(BREAK_RULE)
        unserved = sim.unserved_released()
        end = sim.space.origin() if self.variant == "closed" else FREE
        query = PathQuery(sim.space, sim.pos, [r.location for r in unserved], end)
        res = solve_classical(query)
        self._legs = [(unserved[j].id, unserved[j].location) for j in res.order]
        if self.variant == "closed":
            self._legs.append((None, sim.space.origin()))
        self.phase = "cleanup"

    def _plan(self, sim: Simulation):
        if len(sim.released) != self._seen_released:
            self._seen_released = len(sim.released)
            self.oracle.step(sim.now, frozenset(sim.released))
        # each entry's released fraction, kept while neither the released
        # set nor the entries change (they grow only, so counts tell)
        key = (len(sim.released), len(self.oracle.entries))
        if key != self._scored_for:
            released = frozenset(sim.released)
            self._scored_for = key
            self._scored = [(e.alpha_released(released), e) for e in self.oracle.entries.values()]
        scored = self._scored
        cand = _candidate(scored, sim.now)
        if cand is None:
            return ("wait", None)
        if cand > sim.now + TIE:
            return ("wait", cand)
        sigma0 = _witness(scored, sim.now)
        self.sigma1 = _minimizer(scored)
        self.start = StartDecision(sim.now, sigma0.perm if sigma0 else (), self.sigma1)
        self.phase = "follow"
        return None

    # -- policy protocol -----------------------------------------------------

    def decide(self, sim: Simulation):
        if self.breaking_rule and self.phase != "cleanup" and sim.all_released():
            if len(sim.served) < self.n or (
                self.variant == "closed" and not self._at(sim, sim.space.origin())
            ):
                self._enter_cleanup(sim)
            else:
                return ("finish",)
        if self.phase == "plan":
            act = self._plan(sim)
            if act is not None:
                return act
        if self.phase == "follow":
            while self.i < len(self.sigma1):
                rid = self.sigma1[self.i]
                if rid in sim.served:
                    self.i += 1
                    self.stage = "to_pred"
                    continue
                if self.stage == "to_pred":
                    p = self.predictions[rid]
                    if not self._at(sim, p):
                        return ("move", p)
                    if rid not in sim.released:
                        return ("wait", None)
                    self.stage = "to_true"
                x = sim.released[rid].location
                if not self._at(sim, x):
                    return ("move", x)
                sim.serve(rid)
                self.i += 1
                self.stage = "to_pred"
            if self.variant == "closed" and not self._at(sim, sim.space.origin()):
                return ("move", sim.space.origin())
            return ("finish",)
        if self.phase == "cleanup":
            while self._legs:
                rid, loc = self._legs[0]
                if not self._at(sim, loc):
                    return ("move", loc)
                if rid is not None:
                    sim.serve(rid)
                self._legs.pop(0)
            return ("finish",)
        raise RuntimeError("unreachable policy state")


def la_swag(instance: Instance, config: EngineConfig = EngineConfig()) -> tuple[RunResult, LaSwagPolicy]:
    policy = LaSwagPolicy(
        instance.space, instance.n, instance.predictions, instance.variant,
        oracle_kind=config.oracle, breaking_rule=config.breaking_rule,
    )
    return simulate(instance, policy), policy


def la_swag_policy(instance: Instance, config: EngineConfig = EngineConfig()) -> RunResult:
    return la_swag(instance, config)[0]


def swag_policy(instance: Instance, config: EngineConfig = EngineConfig()) -> RunResult:
    """Perfect-prediction variant: no breaking rule, waits at request spots."""
    for r, p in zip(instance.requests, instance.predictions):
        if instance.space.distance(r.location, p) > FEAS:
            raise ValueError("perfect predictions are required here")
    cfg = EngineConfig(oracle=config.oracle, breaking_rule=False)
    return la_swag(instance, cfg)[0]
