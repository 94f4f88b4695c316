"""Replayable tightness and lower-bound scenarios with closed-form
expected ratios, including the adaptive release adversaries."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Instance, Request, run_adaptive
from .engine import LaSwagPolicy, la_swag_policy
from .offline import opt_bruteforce
from .spaces import General, Line, Ring
from .tolerance import ADAPTIVE_MARGIN, FEAS, STATIC_MARGIN, TIE

OPEN_LINE_LB = (1.0 + math.sqrt(61.0)) / 6.0  # ~1.4684, fixed point of r = 5/(3r-1)


@dataclass
class FixtureReport:
    fixture: str
    params: dict
    alg: float
    opt: float
    ratio: float
    expected: float
    comparison: str  # "==" or ">="
    passed: bool


def _mk_report(name, params, alg, instance, expected, comparison, margin) -> FixtureReport:
    opt = opt_bruteforce(instance).length
    ratio = alg / opt
    if comparison == "==":
        passed = abs(ratio - expected) <= margin
    else:
        passed = ratio >= expected - margin
    return FixtureReport(name, params, alg, opt, ratio, expected, comparison, passed)


def _static(name, instance, expected, comparison="==", params=None) -> FixtureReport:
    """LA-SWAG on a fixed instance against its brute-force optimum."""
    alg = la_swag_policy(instance).completion_time
    return _mk_report(name, params or {}, alg, instance, expected, comparison, STATIC_MARGIN)


def _adaptive(name, params, adversary, expected) -> FixtureReport:
    """LA-SWAG against a release-time adversary, on the instance it realized."""
    policy = LaSwagPolicy(adversary.space, adversary.predictions, adversary.variant)
    result, inst = run_adaptive(adversary, policy)
    return _mk_report(name, params, result.completion_time, inst, expected, ">=", ADAPTIVE_MARGIN)


# ---------------------------------------------------------------------------
# Static line fixtures
# ---------------------------------------------------------------------------

def remark_2_5_closed_line() -> FixtureReport:
    """Two requests on the line with predictions at the wrong end: the
    server is lured to -1 and pays ratio exactly 2.5 (closed)."""
    inst = Instance(Line(), [Request(0, 1.0, 1.0), Request(1, 0.0, 2.0)], [0.0, -1.0], "closed")
    return _static("remark_2_5_closed_line", inst, 2.5)


def remark_8_3_open_line() -> FixtureReport:
    """One request predicted at -1 but appearing at 1.5: ratio 8/3 (open)."""
    inst = Instance(Line(), [Request(0, 1.5, 1.5)], [-1.0], "open")
    return _static("remark_8_3_open_line", inst, 8.0 / 3.0)


def ring_consistency_lb() -> FixtureReport:
    """Perfect-prediction witness on the ring: a single request at the
    antipode released at 0.5 forces ratio exactly 3/2."""
    inst = Instance(Ring(1.0), [Request(0, 0.5, 0.5)], [0.5], "closed")
    return _static("ring_consistency_lb", inst, 1.5)


def tradeoff_open_line(lam: float = 0.5) -> FixtureReport:
    """Prediction at -1, real request at +1 released at t=1 (open).

    Any (2-lam)-consistent algorithm must pay at least 2+lam here; for
    the 1.5-consistent policy (lam = 1/2) the realized ratio is 2.5,
    sitting exactly on that boundary.
    """
    inst = Instance(Line(), [Request(0, 1.0, 1.0)], [-1.0], "open")
    return _static("tradeoff_open_line", inst, 2.0 + lam, ">=", {"lambda": lam})


# ---------------------------------------------------------------------------
# Smoothness lower-bound graph (adaptive)
# ---------------------------------------------------------------------------

SITES = ["O", "A", "B", "C", "D", "E", "F"]
_O, _A, _B, _C, _D, _E, _F = range(7)


def smoothness_lb_space(eps: float) -> General:
    """Two parallel three-hop paths of length 1 between A and B, both at
    distance 1 from the origin."""
    edges = [
        (_O, _A, 1.0),
        (_O, _B, 1.0),
        (_A, _C, eps),
        (_C, _D, 1.0 - 2 * eps),
        (_D, _B, eps),
        (_A, _E, eps),
        (_E, _F, 1.0 - 2 * eps),
        (_F, _B, eps),
    ]
    n = len(SITES)
    m = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 0.0
    for a, b, w in edges:
        m[a][b] = min(m[a][b], w)
        m[b][a] = min(m[b][a], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if m[i][k] + m[k][j] < m[i][j]:
                    m[i][j] = m[i][k] + m[k][j]
    return General(m, SITES)


class SmoothnessAdversary:
    """Releases the request predicted on the far side at t=1, then drops
    the second request on whichever inner site the server cannot reach
    in time (observed at t = 2 - eps)."""

    def __init__(self, eps: float):
        self.eps = eps
        self.space = smoothness_lb_space(eps)
        self.predictions = [_A, _B]
        self.variant = "open"
        self.n = 2
        self.phase = 0
        self.far = None

    def _on_segment(self, pos, sites) -> bool:
        if isinstance(pos, int):
            return pos in sites
        a, b, _ = pos
        return a in sites and b in sites

    def step(self, sim):
        if self.phase == 0:
            if sim.now < 1.0 - TIE:
                return 1.0
            d = self.space.distance
            # release first the request predicted away from the server
            self.far = _A if d(sim.pos, _A) >= d(sim.pos, _B) else _B
            first = 0 if self.far == _A else 1
            sim.emit_release(first, self.far, 1.0)
            self.phase = 1
            return 2.0 - self.eps
        if self.phase == 1:
            if sim.now < 2.0 - self.eps - TIE:
                return 2.0 - self.eps
            second = 1 if self.far == _A else 0
            if self.far == _A:
                # blockers near B; [B,E] runs along the E-path
                loc = _D if self._on_segment(sim.pos, {_B, _E, _F}) else _F
            else:
                loc = _C if self._on_segment(sim.pos, {_A, _E, _F}) else _E
            sim.emit_release(second, loc, sim.now)
            self.phase = 2
            return None
        return None


def smoothness_lb_graph(eta: float = 0.2) -> FixtureReport:
    """Adaptive lower-bound instance achieving ratio >= 3/2 + eta/2.  An
    eta outside [0, 1/3] gives a graph that is no metric: ValueError."""
    eps = 2.0 * eta / (1.0 + eta) if eta != -1.0 else math.nan
    adv = SmoothnessAdversary(eps)
    problems = adv.space.validate()
    if problems:
        raise ValueError(f"smoothness_lb_graph: eta={eta!r} gives eps={eps!r} and no metric "
                         f"({len(problems)} problems, the first: {problems[0]})")
    return _adaptive("smoothness_lb_graph", {"eta": eta, "eps": eps}, adv, 1.5 + eta / 2.0)


# ---------------------------------------------------------------------------
# Open-line consistency lower bound (adaptive, perfect predictions)
# ---------------------------------------------------------------------------

class LineReleaseAdversary:
    """Release waves sweeping inward from both ends of [-1, 1]; once the
    server is delta-close to a wave front the middle is released so that
    finishing requires a full extra traversal."""

    def __init__(self, m: int = 21):
        if m < 5 or (m - 1) % 4:
            raise ValueError(f"LineReleaseAdversary: grid m={m!r} must be 5, 9, 13, ... to contain 0 and +-1/2")
        self.space = Line()
        self.grid = [-1.0 + 2.0 * k / (m - 1) for k in range(m)]
        self.predictions = list(self.grid)
        self.variant = "open"
        self.n = m
        self.lam = OPEN_LINE_LB
        self.delta = 5.0 - 3.0 * self.lam
        self.phase = 0
        self.sign = 1.0
        self.t0 = None
        self.D_id = None
        self.released_ids: set[int] = set()

    # wave: request at x becomes available at 2 - |x|
    def _due(self, t):
        return [i for i, x in enumerate(self.grid)
                if i not in self.released_ids and 2.0 - abs(x) <= t + TIE]

    def _emit(self, sim, ids, t):
        for i in ids:
            sim.emit_release(i, self.grid[i], t)
            self.released_ids.add(i)

    def _release_rest(self, sim, side) -> None:
        """Release each remaining request, at x, at 2 + side * x: one wave from ``side``."""
        for i, x in enumerate(self.grid):
            if i not in self.released_ids:
                self._emit(sim, [i], 2.0 + side * x)
        self.phase = 3

    def _next_wave(self, t):
        times = [2.0 - abs(self.grid[i]) for i in range(self.n)
                 if i not in self.released_ids and 2.0 - abs(self.grid[i]) > t + TIE]
        return min(times) if times else None

    def _crossing(self, sim):
        """Earliest time |pos| = (2 - t) - delta under the current motion."""
        c0 = sim.pos
        if sim.current_leg is not None:
            frm, t0, target, t_arr = sim.current_leg
            v = 1.0 if target > frm else -1.0
            horizon = t_arr
        else:
            v = 0.0
            horizon = math.inf
        # solve |c0 + v (tau - now)| + tau = 2 - delta over [now, horizon]
        best = None
        for sgn in (1.0, -1.0):
            denom = sgn * v + 1.0
            if denom == 0.0:  # v is 0 or +-1, so denom is exactly 0, 1 or 2
                continue
            tau = (2.0 - self.delta - sgn * c0 + (sgn * v) * sim.now) / denom
            if tau < sim.now - TIE or tau > horizon + TIE:
                continue
            c = c0 + v * (tau - sim.now)
            if abs(abs(c) - ((2.0 - tau) - self.delta)) <= FEAS:
                if best is None or tau < best:
                    best = tau
        return best

    def step(self, sim):
        if self.phase == 0:
            if sim.now < 1.0 - TIE:
                return 1.0
            s = sim.pos
            self.sign = 1.0 if s >= 0 else -1.0
            if abs(s) >= 1.0 - self.delta - TIE:
                # single sweep from the far end
                return self._release_rest(sim, self.sign)
            self.phase = 1
            # fall through to phase-1 monitoring
        if self.phase == 1:
            self._emit(sim, self._due(sim.now), sim.now)
            front = (2.0 - sim.now) - self.delta
            if abs(abs(sim.pos) - front) <= FEAS or abs(sim.pos) > front:
                self.t0 = sim.now
                s2 = 1.0 if self.sign * sim.pos >= 0 else -1.0
                self.mu = self.sign * s2
                if self.t0 >= 3.0 * self.lam - 3.0 - FEAS:
                    # release the middle as one continuing wave
                    return self._release_rest(sim, self.mu)
                # hold back the request closest to the front on the mu side
                cands = [i for i in range(self.n) if i not in self.released_ids]
                self.D_id = max(cands, key=lambda i: self.mu * self.grid[i])
                self._emit(sim, [i for i in cands if i != self.D_id], sim.now)
                self.phase = 2
                return self.t0 + 1.0
            wakes = [w for w in (self._next_wave(sim.now), self._crossing(sim)) if w is not None]
            return min(wakes) if wakes else None
        if self.phase == 2:
            if sim.now < self.t0 + 1.0 - TIE:
                return self.t0 + 1.0
            s2 = self.mu * sim.pos
            if s2 < 0:
                self._emit(sim, [self.D_id], sim.now)
            else:
                t1 = 3.0 + (1.0 - self.mu * self.grid[self.D_id])
                self._emit(sim, [self.D_id], t1)
            self.phase = 3
            return None
        return None


def open_lb_line_adversary(grid: int = 21) -> FixtureReport:
    return _adaptive("open_lb_line_adversary", {"grid": grid}, LineReleaseAdversary(grid), OPEN_LINE_LB)


FIXTURES = {
    "remark_2_5_closed_line": remark_2_5_closed_line,
    "remark_8_3_open_line": remark_8_3_open_line,
    "smoothness_lb_graph": smoothness_lb_graph,
    "tradeoff_open_line": tradeoff_open_line,
    "open_lb_line_adversary": open_lb_line_adversary,
    "ring_consistency_lb": ring_consistency_lb,
}


def run_fixture(name: str, **params) -> FixtureReport:
    try:
        fn = FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}") from None
    return fn(**params)
