import json
import math
import pickle
import random
import re

import pytest

from oltsp.cli import main as cli_main

from oltsp.core import (
    IncompleteRun,
    Instance,
    Request,
    RouteStats,
    SimulationStalled,
    Simulation,
    follow_route,
    prediction_error,
    route_stats,
    run_adaptive,
    simulate,
)
from oltsp.engine import LaSwagPolicy, la_swag_policy
from oltsp.fixtures import LineReleaseAdversary, smoothness_lb_space
from oltsp.harness import FAMILIES, SweepSpec, generate_one, perturb_predictions
from oltsp.offline import eval_serving_order, opt_bruteforce
from oltsp.spaces import Flower, General, Line, Ring, SpaceError, Tree

from conftest import random_point, random_space
from sensible import FollowOrderPolicy, alpha_by_reach

TOL = 1e-9


def _naive_route(space, origin, pts, perm, variant):
    legs = []
    prev = origin
    for i in perm:
        legs.append(space.distance(prev, pts[i]))
        prev = pts[i]
    if variant == "closed":
        legs.append(space.distance(prev, origin))
    return sum(legs)


def _static(space, locs, variant, rels=None):
    rels = rels or [0.0] * len(locs)
    return Instance(space, [Request(i, x, t) for i, (x, t) in enumerate(zip(locs, rels))],
                    list(locs), variant)


def _released_at(inst, t):
    return {i for i, r in enumerate(inst.requests) if r.release <= t + 1e-12}


def test_route_length_examples():
    sp = Line()
    assert route_stats(_static(sp, [1.0], "closed"), [0]).length == pytest.approx(2.0)
    assert route_stats(_static(sp, [1.0], "open"), [0]).length == pytest.approx(1.0)
    assert route_stats(_static(sp, [0.0, 0.0], "closed"), [0, 1]).length == 0.0


def test_route_length_matches_naive():
    rng = random.Random(3)
    for kind in ("ring", "tree", "flower", "general"):
        for _ in range(20):
            sp = random_space(kind, rng)
            n = rng.randint(1, 6)
            pts = [random_point(sp, rng) for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            v = rng.choice(["open", "closed"])
            assert route_stats(_static(sp, pts, v), perm).length == pytest.approx(
                _naive_route(sp, sp.origin(), pts, perm, v), abs=TOL
            )


def _alpha_scan(space, origin, pts, rel_times, perm, variant, t):
    """Independent released-prefix scan: walk the route and stop at the
    first unreleased stop, whose incoming leg still counts as released."""
    total = _naive_route(space, origin, pts, perm, variant)
    if total <= TOL:
        return 1.0
    prefix = 0.0
    prev = origin
    for i in perm:
        prefix += space.distance(prev, pts[i])
        prev = pts[i]
        if rel_times[i] > t + 1e-12:
            return prefix / total
    return 1.0


def test_released_fraction_empty_prefix_counts_first_leg():
    # an unreleased first stop still contributes the leg from the origin
    inst = Instance(Line(), [Request(0, 1.0, 5.0), Request(1, -1.0, 0.0)], [1.0, -1.0], "closed")
    assert route_stats(inst, [0, 1]).alpha_released(_released_at(inst, 0.0)) == pytest.approx(1.0 / 4.0)
    # the released request 1 plus the leg into the unreleased request 0
    assert route_stats(inst, [1, 0]).alpha_released(_released_at(inst, 0.0)) == pytest.approx(3.0 / 4.0)
    assert route_stats(inst, [1, 0]).alpha_released(_released_at(inst, 10.0)) == 1.0


def test_released_fraction_matches_scan():
    rng = random.Random(6)
    for kind in ("line", "ring", "flower"):
        for _ in range(30):
            sp = random_space(kind, rng)
            n = rng.randint(1, 6)
            reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 4)) for i in range(n)]
            variant = rng.choice(["open", "closed"])
            inst = Instance(sp, reqs, [r.location for r in reqs], variant)
            perm = list(range(n))
            rng.shuffle(perm)
            t = rng.uniform(0, 5)
            assert route_stats(inst, perm).alpha_released(_released_at(inst, t)) == pytest.approx(
                _alpha_scan(sp, inst.origin, inst.locations(), [r.release for r in reqs], perm, variant, t),
                abs=TOL,
            )


def test_alpha_monotone_and_beta_capped():
    rng = random.Random(8)
    for _ in range(30):
        sp = random_space("tree", rng)
        n = rng.randint(1, 6)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 4)) for i in range(n)]
        inst = Instance(sp, reqs, [r.location for r in reqs], "closed")
        perm = list(range(n))
        rng.shuffle(perm)
        st = route_stats(inst, perm)
        prev = -1.0
        for t in sorted(rng.uniform(0, 5) for _ in range(10)):
            a = st.alpha_released(_released_at(inst, t))
            assert a >= prev - TOL
            assert 0.0 <= a <= 1.0
            prev = a


def _first_unreleased(perm, released) -> int:
    return next((k for k, i in enumerate(perm) if i not in released), len(perm))


def test_advance_matches_reach_reference():
    """After each cursor move, as the policy makes them (first, then each
    time the cursor's request is released), an entry's cursor is its first
    unreleased position k and its alpha is ``reach[k] / length`` of the
    whole-reach scorer (``alpha_by_reach``) bit for bit, as is
    ``alpha_released`` at every released set.  Random asymmetric matrices
    in both variants, zero-length routes, and every entry the line
    adversary's oracle holds at grids 21 and 41, released in the order its
    run released them."""
    rng = random.Random(40)
    cases = []
    for _ in range(150):
        n = rng.randint(0, 8)
        D = [[0.0 if a == b else rng.uniform(0, 10) ** rng.choice((1, 3)) for b in range(n + 1)]
             for a in range(n + 1)]
        perm = tuple(rng.sample(range(n), n))
        order = rng.sample(range(n), n)
        cases += [(perm, D, closed, order) for closed in (True, False)]
    zero = [[0.0] * 4 for _ in range(4)]
    cases += [((2, 0, 1), zero, closed, [1, 2, 0]) for closed in (True, False)]
    for grid in (21, 41):
        adversary = LineReleaseAdversary(grid)
        policy = LaSwagPolicy(adversary.space, adversary.predictions, adversary.variant)
        inst = run_adaptive(adversary, policy)[1]
        order = sorted(range(inst.n), key=lambda i: (inst.requests[i].release, i))
        cases += [(e.perm, policy.oracle.D, False, order) for e in policy.oracle.entries.values()]
    for perm, D, closed, order in cases:
        e, ref = RouteStats(perm, D, closed), alpha_by_reach(perm, D, closed)
        for step in range(len(order) + 1):
            released = frozenset(order[:step])
            if e.cursor < 0 or (e.cursor < len(perm) and perm[e.cursor] in released):
                a = e.advance(released)
                k = _first_unreleased(perm, released)
                assert e.cursor == k, (perm, released)
                assert a.hex() == e.alpha.hex() == ref(k).hex(), (perm, released)
            if len(perm) < 10 or step % 10 == 0:
                assert e.alpha_released(released).hex() == ref(_first_unreleased(perm, released)).hex()


def test_prediction_error_values():
    inst = Instance(Line(), [Request(0, 1.0, 0.0)], [1.0], "closed")
    assert prediction_error(inst) == 0.0
    # displace one prediction by delta on the line: eta = delta / F
    inst = Instance(Line(), [Request(0, 1.0, 0.0)], [1.5], "closed")
    assert prediction_error(inst) == pytest.approx(0.5 / 2.0)


def test_prediction_error_is_zero_when_every_request_is_at_the_origin():
    # F = 0, so no error is measured, however far the prediction is
    inst = Instance(Line(), [Request(0, 0.0, 1.0)], [1.0], "closed")
    assert prediction_error(inst) == 0.0


def test_prediction_error_smoothness_graph():
    for eps in (0.1, 0.3, 0.5):
        sp = smoothness_lb_space(eps)
        # true spots A and F, predictions A and B (the adversarial outcome)
        reqs = [Request(0, 1, 0.0), Request(1, 6, 0.0)]
        inst = Instance(sp, reqs, [1, 2], "open")
        eta = prediction_error(inst)
        assert eta == pytest.approx(eps / (2 - eps), abs=1e-9)


def test_prediction_error_scale_invariant():
    rng = random.Random(4)
    for _ in range(20):
        sp = random_space("flower", rng)
        n = rng.randint(1, 5)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 2)) for i in range(n)]
        preds = [random_point(sp, rng) for _ in range(n)]
        inst = Instance(sp, reqs, preds, "closed")
        eta = prediction_error(inst)
        c = rng.uniform(0.1, 100)
        scaled, f = sp.scaled(c)
        inst2 = Instance(
            scaled,
            [Request(r.id, f(r.location), r.release * c) for r in reqs],
            [f(p) for p in preds],
            "closed",
        )
        assert prediction_error(inst2) == pytest.approx(eta, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("F", [math.nan, -1.0, math.inf])
def test_caller_held_serving_length_is_checked(F):
    inst = Instance(Line(), [Request(0, 1.0, 0.0), Request(1, -1.0, 0.0)], [1.5, -1.0], "closed")
    with pytest.raises(ValueError, match=r"serving path length F=.* must be finite and >= 0"):
        prediction_error(inst, F)
    with pytest.raises(ValueError, match=r"serving path length F=.* must be finite and >= 0"):
        perturb_predictions(inst, 0.5, F=F)


# -- simulator ---------------------------------------------------------------

def test_follow_order_matches_eval():
    rng = random.Random(9)
    for _ in range(40):
        sp = random_space("ring", rng)
        n = rng.randint(1, 6)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 3)) for i in range(n)]
        inst = Instance(sp, reqs, [r.location for r in reqs], rng.choice(["open", "closed"]))
        order = list(range(n))
        rng.shuffle(order)
        res = simulate(inst, FollowOrderPolicy(inst, order))
        assert res.completion_time == pytest.approx(eval_serving_order(inst, order), abs=TOL)


def _scaled_instance(family, variant, seed, k) -> Instance:
    """A pinned-n sweep instance (n = 6, perfect predictions) with every
    length and release time multiplied by 2**k."""
    inst = generate_one(SweepSpec(space=family, variant=variant, n=6, seed=seed, count=1), 0)
    space, f = inst.space.scaled(2.0 ** k)
    return Instance(space, [Request(r.id, f(r.location), r.release * 2.0 ** k) for r in inst.requests],
                    [f(p) for p in inst.predictions], variant)


@pytest.mark.parametrize("family, variant, seed, k", [
    ("tree", "closed", 4, 20),
    *((family, variant, 3, 30) for family in FAMILIES for variant in ("closed", "open")),
])
def test_large_scale_run_arrives(family, variant, seed, k):
    """At large lengths the rounding in a leg's arrival time exceeds FEAS,
    so a server that reaches its target must take the target as its
    position, not walk the whole leg through ``move_along``, which would
    reject the walk as longer than the leg.  Each run finishes within the
    consistency bound (perfect predictions)."""
    inst = _scaled_instance(family, variant, seed, k)
    res = la_swag_policy(inst)
    assert res.completion_time <= (1.5 + 1e-9) * opt_bruteforce(inst).length


@pytest.mark.parametrize("order", [[0, 0], [], [0, 5], [1], [0, 1, 2], [-1, 0]])
def test_orders_must_be_permutations(order):
    inst = Instance(Line(), [Request(0, 1.0, 0.0), Request(1, -1.0, 0.0)], [1.0, -1.0], "closed")
    match = re.escape(f"order {order!r} is not a permutation of 0..1")
    with pytest.raises(ValueError, match=match):
        eval_serving_order(inst, order)
    with pytest.raises(ValueError, match=match):
        route_stats(inst, order)


def test_zero_requests_completion_zero():
    inst = Instance(Line(), [], [], "closed")
    res = simulate(inst, FollowOrderPolicy(inst, []))
    assert res.completion_time == 0.0


def test_stay_forever_raises():
    class Lazy:
        def decide(self, sim):
            return ("wait", None)

    inst = Instance(Line(), [Request(0, 1.0, 5.0)], [1.0], "open")
    with pytest.raises(SimulationStalled, match=r"waits forever .* unserved \[0\]") as err:
        simulate(inst, Lazy())
    stall = err.value
    assert (stall.time, stall.position, stall.unserved, stall.action) == (5.0, 0.0, [0], ("wait", None))

    class Spin:
        calls = 0

        def decide(self, sim):
            self.calls += 1
            return ("wait", sim.now)

    spin = Spin()
    with pytest.raises(SimulationStalled, match="no progress") as err:
        simulate(inst, spin)
    stall = err.value
    assert (stall.time, stall.position, stall.unserved, stall.action) == (0.0, 0.0, [0], ("wait", 0.0))
    assert str(pickle.loads(pickle.dumps(stall))) == str(stall)
    # one decision starts the wait; the (4 n + 17)th in a row with no progress stalls
    assert spin.calls == 1 + 4 * inst.n + 17


def test_incomplete_finish_raises():
    class Quit:
        def decide(self, sim):
            return ("finish",)

    inst = Instance(Line(), [Request(0, 1.0, 0.0), Request(1, -1.0, 5.0)], [1.0, -1.0], "open")
    with pytest.raises(IncompleteRun, match=r"unserved \[0, 1\]") as err:
        simulate(inst, Quit())
    assert (err.value.time, err.value.position, err.value.unserved) == (0.0, 0.0, [0, 1])
    assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)

    class StayOut:
        def decide(self, sim):
            if sim.pos != 1.0:
                return ("move", 1.0)
            sim.serve(0)
            return ("finish",)

    inst = Instance(Line(), [Request(0, 1.0, 0.0)], [1.0], "closed")
    with pytest.raises(IncompleteRun, match="away from the origin") as err:
        simulate(inst, StayOut())
    assert (err.value.time, err.value.position, err.value.unserved) == (1.0, 1.0, [])


def _check_run_invariants(inst, res):
    traj = res.trajectory
    for a, b in zip(traj, traj[1:]):
        assert b.time >= a.time - TOL
        assert inst.space.distance(a.point, b.point) <= (b.time - a.time) + 1e-9
    for e in traj:
        if e.kind == "serve":
            r = inst.requests[e.detail]
            assert e.time >= r.release - 1e-9
            assert inst.space.distance(e.point, r.location) <= 1e-9
    assert set(res.served_at) == {r.id for r in inst.requests}


def test_run_invariants_random():
    rng = random.Random(10)
    for _ in range(30):
        sp = random_space(rng.choice(["line", "ring", "flower"]), rng)
        n = rng.randint(1, 5)
        reqs = [Request(i, random_point(sp, rng), rng.uniform(0, 3)) for i in range(n)]
        inst = Instance(sp, reqs, [r.location for r in reqs], rng.choice(["open", "closed"]))
        order = list(range(n))
        rng.shuffle(order)
        res = simulate(inst, FollowOrderPolicy(inst, order))
        _check_run_invariants(inst, res)


def test_remark_trajectory_reaches_minus_one_at_two():
    inst = Instance(Line(), [Request(0, 1.0, 1.0), Request(1, 0.0, 2.0)], [0.0, -1.0], "closed")
    policy = LaSwagPolicy(inst.space, inst.predictions, inst.variant)
    res = simulate(inst, policy)
    arrived = [e for e in res.trajectory if e.kind == "arrive" and abs(e.point - (-1.0)) < TOL]
    assert arrived and arrived[0].time == pytest.approx(2.0)


def test_trajectory_csv():
    inst = Instance(Line(), [Request(0, 1.0, 0.0)], [1.0], "open")
    res = simulate(inst, FollowOrderPolicy(inst, [0]))
    csv = res.to_csv()
    assert csv.splitlines()[0] == "time,location,event"
    assert any("serve" in line for line in csv.splitlines())


def test_run_adaptive_null_adversary():
    class Null:
        space = Line()
        n = 0
        predictions = []
        variant = "closed"

        def step(self, sim):
            return None

    class Idle:
        def decide(self, sim):
            return ("finish",)

    res, inst = run_adaptive(Null(), Idle())
    assert res.completion_time == 0.0 and inst.n == 0


def test_adaptive_past_release_rejected():
    class Bad:
        space = Line()
        n = 1
        predictions = [0.5]
        variant = "open"

        def __init__(self):
            self.fired = False

        def step(self, sim):
            if sim.now >= 1.0 and not self.fired:
                self.fired = True
                sim.emit_release(0, 0.5, 0.2)
                return None
            return 1.0 if not self.fired else None

    bad = Bad()
    with pytest.raises(ValueError):
        run_adaptive(bad, LaSwagPolicy(bad.space, bad.predictions, bad.variant))


def test_instance_rejects_bad_arity_and_variant():
    with pytest.raises(ValueError, match="one prediction per request"):
        Instance(Line(), [Request(0, 1.0, 0.0)], [], "open")
    with pytest.raises(ValueError, match="bad variant 'loop'"):
        Instance(Line(), [Request(0, 1.0, 0.0)], [1.0], "loop")


@pytest.mark.parametrize("ids, match", [
    ([5], "request 0: id 5 is not its position 0"),
    ([0, 0], "request 1: id 0 is not its position 1"),
], ids=["wrong", "duplicate"])
def test_instance_rejects_a_request_id_off_its_position(ids, match):
    """A request's id is its position.  Unchecked, a wrong id was priced
    by OPT and failed late in LA-SWAG, and a duplicate failed only inside
    the simulation."""
    with pytest.raises(ValueError, match=match):
        Instance(Line(), [Request(i, 1.0, 0.0) for i in ids], [1.0] * len(ids), "closed")


class _ServeThenFinish:
    def __init__(self, *rids):
        self.rids = rids

    def decide(self, sim):
        for rid in self.rids:
            sim.serve(rid)
        return ("finish",)


def test_serve_needs_a_released_request_under_the_server():
    reqs = [Request(0, 0.0, 0.0), Request(1, 1.0, 1.0)]
    inst = Instance(Line(), reqs, [0.0, 1.0], "open")
    with pytest.raises(ValueError, match="request 1 not released"):
        simulate(inst, _ServeThenFinish(1))
    inst = Instance(Line(), [Request(0, 0.0, 0.0), Request(1, 1.0, 0.0)], [0.0, 1.0], "open")
    with pytest.raises(ValueError, match="server not at request 1"):
        simulate(inst, _ServeThenFinish(1))
    inst = Instance(Line(), [Request(0, 0.0, 0.0)], [0.0], "open")
    res = simulate(inst, _ServeThenFinish(0, 0))  # a repeat serve is a no-op
    assert res.served_at == {0: 0.0}
    assert [e.kind for e in res.trajectory].count("serve") == 1


@pytest.mark.parametrize("releases, match", [
    ([(-1.0, 0, 0.5)], "release scheduled in the past"),
    ([(0.0, 0, 0.5), (0.0, 0, 0.5)], "request 0 released twice"),
])
def test_bad_release_schedule_rejected(releases, match):
    sim = Simulation(Line(), 1, "open", releases=releases)
    with pytest.raises(ValueError, match=match):
        sim.run(FollowOrderPolicy(Instance(Line(), [Request(0, 0.5, 0.0)], [0.5], "open"), [0]))


@pytest.mark.parametrize("action, error, match", [
    (("move", (1, 0.5)), SpaceError, r"target \(1, 0.5\) outside the space"),
    (("jump", 1.0), ValueError, r"unknown action \('jump', 1.0\)"),
])
def test_bad_action_rejected(action, error, match):
    class Bad:
        def decide(self, sim):
            return action

    inst = Instance(Line(), [Request(0, 1.0, 0.0)], [1.0], "open")
    with pytest.raises(error, match=match):
        simulate(inst, Bad())


def test_run_adaptive_rejects_an_adversary_that_releases_an_extra_request():
    """A run only finishes once requests 0..n-1 are served, so an adversary
    that releases the wrong set of requests has released an extra id."""
    class Extra:
        space = Line()
        n = 1
        predictions = [0.5]
        variant = "open"

        def step(self, sim):
            if not sim.released:
                sim.emit_release(0, 0.5, 0.0)
                sim.emit_release(1, 1.0, 0.0)
            return None

    class ServeReleased:
        def decide(self, sim):
            if not sim.released:
                return ("wait", None)
            return follow_route(sim, [(r.id, None) for r in sim.unserved_released()])

    with pytest.raises(RuntimeError, match=r"adversary released requests \[0, 1\] for n = 1"):
        run_adaptive(Extra(), ServeReleased())


# -- input validation at the boundary ---------------------------------------

_TREE = {"kind": "tree", "edges": [[0, 1, 1.0]]}
_GEN2 = {"kind": "general", "matrix": [[0, 1], [1, 0]]}


def _probe(space, x, t=1.0, pred=None):
    return {"space": space, "variant": "closed",
            "requests": [{"x": x, "t": t}], "predictions": [x if pred is None else pred]}


@pytest.mark.parametrize("obj, error, match", [
    pytest.param(_probe(_TREE, [0, 5.0], pred=[0, 0.5]), SpaceError, "request 0: location",
                 id="tree-offset-past-edge"),
    pytest.param(_probe(_GEN2, 7, pred=1), SpaceError, "request 0: location",
                 id="general-unknown-site"),
    pytest.param(_probe(_GEN2, 1, pred=[0, 1, 2.0]), SpaceError, "request 0: prediction",
                 id="general-prediction-past-edge"),
    pytest.param(_probe({"kind": "line"}, 1.0, t=math.nan), ValueError, "request 0: release",
                 id="nan-release"),
    pytest.param(_probe({"kind": "line"}, 1.0, t=-1.0), ValueError, "request 0: release",
                 id="negative-release"),
    pytest.param(_probe({"kind": "tree", "edges": [[0, 1, -1.0]]}, [0, 0.5]), SpaceError,
                 "edge 0", id="tree-negative-edge"),
    pytest.param(_probe({"kind": "ring", "circumference": -1.0}, 0.5), SpaceError,
                 "circumference", id="ring-negative-circumference"),
    pytest.param(_probe({"kind": "general", "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}, 1),
                 SpaceError, "triangle", id="general-triangle-violation"),
    pytest.param(_probe({"kind": "flower", "petals": [1.0]}, [0, math.nan], pred=[0, 0.5]),
                 SpaceError, "request 0: location", id="flower-nan-offset"),
    pytest.param(_probe({"kind": "tree", "edges": [[0, 1, None], [1, 2, 1.0]]}, [1, 0.5]),
                 SpaceError, "edge 0 is unbounded", id="tree-unbounded-inner-edge"),
    pytest.param(_probe({"kind": "ring", "circumference": math.inf}, 0.5), SpaceError,
                 "circumference", id="ring-infinite-circumference"),
    pytest.param(_probe({"kind": "flower", "petals": [math.inf]}, [0, 0.5]), SpaceError,
                 "petal 0", id="flower-infinite-petal"),
    pytest.param(_probe({"kind": "ring"}, 0.5), SpaceError,
                 "ring space: missing field 'circumference'", id="ring-missing-circumference"),
    pytest.param(_probe(_TREE, 0.5), SpaceError,
                 "request 0: location: 0.5 is not a Tree point", id="tree-point-not-a-pair"),
    pytest.param({"space": {"kind": "line"}, "predictions": []}, SpaceError,
                 "instance: missing field 'requests'", id="missing-requests"),
    pytest.param(_probe({"kind": "general", "matrix": [[0, 1], [1]]}, 1), SpaceError,
                 "matrix must be square", id="general-ragged-matrix"),
    pytest.param(_probe(_GEN2, 1.0, pred=1), SpaceError,
                 "request 0: location: 1.0 is not a General point", id="general-float-site"),
    pytest.param(_probe({"kind": "line"}, 1.0, t="0.5"), SpaceError,
                 "request 0: malformed field 't'", id="string-release"),
    pytest.param(_probe({"kind": "line"}, 1.0, t=True), SpaceError,
                 "request 0: malformed field 't'", id="boolean-release"),
    pytest.param(_probe({"kind": "line"}, 1.0, t=10 ** 400), SpaceError,
                 "request 0: malformed field 't'", id="release-beyond-float"),
    pytest.param(_probe({"kind": "ring", "circumference": True}, 0.5), SpaceError,
                 "ring space: malformed field 'circumference'", id="ring-boolean-circumference"),
    pytest.param(_probe({"kind": "flower", "petals": ["1.5"]}, [0, 0.5]), SpaceError,
                 "flower space: malformed field 'petals'", id="flower-string-petal"),
    pytest.param(_probe({"kind": "flower", "petals": [1.5], "stem": True}, [0, 0.5]), SpaceError,
                 "flower space: malformed field 'stem'", id="flower-boolean-stem"),
    pytest.param(_probe({"kind": "tree", "edges": [[0, 1.7, 1.0]]}, [0, 0.5]), SpaceError,
                 "tree space: malformed field 'edges'", id="tree-float-node"),
    pytest.param(_probe({"kind": "general", "matrix": [[0, "1"], ["1", 0]]}, 1), SpaceError,
                 "general space: malformed field 'matrix'", id="general-string-entry"),
    pytest.param({"space": {"kind": "line"}, "requests": "ab", "predictions": []}, SpaceError,
                 "instance: malformed field 'requests'", id="requests-not-a-list"),
    pytest.param({"space": {"kind": "line"}, "requests": [], "predictions": "ab"}, SpaceError,
                 "instance: malformed field 'predictions'", id="predictions-not-a-list"),
])
def test_invalid_input_rejected_at_the_boundary(obj, error, match, tmp_path, capsys):
    with pytest.raises(error, match=match):
        Instance.from_json(obj)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_unknown_kind_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"kind": "blob"}))
    assert cli_main(["validate", str(path)]) == 2
    assert "unknown space kind 'blob'" in capsys.readouterr().err


@pytest.mark.parametrize("space, x, match", [
    pytest.param(Ring(-1.0), 0.5, "circumference", id="ring-negative-circumference"),
    pytest.param(Tree([(0, 1, 1.0), (0, 1, 2.0)]), (0, 0.5), "multiple parents", id="tree-two-parents"),
    pytest.param(Flower((-1.0,), 0.0), ("stem", 0.0), "petal 0", id="flower-negative-petal"),
    pytest.param(General([[0, 1], [2, 0]]), 1, "asymmetry", id="general-asymmetric"),
])
def test_library_instance_rejects_an_invalid_space(space, x, match):
    """A library caller's space is checked as a JSON file's is.  The point
    lies inside each of these spaces, so only the space check stops them;
    unchecked, LA-SWAG ran on them and returned a completion time."""
    with pytest.raises(SpaceError, match="invalid space: .*" + match):
        Instance(space, [Request(0, x, 1.0)], [x], "closed")


def test_float_tree_edge_index_rejected():
    # no point has a float edge index, from a JSON file or a library caller
    tree = Tree([(0, 1, 1.0)])
    with pytest.raises(SpaceError, match="request 0: location"):
        Instance(tree, [Request(0, (0.0, 0.5), 1.0)], [(0, 0.5)], "closed")
