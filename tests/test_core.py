import json
import math
import pickle
import random

import pytest

from oltsp.cli import main as cli_main

from oltsp.core import (
    FollowOrderPolicy,
    IncompleteRun,
    Instance,
    Request,
    SimulationStalled,
    Simulation,
    prediction_error,
    route_stats,
    run_adaptive,
    simulate,
)
from oltsp.engine import LaSwagPolicy
from oltsp.fixtures import smoothness_lb_space
from oltsp.offline import eval_serving_order, opt_bruteforce
from oltsp.spaces import Euclid2D, Line, Ring, SpaceError, Tree

from conftest import random_point, random_space

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


def test_prediction_error_values():
    inst = Instance(Line(), [Request(0, 1.0, 0.0)], [1.0], "closed")
    assert prediction_error(inst) == 0.0
    # displace one prediction by delta on the line: eta = delta / F
    inst = Instance(Line(), [Request(0, 1.0, 0.0)], [1.5], "closed")
    assert prediction_error(inst) == pytest.approx(0.5 / 2.0)


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
        def decide(self, sim):
            return ("wait", sim.now)

    with pytest.raises(SimulationStalled, match="no progress") as err:
        simulate(inst, Spin())
    stall = err.value
    assert (stall.time, stall.position, stall.unserved, stall.action) == (0.0, 0.0, [0], ("wait", 0.0))
    assert str(pickle.loads(pickle.dumps(stall))) == str(stall)


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
    policy = LaSwagPolicy(inst.space, inst.n, inst.predictions, inst.variant)
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
        n = 0
        predictions = []
        variant = "closed"

        def step(self, sim):
            return None

    class Idle:
        def decide(self, sim):
            return ("finish",)

    res, inst = run_adaptive(Line(), Null(), lambda *a: Idle())
    assert res.completion_time == 0.0 and inst.n == 0


def test_adaptive_past_release_rejected():
    class Bad:
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

    with pytest.raises(ValueError):
        run_adaptive(Line(), Bad(), LaSwagPolicy.factory())


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


def test_float_tree_edge_index_rejected():
    # JSON input casts the index to int; a library caller gets no such cast
    tree = Tree([(0, 1, 1.0)])
    with pytest.raises(SpaceError, match="request 0: location"):
        Instance(tree, [Request(0, (0.0, 0.5), 1.0)], [(0, 0.5)], "closed")
