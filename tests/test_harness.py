import hashlib
import json
import os
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from oltsp import harness
from oltsp.cli import main as cli_main
from oltsp.core import Instance, Request, follow_route, prediction_error, run_adaptive
from oltsp.engine import EngineConfig, la_swag
from oltsp.fixtures import (
    _A,
    _B,
    _C,
    _E,
    OPEN_LINE_LB,
    LineReleaseAdversary,
    SmoothnessAdversary,
    open_lb_line_adversary,
    remark_2_5_closed_line,
    remark_8_3_open_line,
    ring_consistency_lb,
    run_fixture,
    smoothness_lb_graph,
    tradeoff_open_line,
)
from oltsp.harness import (
    CSV_COLUMNS,
    EtaUnreachable,
    SweepSpec,
    adversarial_predictions,
    ceiling,
    generate,
    generate_one,
    perturb_predictions,
    sweep,
    write_report,
)
from oltsp.offline import _line_optimum, opt_bruteforce
from oltsp.spaces import General, Line, SpaceError, Tree, space_from_json
from oltsp.tolerance import ADAPTIVE_MARGIN, FEAS

from conftest import pin_pool, pin_space, random_point, random_space


def test_generate_empty():
    spec = SweepSpec(space="line", count=3, n=0, seed=1)
    for inst in generate(spec):
        assert inst.n == 0


def test_generate_deterministic_bytes():
    spec = SweepSpec(space="flower", count=6, n=5, seed=9, variant="open")
    a = [json.dumps(i.to_json(), sort_keys=True) for i in generate(spec)]
    b = [json.dumps(i.to_json(), sort_keys=True) for i in generate(spec)]
    assert a == b
    c = [json.dumps(i.to_json(), sort_keys=True) for i in generate(SweepSpec(space="flower", count=6, n=5, seed=10, variant="open"))]
    assert a != c


def test_generation_unchanged():
    """Generated instances and their perturbed predictions, bit for bit:
    every family and variant, seeds 0-39, etas 0.1 and 2 (clipped), or the
    error a perturbation raises, are pinned by one sha256."""
    digest = hashlib.sha256()
    for family in harness.FAMILIES:
        for variant in ("closed", "open"):
            for seed in range(40):
                inst = generate_one(SweepSpec(space=family, variant=variant, n=6, seed=seed, count=2), 1)
                digest.update(json.dumps(inst.to_json()).encode())
                for eta in (0.1, 2.0):
                    try:
                        out = perturb_predictions(inst, eta, np.random.default_rng([seed, 1]), clip=True)
                        digest.update(json.dumps(out.to_json()).encode())
                    except ValueError as exc:
                        digest.update(repr(exc).encode())
    assert digest.hexdigest() == "dc6940d682dda12ea5fd4133be90b6b97e9156a6f3608bab4cf8166a1db64104"


@pytest.mark.parametrize("family", list(harness.FAMILIES))
def test_family_row_conforms(family):
    """Each ``FAMILIES`` row names a space class of that kind whose random
    spaces are valid and round-trip through JSON, whose random points lie
    inside them, and whose far points keep the contract perturbation rests
    on: a point inside, at distance >= needed from x on the unbounded line
    and plane, and elsewhere at least as far from x as every random point.
    A family added to the table but not to a class, or the reverse, fails
    here."""
    row = harness.FAMILIES[family]
    assert row.space.kind == family
    rng = np.random.default_rng(5)
    spec = SweepSpec(space=family, n=4)
    for _ in range(30):
        space = row.draw(rng, spec)
        assert type(space) is row.space and space.validate() == []
        assert space_from_json(space.to_json()) == space
        for needed in (0.01, 0.7, 5.0):
            x = space.random_point(rng)
            assert space.contains(x)
            p = space.far_point(x, needed, rng)
            assert space.contains(p)
            if family in ("line", "euclid2d"):
                assert space.distance(x, p) >= needed
            else:
                farthest = max(space.distance(x, space.random_point(rng)) for _ in range(50))
                assert space.distance(x, p) >= farthest - FEAS
    # a sweep spec takes exactly the family names
    assert SweepSpec.from_json({"space": family}).space == family
    with pytest.raises(ValueError, match=re.escape(f"must be one of {list(harness.FAMILIES)}")):
        SweepSpec.from_json({"space": family.upper()})


@pytest.mark.parametrize("family", list(harness.FAMILIES))
def test_test_pools_draw_every_family(family):
    """The test pools draw every ``FAMILIES`` row: ``conftest.random_space``
    (with a ``random_point`` on it), ``pin_space``, and both halves of
    ``pin_pool``, the seeded draws and the fixed grid spaces, give spaces
    of the row's class.  A family added to the table but not to the
    pools fails here."""
    cls = harness.FAMILIES[family].space
    rng = random.Random(family)
    space = random_space(family, rng)
    assert isinstance(space, cls)
    assert space.contains(random_point(space, rng))
    assert isinstance(pin_space(family, rng), cls)
    assert [isinstance(space, cls) for space, _, _ in pin_pool(family, "closed", count=1)] == [True, True]


def test_generate_tree_leaf_cap():
    spec = SweepSpec(space="tree", count=100, n=5, seed=4, leaves=4)
    for inst in generate(spec):
        tree = inst.space
        assert isinstance(tree, Tree)
        leaves = [v for v in range(1, tree.n_nodes) if not tree._children.get(v)]
        assert len(leaves) <= 4


def test_perturb_zero_is_exact_copy():
    spec = SweepSpec(space="ring", count=4, n=5, seed=2)
    for inst in generate(spec):
        out = perturb_predictions(inst, 0.0)
        assert out.predictions == inst.locations()


def test_perturb_single_displacement_exact():
    from oltsp.core import Request
    from oltsp.spaces import Line

    inst = Instance(Line(), [Request(0, 1.0, 0.0)], [1.0], "closed")
    out = perturb_predictions(inst, 0.25, np.random.default_rng(1))
    # F = 2, so the displacement must be exactly 0.5
    assert abs(out.predictions[0] - 1.0) == pytest.approx(0.5)
    assert prediction_error(out) == pytest.approx(0.25)


def test_perturb_hits_target_within_band():
    rng = random.Random(0)
    for fam in ("line", "euclid2d", "tree", "ring", "flower", "general"):
        spec = SweepSpec(space=fam, count=6, n=6, seed=8)
        for idx, inst in enumerate(generate(spec)):
            if inst.n == 0:
                continue
            for target in (0.05, 0.3, 1.0):
                nprng = np.random.default_rng([idx, int(target * 100)])
                try:
                    out = perturb_predictions(inst, target, nprng)
                except ValueError:
                    continue  # capped geometry
                eta = prediction_error(out)
                assert 0.95 * target <= eta <= 1.05 * target


def test_perturb_unreachable_eta_carries_target_and_achieved():
    from oltsp.core import Request
    from oltsp.spaces import Ring

    # open, F = 0.5: no prediction lies more than 0.5 away, so eta <= 1
    inst = Instance(Ring(1.0), [Request(0, 0.5, 0.0)], [0.5], "open")
    with pytest.raises(EtaUnreachable) as info:
        perturb_predictions(inst, 3.0, np.random.default_rng(1))
    exc = info.value
    assert isinstance(exc, ValueError) and exc.target == 3.0
    assert exc.achieved == pytest.approx(1.0)
    assert str(exc) == f"target error 3.0 unreachable on this space (got {exc.achieved:.4g})"
    clipped = perturb_predictions(inst, 3.0, np.random.default_rng(1), clip=True)
    assert prediction_error(clipped) == exc.achieved

    at_origin = Instance(Ring(1.0), [Request(0, 0.0, 1.0)], [0.0], "closed")
    with pytest.raises(EtaUnreachable) as info:
        perturb_predictions(at_origin, 0.5)
    assert (info.value.target, info.value.achieved) == (0.5, None)
    assert str(info.value) == "target error unreachable: all requests at the origin"
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="nonnegative") as info:
            perturb_predictions(inst, bad)
        assert not isinstance(info.value, EtaUnreachable)


def test_perturb_degenerate_space_raises():
    from oltsp.core import Request
    from oltsp.spaces import Line

    inst = Instance(Line(), [Request(0, 0.0, 1.0)], [0.0], "closed")
    with pytest.raises(ValueError):
        perturb_predictions(inst, 0.5)


def test_perturbed_predictions_are_plain_numbers():
    """Perturbed points hold Python ints, floats and petal names only, so
    a trajectory CSV prints each coordinate as a number, not ``np.``."""
    for fam in ("line", "euclid2d", "tree", "ring", "flower", "general"):
        inst = generate_one(SweepSpec(space=fam, count=1, n=4, seed=3), 0)
        out = perturb_predictions(inst, 0.5, np.random.default_rng(3), clip=True)
        assert out.predictions != inst.locations(), fam
        for p in out.predictions:
            assert all(type(c) in (int, float, str) for c in (p if isinstance(p, tuple) else (p,))), (fam, p)
        assert "np." not in la_swag(out)[0].to_csv(), fam


def test_adversarial_predictions_change_predictions():
    spec = SweepSpec(space="euclid2d", count=3, n=5, seed=3)
    moved = 0
    for inst in generate(spec):
        if inst.n == 0:
            continue
        out = adversarial_predictions(inst, np.random.default_rng(7))
        moved += int(out.predictions != inst.locations())
    assert moved > 0


def test_adversarial_predictions_leave_an_empty_instance_unchanged():
    inst = Instance(Line(), [], [], "closed")
    assert adversarial_predictions(inst, np.random.default_rng(7)) is inst


def test_new_predictions_are_checked_without_the_space(monkeypatch):
    """``with_predictions`` and ``perfect`` check only the predictions: a
    general space's O(n^3) validation ran once per copy before."""
    inst = generate_one(SweepSpec(space="general", count=1, n=6, seed=3), 0)
    calls = []
    real = General.validate
    monkeypatch.setattr(General, "validate", lambda self: calls.append(1) or real(self))
    out = perturb_predictions(inst, 0.25, np.random.default_rng(3))
    assert out.predictions != inst.predictions and inst.perfect().predictions == inst.locations()
    assert calls == []
    with pytest.raises(SpaceError, match="request 1: prediction 99 is outside the space"):
        inst.with_predictions([0, 99] + inst.predictions[2:])
    with pytest.raises(ValueError, match="one prediction per request"):
        inst.with_predictions(inst.predictions[1:])


# -- fixtures ----------------------------------------------------------------

def test_fixture_remark_25():
    rep = remark_2_5_closed_line()
    assert rep.passed and rep.ratio == pytest.approx(2.5, abs=1e-6)


def test_fixture_remark_83():
    rep = remark_8_3_open_line()
    assert rep.passed and rep.ratio == pytest.approx(8 / 3, abs=1e-6)


def test_fixture_smoothness_lb():
    rep = smoothness_lb_graph(eta=0.5 / (2 - 0.5) * 2 / 2)  # arbitrary small eta
    assert rep.ratio >= rep.expected - 1e-6


def test_fixture_tradeoff():
    rep = tradeoff_open_line(lam=0.5)
    assert rep.passed and rep.ratio >= 2.5 - 1e-6


def test_fixture_ring_lb():
    rep = ring_consistency_lb()
    assert rep.passed and rep.ratio == pytest.approx(1.5, abs=1e-6)


def test_fixture_a1():
    rep = open_lb_line_adversary()
    assert rep.passed and rep.ratio >= OPEN_LINE_LB - 1e-6


class _WalkWaitNearest:
    """Walk to ``x0`` and wait there until ``t_w``, then serve the nearest
    released request, the lower id among equally near ones."""

    def __init__(self, x0, t_w):
        self.x0, self.t_w = x0, t_w

    def decide(self, sim):
        if sim.now < self.t_w:
            return ("move", self.x0) if abs(sim.pos - self.x0) > FEAS else ("wait", self.t_w)
        while todo := sim.unserved_released():
            r = min(todo, key=lambda r: (abs(r.location - sim.pos), r.id))
            if abs(r.location - sim.pos) > FEAS:
                return ("move", r.location)
            sim.serve(r.id)
        return ("finish",) if sim.all_released() else ("wait", None)


def test_line_adversary_bound_holds_for_scripted_policies():
    """The open-line bound holds for any online algorithm, so it holds for
    policies that leave the origin early, where LA-SWAG waits there until
    the adversary's phase-1 wave ends.  They reach the branches LA-SWAG
    never does: the wave front crossing a moving server, the single sweep
    from the far end, and the held-back request of phase 2."""
    phase_2 = far_end = 0
    for x0 in (-1.0, -0.6, -0.3, 0.0, 0.2, 0.5, 0.8, 1.0):
        for t_w in (0.0, 0.5, 1.0, 1.3, 1.6, 2.0):
            adversary = LineReleaseAdversary(21)
            result, inst = run_adaptive(adversary, _WalkWaitNearest(x0, t_w))
            opt = opt_bruteforce(inst).length
            assert result.completion_time / opt >= OPEN_LINE_LB - ADAPTIVE_MARGIN, (x0, t_w)
            phase_2 += adversary.D_id is not None
            far_end += adversary.t0 is None
    assert phase_2 and far_end


@pytest.mark.parametrize("m", [1, 3, 6, 7])
def test_line_adversary_rejects_a_grid_without_0_and_halves(m):
    with pytest.raises(ValueError, match=f"grid m={m}"):
        LineReleaseAdversary(m)


@pytest.mark.parametrize("m", [21, 41])
def test_line_adversary_runs_on_its_grids(m):
    assert run_fixture("open_lb_line_adversary", grid=m).passed


def test_line_optimum_beyond_the_lower_bounds():
    # OPT is 4 (reach -1 at 1, wait until 2, then cross to +1), and neither
    # lower bound reaches it: the path is 3, the last release 2
    inst = Instance(Line(), [Request(0, 1.0, 2.0), Request(1, -1.0, 2.0)], [1.0, -1.0], "open")
    assert opt_bruteforce(inst).length == 4.0
    assert _line_optimum(inst).length == 4.0


def test_line_adversary_crossing_within_the_current_leg_only():
    """The wave front |x| = (2 - t) - delta meets a server leaving 0 at t = 1
    rightward at t = (3 - delta) / 2: found when the leg lasts that long,
    None when the leg arrives first."""
    adversary = LineReleaseAdversary(21)
    tau = (3.0 - adversary.delta) / 2.0
    sim = SimpleNamespace(pos=0.0, now=1.0, current_leg=(0.0, 1.0, 2.0, 3.0))
    assert adversary._crossing(sim) == pytest.approx(tau)
    sim.current_leg = (0.0, 1.0, tau - 1.05, tau - 0.05)
    assert adversary._crossing(sim) is None


class _Route:
    def __init__(self, route):
        self.route = route

    def decide(self, sim):
        return follow_route(sim, self.route)


@pytest.mark.parametrize("stops, site", [([_A], _C), ([_A, _C], _E)], ids=["waits-at-A", "enters-the-C-path"])
def test_smoothness_adversary_when_the_server_heads_to_A(stops, site):
    """A server at A at t = 1 sees the request predicted at B released
    first.  The second drops on the inner site of the path the server is
    not on at t = 2 - eps: C when it waits at A, E once it is on the
    C-path."""
    adversary = SmoothnessAdversary(0.2)
    route = [(None, x) for x in stops] + [(0, stops[-1]), (0, None), (1, None)]
    _, inst = run_adaptive(adversary, _Route(route))
    assert adversary.far == _B
    assert [(r.location, r.release) for r in inst.requests] == [(site, pytest.approx(1.8)), (_B, 1.0)]


def test_fixture_unknown():
    with pytest.raises(ValueError):
        run_fixture("nope")


@pytest.mark.parametrize("eta", [0.34, 0.999, -1.0, -0.5, float("inf"), float("nan")])
def test_smoothness_lb_graph_rejects_an_eta_with_no_metric(eta):
    """Outside eta in [0, 1/3] an edge of the graph is negative or not a
    number, so it is no metric and the fixture refuses to run on it."""
    with pytest.raises(ValueError, match="smoothness_lb_graph: eta="):
        smoothness_lb_graph(eta)


# -- sweep -------------------------------------------------------------------

def test_sweep_and_report(tmp_path):
    spec = SweepSpec(space="ring", count=6, n=5, seed=5, variant="closed", eta=[0.0, 0.2])
    rows, violations, skipped = sweep(spec)
    assert violations == []
    out = tmp_path / "rows.csv"
    write_report(rows, violations, str(out), skipped)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert any(line.startswith("# eta=") for line in lines)
    assert os.path.exists(str(out) + ".gnuplot")
    ids = [line.split(",")[0] for line in lines[1:] if not line.startswith("#")]
    assert ids == sorted(ids)


def test_sweep_empty_header_only(tmp_path):
    spec = SweepSpec(space="line", count=0, n=3, seed=1)
    rows, violations, skipped = sweep(spec)
    out = tmp_path / "empty.csv"
    write_report(rows, violations, str(out), skipped)
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines == [",".join(CSV_COLUMNS)]


def test_sweep_pool_size_invariance():
    spec = SweepSpec(space="ring", count=5, n=4, seed=5, eta=[0.0])

    def key(rows):
        return [(r.instance_id, r.eta, r.alg, r.opt, r.ratio, r.oracle_batch_sizes) for r in rows]

    serial = sweep(spec, jobs=1)
    pooled = sweep(spec, jobs=2)
    assert key(serial[0]) == key(pooled[0])


def test_cli_sweep_reports_violations_and_skips(tmp_path, monkeypatch, capsys):
    """A row above its guarantee exits 1 and is printed and written as a
    violation; an unreachable eta and an n above the OPT cap are written
    as skipped rows: above the policy's cap too, on a line, whose OPT
    runs at any n."""
    cases = [
        ({"space": "line", "count": 1, "n": 1, "seed": 1, "eta": [0.0]},
         "violation: line-0@eta=0: ratio 1.288319 > 0.500001"),
        ({"space": "ring", "count": 1, "n": 3, "seed": 0, "eta": [50.0]},
         "skipped: ring-0@50.0: target error 50.0 unreachable on this space (got 3.294)"),
        ({"space": "ring", "count": 1, "n": 17, "seed": 0, "eta": [0.0]},
         "skipped: ring-0: 17 requests exceeds subset-DP cap 16"),
        ({"space": "line", "count": 1, "n": 17, "oracle": "general"},
         "skipped: line-0: 17 targets exceeds bitmask cap 16"),
    ]
    monkeypatch.setattr(harness, "ceiling", lambda family, variant: 0.5)
    for k, (obj, line) in enumerate(cases):
        spec = tmp_path / f"spec{k}.json"
        spec.write_text(json.dumps(obj))
        out = tmp_path / f"sweep{k}.csv"
        violated = line.startswith("violation")
        assert cli_main(["sweep", str(spec), "-o", str(out)]) == int(violated)
        printed = capsys.readouterr().out.splitlines()
        assert (line in printed) == violated
        assert printed[0].endswith(f"; {int(not violated)} skipped")
        assert "# " + line in out.read_text().splitlines()
        if not violated:
            assert sweep(SweepSpec.from_json(obj)) == ([], [], [line.removeprefix("skipped: ")])


def test_ceilings():
    """Every family and variant, exactly: the sweep's violation bound reads
    these values."""
    want = {
        ("line", "closed"): 2.5, ("line", "open"): 3.0 - 1.0 / 3.0,
        ("euclid2d", "closed"): 2.5, ("euclid2d", "open"): 3.0 - 1.0 / 6.0,
        ("tree", "closed"): 2.5, ("tree", "open"): 3.0 - 1.0 / 3.0,
        ("ring", "closed"): 2.75, ("ring", "open"): 3.0 - 1.0 / 6.0,
        ("flower", "closed"): 2.75, ("flower", "open"): 3.0 - 1.0 / 6.0,
        ("general", "closed"): 2.75, ("general", "open"): 3.0 - 1.0 / 6.0,
    }
    assert {(f, v): ceiling(f, v) for f in harness.FAMILIES for v in ("closed", "open")} == want
    with pytest.raises(KeyError):
        ceiling("bogus", "closed")


# -- CLI ---------------------------------------------------------------------

def test_cli_validate(tmp_path):
    good = tmp_path / "ring.json"
    good.write_text('{"kind": "ring", "circumference": 1.0}')
    assert cli_main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "general", "matrix": [[0, 5, 1], [5, 0, 1], [1, 1, 0]]}')
    assert cli_main(["validate", str(bad)]) == 1


def test_cli_run_and_trajectory(tmp_path):
    inst = {
        "space": {"kind": "line"},
        "variant": "closed",
        "requests": [{"x": 1.0, "t": 1.0}, {"x": 0.0, "t": 2.0}],
        "predictions": [0.0, -1.0],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    traj = tmp_path / "traj.csv"
    assert cli_main(["run", str(path), "--trajectory", str(traj)]) == 0
    assert traj.read_text().startswith("time,location,event")


_LINE_THREE = {
    "space": {"kind": "line"},
    "variant": "closed",
    "requests": [{"x": 1.0, "t": 1.0}, {"x": -0.5, "t": 2.5}, {"x": 2.0, "t": 0.5}],
    "predictions": [1.0, -0.5, 2.0],
}


def test_cli_run_dump_batches_prints_the_oracle_batches(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_LINE_THREE))
    _, policy = la_swag(Instance.from_json(_LINE_THREE), EngineConfig())
    dump = policy.oracle.dump_batches()
    assert dump.startswith("batch t=0: ")
    assert cli_main(["run", str(path), "--dump-batches"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(dump + "\ncompletion_time: ")
    assert cli_main(["run", str(path)]) == 0
    assert capsys.readouterr().out.startswith("completion_time: ")


def test_cli_run_variant_overrides_the_file(tmp_path, capsys):
    """``--variant open`` on a closed instance file runs the open instance."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_LINE_THREE))
    closed = Instance.from_json(_LINE_THREE)
    opened = Instance(closed.space, closed.requests, closed.predictions, "open")
    times = {}
    for variant, inst in (("closed", closed), ("open", opened)):
        times[variant] = f"completion_time: {la_swag(inst, EngineConfig())[0].completion_time:.9g}"
    assert times["closed"] != times["open"]
    assert cli_main(["run", str(path)]) == 0
    assert times["closed"] in capsys.readouterr().out.splitlines()
    assert cli_main(["run", str(path), "--variant", "open"]) == 0
    assert times["open"] in capsys.readouterr().out.splitlines()


def test_swag_sweep_rows_carry_the_batch_sizes(tmp_path):
    """``swag`` runs LA-SWAG's oracle with the breaking rule off, whatever
    the spec's ``breaking_rule`` says, so its rows carry that run's
    ``oracle_batch_sizes``."""
    obj = {"space": "line", "count": 3, "n": 4, "seed": 2, "eta": [0.0], "algo": "swag"}
    spec = tmp_path / "swag.json"
    spec.write_text(json.dumps(obj))
    out = tmp_path / "swag.csv"
    assert cli_main(["sweep", str(spec), "-o", str(out)]) == 0
    column = CSV_COLUMNS.index("oracle_batch_sizes")
    got = [line.split(",")[column] for line in out.read_text().splitlines()[1:] if not line.startswith("#")]
    want = []
    for inst in generate(SweepSpec.from_json(obj)):
        _, policy = la_swag(inst, EngineConfig(breaking_rule=False))
        want.append(";".join(str(b.batch_size) for b in policy.oracle.batches))
    assert len(got) == 3 and all(want)
    assert got == want


def test_cli_run_swag_dump_batches_prints_the_oracle_batches(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_LINE_THREE))
    _, policy = la_swag(Instance.from_json(_LINE_THREE), EngineConfig(breaking_rule=False))
    dump = policy.oracle.dump_batches()
    assert dump.startswith("batch t=0: ")
    assert cli_main(["run", str(path), "--algo", "swag", "--dump-batches"]) == 0
    assert capsys.readouterr().out.startswith(dump + "\ncompletion_time: ")


def test_opt_reported_above_the_old_factorial_cap(tmp_path, capsys):
    inst = {
        "space": {"kind": "line"},
        "variant": "closed",
        "requests": [{"x": (-1) ** i * 0.1 * (i + 1), "t": 0.2 * i} for i in range(10)],
        "predictions": [(-1) ** i * 0.1 * (i + 1) for i in range(10)],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert cli_main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "opt: " in out and "ratio: " in out

    rows, violations, skipped = sweep(SweepSpec(space="line", count=1, n=10, seed=3, eta=[0.0]))
    assert (len(rows), rows[0].n, violations, skipped) == (1, 10, [], [])


@pytest.mark.parametrize("space, n, exact", [("line", 20, True), ("ring", 16, True), ("ring", 17, False)])
def test_cli_run_prints_opt_where_it_is_exact(space, n, exact, tmp_path, capsys):
    """``oltsp run`` prints ``opt:`` and ``ratio:`` wherever ``opt_bruteforce``
    answers, a line at any n, and neither above its cap elsewhere."""
    inst = generate_one(SweepSpec(space=space, count=1, n=n, seed=4), 0)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json()))
    assert cli_main(["run", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["completion_time"] + ["opt", "ratio"] * exact
    if exact:
        assert out[1] == f"opt: {opt_bruteforce(inst).length:.9g}"


@pytest.mark.parametrize("field, value", [
    ("algo", "swgg"),
    ("n", "5"),
    ("count", -1),
    ("eta", [-0.5]),
    ("eta", [float("nan")]),
    ("seed", 1.5),
    ("leaves", 0),
    ("space", "torus"),
    ("space", ["line"]),
    ("breaking_rule", "yes"),
    ("oracle", "ring"),
    ("algo", "swag"),
    ("nn", 5),
    ("eta", []),
])
def test_sweep_spec_rejected_at_the_boundary(field, value, tmp_path):
    # eta 0.5 is valid for la-swag, but swag needs perfect predictions
    obj = {"space": "line", "count": 2, "n": 3, "eta": [0.0, 0.5], field: value}
    with pytest.raises(ValueError, match=repr(field)):
        SweepSpec.from_json(obj)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    assert cli_main(["sweep", str(spec), "-o", str(tmp_path / "sweep.csv")]) == 2
    assert cli_main(["gen", str(spec), "-o", str(tmp_path / "insts")]) == 2
    assert not os.path.exists(tmp_path / "sweep.csv")


def test_sweep_spec_must_be_an_object():
    with pytest.raises(ValueError, match="a sweep spec is a JSON object"):
        SweepSpec.from_json([1])


def test_cli_run_swag_needs_perfect_predictions(tmp_path, capsys):
    """swag on imperfect predictions, like an oracle the space does not
    take, is an input error: exit 2 and a named error, no traceback."""
    inst = {
        "space": {"kind": "line"},
        "variant": "closed",
        "requests": [{"x": 1.0, "t": 1.0}, {"x": 0.0, "t": 2.0}],
        "predictions": [0.0, -1.0],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert cli_main(["run", str(path), "--algo", "swag"]) == 2
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    inst["predictions"] = [1.0, 0.0]
    path.write_text(json.dumps(inst))
    assert cli_main(["run", str(path), "--algo", "swag"]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(path), "--oracle", "ring"]) == 2
    assert capsys.readouterr().err.startswith("error: ValueError: ")


@pytest.mark.parametrize("argv", [
    ["smoothness_lb_graph", "--eta", "0.34"],
    ["smoothness_lb_graph", "--eta", "-1"],
    ["smoothness_lb_graph", "--eps", "2"],
    ["tradeoff_open_line", "--eta", "0.3"],
    ["remark_2_5_closed_line", "--lambda", "0.3"],
])
def test_cli_fixture_rejects_bad_flags(argv, capsys):
    """A flag the fixture does not take, or a value it cannot run on, is an
    input error: exit 2 and a named error, no traceback."""
    assert cli_main(["fixture", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ValueError: ")


def test_cli_fixture_and_sweep(tmp_path):
    assert cli_main(["fixture", "remark_2_5_closed_line"]) == 0
    spec = tmp_path / "spec.json"
    spec.write_text('{"space": "line", "count": 3, "n": 4, "seed": 2, "eta": [0.0]}')
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", str(spec), "-o", str(out)]) == 0
    gen_dir = tmp_path / "insts"
    assert cli_main(["gen", str(spec), "-o", str(gen_dir)]) == 0
    files = sorted(os.listdir(gen_dir))
    assert len(files) == 3
    loaded = Instance.from_json(json.loads((gen_dir / files[0]).read_text()))
    assert loaded.variant in ("open", "closed")


_SMALL_SPEC = '{"space": "line", "count": 1, "n": 3, "seed": 2, "eta": [0.0]}'


@pytest.mark.parametrize("command", ["validate", "run", "sweep", "gen"])
def test_cli_file_errors_exit_2(command, tmp_path, capsys):
    """A missing or unreadable input file, and an output path that cannot
    be written, is an input error: exit 2 and a named error, no traceback.
    Exit 1 would read as a violation found for validate and sweep."""
    for path, error in ((tmp_path / "missing.json", "FileNotFoundError"), (tmp_path, "IsADirectoryError")):
        assert cli_main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}: ")
    if command == "validate":
        return
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_LINE_THREE) if command == "run" else _SMALL_SPEC)
    out, error = tmp_path / "missing" / "out.csv", "FileNotFoundError"
    if command == "gen":  # gen makes its output directory, so a file in the way cannot be one
        out, error = good, "FileExistsError"
    flag = "--trajectory" if command == "run" else "-o"
    assert cli_main([command, str(good), flag, str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}: ")


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_jobs_below_1(jobs, tmp_path, capsys):
    with pytest.raises(ValueError, match="jobs"):
        sweep(SweepSpec.from_json(json.loads(_SMALL_SPEC)), jobs=jobs)
    path = tmp_path / "spec.json"
    path.write_text(_SMALL_SPEC)
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", str(path), "-j", str(jobs), "-o", str(tmp_path / "sweep.csv")])
    assert exc.value.code == 2
    assert "-j/--jobs" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sweep.csv")
