import json
import os
import random

import numpy as np
import pytest

from oltsp.cli import main as cli_main
from oltsp.core import Instance, prediction_error
from oltsp.fixtures import (
    OPEN_LINE_LB,
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
    SweepSpec,
    adversarial_predictions,
    ceiling,
    generate,
    perturb_predictions,
    sweep,
    write_report,
)
from oltsp.spaces import Tree


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


def test_perturb_degenerate_space_raises():
    from oltsp.core import Request
    from oltsp.spaces import Line

    inst = Instance(Line(), [Request(0, 0.0, 1.0)], [0.0], "closed")
    with pytest.raises(ValueError):
        perturb_predictions(inst, 0.5)


def test_adversarial_predictions_change_predictions():
    spec = SweepSpec(space="euclid2d", count=3, n=5, seed=3)
    moved = 0
    for inst in generate(spec):
        if inst.n == 0:
            continue
        out = adversarial_predictions(inst, np.random.default_rng(7))
        moved += int(out.predictions != inst.locations())
    assert moved > 0


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


def test_fixture_unknown():
    with pytest.raises(ValueError):
        run_fixture("nope")


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


def test_ceilings():
    assert ceiling("tree", "closed") == 2.5
    assert ceiling("euclid2d", "closed") == 2.5
    assert ceiling("general", "closed") == 2.75
    assert ceiling("tree", "open") == pytest.approx(8 / 3)
    assert ceiling("ring", "open") == pytest.approx(3 - 1 / 6)


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
    ("nn", 5),
])
def test_sweep_spec_rejected_at_the_boundary(field, value, tmp_path):
    obj = {"space": "line", "count": 2, "n": 3, field: value}
    with pytest.raises(ValueError, match=repr(field)):
        SweepSpec.from_json(obj)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    assert cli_main(["sweep", str(spec), "-o", str(tmp_path / "sweep.csv")]) == 2
    assert cli_main(["gen", str(spec), "-o", str(tmp_path / "insts")]) == 2
    assert not os.path.exists(tmp_path / "sweep.csv")


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
