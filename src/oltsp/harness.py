"""Instance generation, prediction perturbation to a target error, ratio
sweeps with guarantee checking, and CSV reports."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import Instance, Request, check_path_length, prediction_error
from .engine import EngineConfig, la_swag, swag
from .offline import SizeCapExceeded, opt_bruteforce, shortest_serving_path_length
from .oracles import ORACLES
from .spaces import Euclid2D, Flower, General, Line, Ring, Tree
from .tolerance import DIAMETER_FLOOR, ETA_BAND, SWEEP_SLACK, TIE


def _random_tree(rng, spec: SweepSpec) -> Tree:
    edges = []
    nodes = [0]
    leaves: set[int] = set()
    for _ in range(int(rng.integers(1, 7))):
        if len(leaves) >= spec.leaves:
            parent = int(rng.choice(sorted(leaves)))
        else:
            parent = int(rng.choice(nodes))
        child = len(nodes)
        edges.append((parent, child, float(rng.uniform(0.2, 2.0))))
        leaves.discard(parent)
        leaves.add(child)
        nodes.append(child)
    return Tree(edges)


def _random_flower(rng, spec: SweepSpec) -> Flower:
    p = int(rng.integers(1, spec.petals + 1))
    petals = tuple(float(rng.uniform(0.5, 1.5)) for _ in range(p))
    stem = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.7 else 0.0
    return Flower(petals, stem)


def _random_general(rng, spec: SweepSpec) -> General:
    """Plane distances between the origin and n + 3 random sites."""
    pts = [(0.0, 0.0)] + [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in range(spec.n + 3)]
    return General([[math.hypot(a[0] - b[0], a[1] - b[1]) for b in pts] for a in pts])


class Family(NamedTuple):
    space: type  # the space class, whose ``kind`` is the family name
    draw: Callable  # (rng, spec) -> a random space of the family
    closed: float  # robustness ceilings per variant
    open: float


FAMILIES = {
    "line": Family(Line, lambda rng, spec: Line(), 2.5, 3.0 - 1.0 / 3.0),
    "euclid2d": Family(Euclid2D, lambda rng, spec: Euclid2D(), 2.5, 3.0 - 1.0 / 6.0),
    "tree": Family(Tree, _random_tree, 2.5, 3.0 - 1.0 / 3.0),
    "ring": Family(Ring, lambda rng, spec: Ring(float(rng.uniform(0.5, 2.0))), 2.75, 3.0 - 1.0 / 6.0),
    "flower": Family(Flower, _random_flower, 2.75, 3.0 - 1.0 / 6.0),
    "general": Family(General, _random_general, 2.75, 3.0 - 1.0 / 6.0),
}


def ceiling(family: str, variant: str) -> float:
    """The robustness ceiling of a space family and variant."""
    row = FAMILIES[family]
    return row.closed if variant == "closed" else row.open


# sweep fields checked by ``SweepSpec.from_json``: integers with their
# minimum, and fields with a fixed set of values
_SPEC_MINIMUM = {"count": 0, "n": 0, "seed": 0, "leaves": 1, "petals": 1}
_SPEC_CHOICES = {
    "space": tuple(FAMILIES),
    "variant": ("closed", "open"),
    "algo": ("la-swag", "swag"),
    "oracle": ("auto", *ORACLES),
}


@dataclass
class SweepSpec:
    space: str = "ring"
    count: int = 50
    n: int = 6
    seed: int = 0
    variant: str = "closed"
    algo: str = "la-swag"
    oracle: str = "auto"
    eta: list = field(default_factory=lambda: [0.0])
    leaves: int = 4
    petals: int = 2
    breaking_rule: bool = True

    @staticmethod
    def from_json(obj: dict) -> "SweepSpec":
        """Build a spec from decoded JSON.  A field that is unknown, of the
        wrong type or out of range raises ``ValueError`` naming it."""
        if not isinstance(obj, dict):
            raise ValueError("a sweep spec is a JSON object")
        spec = SweepSpec()
        for k, v in obj.items():
            if k in _SPEC_MINIMUM:
                if type(v) is not int or v < _SPEC_MINIMUM[k]:
                    raise ValueError(
                        f"sweep field {k!r} must be an integer >= {_SPEC_MINIMUM[k]}, got {v!r}")
            elif k in _SPEC_CHOICES:
                if v not in _SPEC_CHOICES[k]:
                    raise ValueError(
                        f"sweep field {k!r} must be one of {list(_SPEC_CHOICES[k])}, got {v!r}")
            elif k == "eta":
                v = v if isinstance(v, list) else [v]
                if not v or not all(type(e) in (int, float) and math.isfinite(e) and e >= 0 for e in v):
                    raise ValueError(
                        f"sweep field 'eta' must be a finite number >= 0 or a list of them, got {obj[k]!r}")
                v = [float(e) for e in v]
            elif k == "breaking_rule":
                if not isinstance(v, bool):
                    raise ValueError(
                        f"sweep field 'breaking_rule' must be true or false, got {v!r}")
            else:
                raise ValueError(f"unknown sweep field {k!r}")
            setattr(spec, k, v)
        if spec.oracle != "auto" and not issubclass(FAMILIES[spec.space].space, ORACLES[spec.oracle][1]):
            raise ValueError(f"sweep field 'oracle': {spec.oracle!r} does not run on {spec.space!r} spaces")
        if spec.algo == "swag" and any(spec.eta):
            raise ValueError(f"sweep field 'algo': 'swag' needs perfect predictions (eta 0), got eta {spec.eta}")
        return spec


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate_one(spec: SweepSpec, idx: int) -> Instance:
    rng = np.random.default_rng([spec.seed, idx])
    space = FAMILIES[spec.space].draw(rng, spec)
    n = int(rng.integers(0, spec.n + 1)) if spec.n > 0 else 0
    if spec.count == 1:
        n = spec.n
    locs = [space.random_point(rng) for _ in range(n)]
    diam = max((2.0 * space.distance(space.origin(), x) for x in locs), default=1.0)
    rels = [float(rng.uniform(0, 2.0 * max(diam, DIAMETER_FLOOR))) for _ in range(n)]
    reqs = [Request(i, locs[i], rels[i]) for i in range(n)]
    return Instance(space, reqs, list(locs), spec.variant)


def generate(spec: SweepSpec) -> list[Instance]:
    return [generate_one(spec, idx) for idx in range(spec.count)]


# ---------------------------------------------------------------------------
# Prediction perturbation
# ---------------------------------------------------------------------------

class EtaUnreachable(ValueError):
    """Predictions cannot be displaced to the ``target`` error; ``achieved``
    is the error reached instead, or None when every request is at the
    origin (the error's denominator F is 0)."""

    def __init__(self, target: float, achieved: float | None):
        super().__init__(target, achieved)
        self.target = target
        self.achieved = achieved

    def __str__(self) -> str:
        if self.achieved is None:
            return "target error unreachable: all requests at the origin"
        return f"target error {self.target} unreachable on this space (got {self.achieved:.4g})"


def perturb_predictions(instance: Instance, target_eta: float, rng=None,
                        clip: bool = False, F: float | None = None) -> Instance:
    """Displace predictions along geodesics so the realized error matches
    the target (exactly when the geometry permits, within ``ETA_BAND`` always).

    With ``clip=True`` a capped space yields the largest achievable error
    instead of raising :class:`EtaUnreachable`.  ``F`` is the instance's
    shortest serving path length, computed here unless the caller holds it.
    """
    if not 0 <= target_eta < math.inf:
        raise ValueError(f"target error must be finite and nonnegative, got {target_eta}")
    if F is not None:
        check_path_length(F)
    if target_eta == 0 or instance.n == 0:
        return instance.perfect()
    rng = np.random.default_rng(0) if rng is None else rng
    if F is None:
        F = shortest_serving_path_length(instance)
    if F <= TIE:
        raise EtaUnreachable(target_eta, None)
    space = instance.space
    delta = target_eta * F
    xs = instance.locations()
    weights = np.asarray(rng.uniform(0.5, 1.0, instance.n))
    want = (delta * weights / weights.sum()).tolist()
    anchors = [space.far_point(x, w + 1.0, rng) for x, w in zip(xs, want)]
    # each request moves at most to its anchor; waterfill the residual over
    # the requests below that cap
    caps = [space.distance(x, a) for x, a in zip(xs, anchors)]
    dist = [min(w, c) for w, c in zip(want, caps)]
    for _ in range(4):
        residual = delta - sum(dist)
        if residual <= TIE:
            break
        slack = [i for i in range(instance.n) if caps[i] - dist[i] > TIE]
        if not slack:
            break
        share = residual / len(slack)
        for i in slack:
            dist[i] = min(caps[i], dist[i] + share)
    preds = [
        space.move_along(x, a, d) if d > 0 else x
        for x, a, d in zip(xs, anchors, dist)
    ]
    out = instance.with_predictions(preds)
    achieved = prediction_error(out, F)
    if not clip and not ((1 - ETA_BAND) * target_eta <= achieved <= (1 + ETA_BAND) * target_eta):
        raise EtaUnreachable(target_eta, achieved)
    return out


def adversarial_predictions(instance: Instance, rng) -> Instance:
    """An unbounded-error random perturbation for robustness stressing."""
    if instance.n == 0:
        return instance
    target = float(np.exp(rng.uniform(np.log(0.05), np.log(6.0))))
    try:
        return perturb_predictions(instance, target, rng, clip=True)
    except ValueError:
        return instance.perfect()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "instance_id", "space", "variant", "n", "eta",
    "alg", "opt", "ratio", "oracle_batch_sizes", "wall_time",
]


@dataclass
class SweepRow:
    instance_id: str
    space: str
    variant: str
    n: int
    eta: float
    alg: float
    opt: float
    ratio: float
    oracle_batch_sizes: str
    wall_time: float

    def csv(self) -> str:
        return ",".join(
            [
                self.instance_id, self.space, self.variant, str(self.n),
                f"{self.eta:.9g}", f"{self.alg:.9g}", f"{self.opt:.9g}",
                f"{self.ratio:.9g}", self.oracle_batch_sizes, f"{self.wall_time:.4f}",
            ]
        )


def run_one(instance: Instance, spec: SweepSpec, instance_id: str, eta: float, opt: float) -> SweepRow:
    config = EngineConfig(oracle=spec.oracle, breaking_rule=spec.breaking_rule)
    t0 = time.perf_counter()
    result, policy = (swag if spec.algo == "swag" else la_swag)(instance, config)
    batches = ";".join(str(b.batch_size) for b in policy.oracle.batches)
    wall = time.perf_counter() - t0
    ratio = result.completion_time / opt if opt > TIE else 1.0
    return SweepRow(
        instance_id, spec.space, instance.variant, instance.n, eta,
        result.completion_time, opt, ratio, batches, wall,
    )


def _sweep_item(args: tuple[SweepSpec, int]) -> tuple[list[SweepRow], list[str], list[str]]:
    spec, idx = args
    inst = generate_one(spec, idx)
    rows: list[SweepRow] = []
    violations: list[str] = []
    skipped: list[str] = []
    try:
        opt = opt_bruteforce(inst).length
    except SizeCapExceeded as exc:
        return rows, violations, [f"{spec.space}-{idx}: {exc}"]
    # perturbation moves predictions only, so one F serves every eta
    F = shortest_serving_path_length(inst) if any(spec.eta) else None
    for eta in spec.eta:
        rng = np.random.default_rng([spec.seed, idx, int(round(eta * 1e6))])
        try:
            trial = perturb_predictions(inst, eta, rng, F=F)
        except ValueError as exc:
            skipped.append(f"{spec.space}-{idx}@{eta}: {exc}")
            continue
        achieved = prediction_error(trial, F)
        try:
            row = run_one(trial, spec, f"{spec.space}-{idx}", achieved, opt)
        except SizeCapExceeded as exc:  # the policy's oracle is capped too
            return [], [], [f"{spec.space}-{idx}: {exc}"]
        rows.append(row)
        bound = min(1.5 + 5.0 * achieved, ceiling(spec.space, spec.variant)) + SWEEP_SLACK
        if row.ratio > bound:
            violations.append(
                f"{row.instance_id}@eta={achieved:.4g}: ratio {row.ratio:.6f} > {bound:.6f}"
            )
    return rows, violations, skipped


def sweep(spec: SweepSpec, jobs: int = 1) -> tuple[list[SweepRow], list[str], list[str]]:
    """Run the sweep, optionally over a process pool.  Rows come back
    sorted by instance id, so the report is identical for any pool size."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    items = [(spec, idx) for idx in range(spec.count)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_item, items))
    else:
        results = [_sweep_item(item) for item in items]
    rows: list[SweepRow] = []
    violations: list[str] = []
    skipped: list[str] = []
    for r, v, s in results:
        rows += r
        violations += v
        skipped += s
    rows.sort(key=lambda r: (r.instance_id, r.eta))
    return rows, violations, skipped


def write_report(rows: list[SweepRow], violations: list[str], path: str,
                 skipped: list[str] = ()) -> None:
    buckets: dict[float, float] = {}
    for r in rows:
        key = round(r.eta, 6)
        buckets[key] = max(buckets.get(key, 0.0), r.ratio)
    lines = [",".join(CSV_COLUMNS)]
    lines += [r.csv() for r in rows]
    lines.append("# summary: max ratio per eta bucket")
    for key in sorted(buckets):
        lines.append(f"# eta={key:.6g} max_ratio={buckets[key]:.9g}")
    lines.append(f"# violations: {len(violations)}")
    lines += [f"# violation: {v}" for v in violations]
    lines += [f"# skipped: {s}" for s in skipped]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + ".gnuplot", "w") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set xlabel 'eta'\nset ylabel 'ratio'\n"
            f"plot '{path}' every ::1 using 5:8 with points title 'ratio'\n"
        )
