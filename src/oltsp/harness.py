"""Instance generation, prediction perturbation to a target error, ratio
sweeps with guarantee checking, and CSV reports."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import Instance, Request, prediction_error
from .engine import EngineConfig, la_swag, swag
from .offline import SizeCapExceeded, opt_bruteforce, shortest_serving_path_length
from .oracles import ORACLES
from .spaces import Euclid2D, Flower, General, Line, Ring, Space, Tree
from .tolerance import DIAMETER_FLOOR, SWEEP_SLACK, TIE

# family name -> space class
SPACE_FAMILIES = {
    "line": Line, "euclid2d": Euclid2D, "tree": Tree, "ring": Ring, "flower": Flower, "general": General,
}

# robustness ceilings per space family and variant
def ceiling(family: str, variant: str) -> float:
    tree_like = family in ("line", "tree")
    if variant == "closed":
        return 2.5 if tree_like or family == "euclid2d" else 2.75
    return 3.0 - (1.0 / 3.0 if tree_like else 1.0 / 6.0)


# sweep fields checked by ``SweepSpec.from_json``: integers with their
# minimum, and fields with a fixed set of values
_SPEC_MINIMUM = {"count": 0, "n": 0, "seed": 0, "leaves": 1, "petals": 1}
_SPEC_CHOICES = {
    "space": tuple(SPACE_FAMILIES),
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
                if not all(type(e) in (int, float) and math.isfinite(e) and e >= 0 for e in v):
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
        if spec.oracle != "auto" and not issubclass(SPACE_FAMILIES[spec.space], ORACLES[spec.oracle][1]):
            raise ValueError(f"sweep field 'oracle': {spec.oracle!r} does not run on {spec.space!r} spaces")
        if spec.algo == "swag" and any(spec.eta):
            raise ValueError(f"sweep field 'algo': 'swag' needs perfect predictions (eta 0), got eta {spec.eta}")
        return spec


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _random_tree(rng, max_leaves: int) -> Tree:
    edges = []
    nodes = [0]
    leaves: set[int] = set()
    for _ in range(int(rng.integers(1, 7))):
        if len(leaves) >= max_leaves:
            parent = int(rng.choice(sorted(leaves)))
        else:
            parent = int(rng.choice(nodes))
        child = len(nodes)
        edges.append((parent, child, float(rng.uniform(0.2, 2.0))))
        leaves.discard(parent)
        leaves.add(child)
        nodes.append(child)
    return Tree(edges)


def _random_space(family: str, spec: SweepSpec, rng) -> Space:
    if family == "line":
        return Line()
    if family == "euclid2d":
        return Euclid2D()
    if family == "ring":
        return Ring(float(rng.uniform(0.5, 2.0)))
    if family == "tree":
        return _random_tree(rng, spec.leaves)
    if family == "flower":
        p = int(rng.integers(1, spec.petals + 1))
        petals = tuple(float(rng.uniform(0.5, 1.5)) for _ in range(p))
        stem = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.7 else 0.0
        return Flower(petals, stem)
    if family == "general":
        k = spec.n + 3
        pts = [(0.0, 0.0)] + [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in range(k)]
        mat = [[math.hypot(a[0] - b[0], a[1] - b[1]) for b in pts] for a in pts]
        return General(mat)
    raise ValueError(family)


def _random_point(space: Space, rng):
    if isinstance(space, Line):
        return float(rng.uniform(-2, 2))
    if isinstance(space, Euclid2D):
        return (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    if isinstance(space, Ring):
        return float(rng.uniform(0, space.circumference))
    if isinstance(space, Tree):
        ei = int(rng.integers(0, len(space.edges)))
        return space.canon((ei, float(rng.uniform(0, space.edges[ei][2]))))
    if isinstance(space, Flower):
        comps = list(range(len(space.petals)))
        weights = [space.petals[k] for k in comps]
        if space.stem > 0:
            comps.append("stem")
            weights.append(space.stem)
        total = sum(weights)
        c = comps[int(rng.choice(len(comps), p=[w / total for w in weights]))]
        ln = space.stem if c == "stem" else space.petals[c]
        return space.canon((c, float(rng.uniform(0, ln))))
    if isinstance(space, General):
        return int(rng.integers(0, space.n))
    raise ValueError(space)


def generate_one(spec: SweepSpec, idx: int) -> Instance:
    rng = np.random.default_rng([spec.seed, idx])
    space = _random_space(spec.space, spec, rng)
    n = int(rng.integers(0, spec.n + 1)) if spec.n > 0 else 0
    if spec.count == 1:
        n = spec.n
    locs = [_random_point(space, rng) for _ in range(n)]
    diam = max((2.0 * space.distance(space.origin(), x) for x in locs), default=1.0)
    rels = [float(rng.uniform(0, 2.0 * max(diam, DIAMETER_FLOOR))) for _ in range(n)]
    reqs = [Request(i, locs[i], rels[i]) for i in range(n)]
    return Instance(space, reqs, list(locs), spec.variant)


def generate(spec: SweepSpec) -> list[Instance]:
    return [generate_one(spec, idx) for idx in range(spec.count)]


# ---------------------------------------------------------------------------
# Prediction perturbation
# ---------------------------------------------------------------------------

def _far_anchor(space: Space, x, needed: float, rng):
    """A point at distance >= min(needed, cap) from x, with that cap."""
    if isinstance(space, Line):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return x + sign * (needed + 1.0), math.inf
    if isinstance(space, Euclid2D):
        ang = float(rng.uniform(0, 2 * math.pi))
        r = needed + 1.0
        return (x[0] + r * math.cos(ang), x[1] + r * math.sin(ang)), math.inf
    if isinstance(space, Ring):
        anchor = space.canon(x + space.circumference / 2.0)
        return anchor, space.circumference / 2.0
    if isinstance(space, Tree):
        best, bd = None, -1.0
        for v in range(space.n_nodes):
            if math.isinf(space.depth(v)):
                continue
            d = space.distance(x, space.node_point(v))
            if d > bd:
                best, bd = space.node_point(v), d
        for ei, (u, v, ln) in enumerate(space.edges):
            if math.isinf(ln):
                p = (ei, space.distance(x, space.node_point(u)) + needed + 1.0)
                return p, math.inf
        return best, bd
    if isinstance(space, Flower):
        cands = []
        if space.stem > 0:
            cands.append(("stem", space.stem))
        for k, ln in enumerate(space.petals):
            cands.append(space.canon((k, (x[1] + ln / 2.0) % ln)) if x[0] == k else (k, ln / 2.0))
        best = max(cands, key=lambda c: space.distance(x, c))
        return best, space.distance(x, best)
    if isinstance(space, General):
        best = max(range(space.n), key=lambda s: space.distance(x, s))
        return best, space.distance(x, best)
    raise ValueError(space)


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
                        clip: bool = False) -> Instance:
    """Displace predictions along geodesics so the realized error matches
    the target (exactly when the geometry permits, within 5% always).

    With ``clip=True`` a capped space yields the largest achievable error
    instead of raising :class:`EtaUnreachable`.
    """
    if target_eta < 0:
        raise ValueError("target error must be nonnegative")
    if target_eta == 0 or instance.n == 0:
        return instance.perfect()
    rng = np.random.default_rng(0) if rng is None else rng
    F = shortest_serving_path_length(instance)
    if F <= TIE:
        raise EtaUnreachable(target_eta, None)
    space = instance.space
    delta = target_eta * F
    xs = instance.locations()
    weights = np.asarray(rng.uniform(0.5, 1.0, instance.n))
    want = (delta * weights / weights.sum()).tolist()
    anchors, caps = [], []
    for x, w in zip(xs, want):
        a, cap = _far_anchor(space, x, w + 1.0, rng)
        anchors.append(a)
        caps.append(min(cap, space.distance(x, a)))
    # waterfill the residual over uncapped requests
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
    achieved = prediction_error(out)
    if not clip and not (0.95 * target_eta <= achieved <= 1.05 * target_eta):
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
    for eta in spec.eta:
        rng = np.random.default_rng([spec.seed, idx, int(round(eta * 1e6))])
        try:
            trial = perturb_predictions(inst, eta, rng)
        except ValueError as exc:
            skipped.append(f"{spec.space}-{idx}@{eta}: {exc}")
            continue
        achieved = prediction_error(trial)
        row = run_one(trial, spec, f"{spec.space}-{idx}", achieved, opt)
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
