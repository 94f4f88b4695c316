"""Command-line front end: validate spaces, run single instances, replay
fixtures, generate instance pools, and sweep ratios against the
guarantee ceilings.  Exit code 0 means no guarantee was violated."""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

from . import fixtures as fx
from .core import Instance
from .engine import EngineConfig, la_swag, swag
from .harness import SweepSpec, generate, sweep, write_report
from .offline import SizeCapExceeded, opt_bruteforce
from .oracles import ORACLES
from .spaces import space_from_json
from .tolerance import TIE


def _cmd_validate(args) -> int:
    try:
        with open(args.space) as fh:
            space = space_from_json(json.load(fh))
    except ValueError as exc:  # SpaceError and malformed JSON included
        return _input_error(exc)
    problems = space.validate()
    for p in problems:
        print(f"violation: {p}")
    if not problems:
        print("ok")
    return 1 if problems else 0


def _input_error(exc: Exception) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def _load_spec(path: str) -> SweepSpec:
    with open(path) as fh:
        return SweepSpec.from_json(json.load(fh))


def _cmd_run(args) -> int:
    try:
        with open(args.instance) as fh:
            inst = Instance.from_json(json.load(fh))
    except ValueError as exc:  # SpaceError and malformed JSON included
        return _input_error(exc)
    if args.variant:
        inst = Instance(inst.space, inst.requests, inst.predictions, args.variant)
    config = EngineConfig(oracle=args.oracle, breaking_rule=args.breaking_rule == "on")
    try:
        result, policy = (swag if args.algo == "swag" else la_swag)(inst, config)
    except ValueError as exc:  # imperfect predictions for swag, an oracle the space does not take
        return _input_error(exc)
    if args.dump_batches:
        print(policy.oracle.dump_batches())
    print(f"completion_time: {result.completion_time:.9g}")
    try:
        opt = opt_bruteforce(inst).length
    except SizeCapExceeded:  # no exact optimum at this size, so no ratio
        pass
    else:
        print(f"opt: {opt:.9g}\nratio: {result.completion_time / opt if opt > TIE else 1.0:.9g}")
    if args.trajectory:
        with open(args.trajectory, "w") as fh:
            fh.write(result.to_csv())
        print(f"trajectory written to {args.trajectory}")
    return 0


# fixture flag, its parsed attribute, the fixture keyword it sets
_FIXTURE_FLAGS = [("--eps", "eps", "eta"), ("--eta", "eta", "eta"), ("--lambda", "lam", "lam")]


def _fixture_params(args) -> dict:
    """The fixture's keyword arguments from the flags given; a flag the
    fixture does not take raises ValueError naming it."""
    takes = inspect.signature(fx.FIXTURES[args.id]).parameters
    params = {}
    for flag, attr, key in _FIXTURE_FLAGS:
        value = getattr(args, attr)
        if value is None:
            continue
        if key not in takes:
            raise ValueError(f"fixture {args.id!r} takes no {flag}")
        if attr == "eps":  # the graph fixture is parameterized by the error level
            value = value / (2 - value) if value != 2 else math.inf
        params[key] = value
    return params


def _cmd_fixture(args) -> int:
    try:
        report = fx.run_fixture(args.id, **_fixture_params(args))
    except ValueError as exc:  # a flag the fixture does not take, or a value it cannot use
        return _input_error(exc)
    print(
        f"{report.fixture} params={report.params} alg={report.alg:.9g} "
        f"opt={report.opt:.9g} ratio={report.ratio:.9g} "
        f"expected{report.comparison}{report.expected:.9g} "
        f"{'PASS' if report.passed else 'FAIL'}"
    )
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    try:
        spec = _load_spec(args.spec)
    except ValueError as exc:
        return _input_error(exc)
    rows, violations, skipped = sweep(spec, jobs=args.jobs)
    out = args.output or "sweep.csv"
    write_report(rows, violations, out, skipped)
    worst = max((r.ratio for r in rows), default=0.0)
    print(f"{len(rows)} rows -> {out}; worst ratio {worst:.6f}; "
          f"{len(violations)} violations; {len(skipped)} skipped")
    for v in violations:
        print(f"violation: {v}")
    return 1 if violations else 0


def _cmd_gen(args) -> int:
    try:
        spec = _load_spec(args.spec)
    except ValueError as exc:
        return _input_error(exc)
    os.makedirs(args.output, exist_ok=True)
    for idx, inst in enumerate(generate(spec)):
        path = os.path.join(args.output, f"{spec.space}-{idx:04d}.json")
        with open(path, "w") as fh:
            json.dump(inst.to_json(), fh, indent=1, sort_keys=True)
    print(f"{spec.count} instances written to {args.output}")
    return 0


def _jobs(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oltsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a space descriptor")
    p.add_argument("space")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run one instance")
    p.add_argument("instance")
    p.add_argument("--algo", choices=["la-swag", "swag"], default="la-swag")
    p.add_argument("--oracle", choices=["auto", *ORACLES], default="auto")
    p.add_argument("--variant", choices=["open", "closed"], default=None)
    p.add_argument("--breaking-rule", choices=["on", "off"], default="on",
                   help="LA-SWAG's breaking rule; swag always runs with it off")
    p.add_argument("--trajectory", help="write the event log as CSV")
    p.add_argument("--dump-batches", action="store_true", help="print each oracle batch")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fixture", help="replay a named scenario")
    p.add_argument("id", choices=sorted(fx.FIXTURES))
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--lambda", "--lam", dest="lam", type=float, default=None)
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("sweep", help="run a ratio sweep from a spec file")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("-j", "--jobs", type=_jobs, default=1, help="worker processes, at least 1")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen", help="generate instance files from a spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default="instances")
    p.set_defaults(func=_cmd_gen)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an input file that cannot be read, an output path that cannot be written
        return _input_error(exc)


if __name__ == "__main__":
    sys.exit(main())
