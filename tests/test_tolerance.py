"""Every numeric tolerance in the package comes from ``oltsp.tolerance``."""
import pathlib
import re

import oltsp
from oltsp import tolerance

PACKAGE = pathlib.Path(oltsp.__file__).parent
BARE_LITERAL = re.compile(r"(?<![\w.])1(\.0*)?[eE]-0*\d+\b")
TOLERANCE_CONSTANT = re.compile(r"^\s*_?[A-Z0-9_]*(TOL|EPS|SNAP)[A-Z0-9_]*\s*(:[^=\n]*)?=(?!=)", re.M)


def test_tolerance_values():
    assert (tolerance.SNAP, tolerance.TIE, tolerance.FEAS) == (1e-12, 1e-12, 1e-9)
    assert (tolerance.SWEEP_SLACK, tolerance.STATIC_MARGIN, tolerance.ADAPTIVE_MARGIN) == (
        1e-6, 1e-6, 1e-4)
    assert (tolerance.DIAMETER_FLOOR, tolerance.ETA_BAND) == (1e-6, 0.05)


def test_no_tolerance_defined_outside_the_tolerance_module():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerance.py":
            continue
        text = path.read_text()
        for pattern in (BARE_LITERAL, TOLERANCE_CONSTANT):
            for m in pattern.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                offenders.append(f"{path.name}:{line}: {m.group(0).strip()}")
    assert not offenders, offenders
