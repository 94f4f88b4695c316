"""No module of the package checks anything with ``assert``: asserts vanish
under ``python -O``, so an argument check must raise."""
import ast
import pathlib

import oltsp

PACKAGE = pathlib.Path(oltsp.__file__).parent


def assert_lines(source: str) -> list[int]:
    """The line of each ``assert`` statement in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_is_reported():
    source = "def f(m):\n    assert m > 0, 'm'\n    if m > 1:\n        assert m\n    return 'assert'\n"
    assert assert_lines(source) == [2, 4]


def test_no_assert_in_the_package():
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in assert_lines(path.read_text())
    ]
    assert not offenders, offenders
