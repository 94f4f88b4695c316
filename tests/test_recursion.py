"""No function of the package calls itself: a recursion as deep as a tree
overflows Python's stack on a long path."""
import ast
import pathlib

import oltsp

PACKAGE = pathlib.Path(oltsp.__file__).parent


def self_calls(source: str) -> list[str]:
    """``line: name`` for each function whose body calls it by its own
    name, or, in a method, as ``self.name`` or ``cls.name``."""
    tree = ast.parse(source)
    methods = {id(f) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for f in node.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if id(fn) in methods:
                hit = (isinstance(f, ast.Attribute) and f.attr == fn.name
                       and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))
            else:
                hit = isinstance(f, ast.Name) and f.id == fn.name
            if hit:
                found.append(f"{fn.lineno}: {fn.name}")
                break
    return found


def test_self_call_is_reported():
    source = (
        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
        "class T:\n"
        "    def depth(self, v):\n        return 0 if v == 0 else self.depth(v - 1) + 1\n"
        "    def walk(self, other):\n        return other.walk(self)\n"
        "def outer(x):\n    def inner(y):\n        return inner(y)\n    return outer\n"
    )
    assert self_calls(source) == ["1: fact", "4: depth", "9: inner"]


def test_no_function_calls_itself():
    offenders = [
        f"{path.name}:{entry}"
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in self_calls(path.read_text())
    ]
    assert not offenders, offenders
