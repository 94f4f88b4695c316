"""No module of the package, no test module and no benchmark module
imports a name it never uses, and no private function of the package is
left that only its own body (or a test) calls."""
import ast
import pathlib

import oltsp

PACKAGE = pathlib.Path(oltsp.__file__).parent
TESTS = pathlib.Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"  # read only


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each module-level import that nothing reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport json\nimport os.path\nx = os.path.sep\n"
    assert unused_imports(source) == ["2: json"]


def test_no_unused_module_level_import():
    # __init__.py imports names to re-export them; the acceptance tests
    # stay as they were written
    exempt = {PACKAGE / "__init__.py", TESTS / "test_acceptance.py"}
    paths = [path for folder in (PACKAGE, TESTS, PERFBENCH) for path in sorted(folder.glob("*.py"))]
    assert PERFBENCH / "run.py" in paths
    offenders = [
        f"{path.parent.name}/{path.name}:{entry}"
        for path in paths
        if path not in exempt
        for entry in unused_imports(path.read_text())
    ]
    assert not offenders, offenders


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """``file:line: name`` for each private (``_name``, not dunder)
    module-level function or method of a top-level class that no
    ``ast.Name`` or ``ast.Attribute`` outside its own ``def`` reads, over
    all of ``sources`` (file label to source text)."""
    defs, refs = [], {}
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            defs += [(f"{label}:{fn.lineno}: {owner}{fn.name}", fn) for fn in members
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and fn.name.startswith("_") and not fn.name.endswith("__")]
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, []).append(node)
    offenders = []
    for entry, fn in defs:
        own = {id(node) for node in ast.walk(fn)}
        if all(id(node) in own for node in refs.get(fn.name, ())):
            offenders.append(entry)
    return offenders


def test_unreferenced_private_def_is_reported():
    source = ("def _used():\n    return 1\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n\n"
              "class C:\n    def __init__(self):\n        self.x = _used()\n\n"
              "    def _helper(self):\n        pass\n\n"
              "    def _called(self):\n        pass\n\n"
              "    def run(self):\n        self._called()\n")
    assert unreferenced_private_defs({"m.py": source}) == ["m.py:4: _recursive", "m.py:11: C._helper"]


def test_every_private_function_is_called_in_the_package():
    # a private function that only its own test calls is dead code
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    offenders = unreferenced_private_defs(sources)
    assert not offenders, offenders
