"""No module of the package, no test module and no benchmark module
imports a name it never uses; no private function of the package is
left that only its own body (or a test) calls; and no public function,
class or method of the package is left that only tests read, unless the
package exports it or an acceptance criterion reads it."""
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


# public names that only an acceptance test reads: the criteria are the spec
READ_BY_ACCEPTANCE = {
    "adversarial_predictions": "criterion 3",
    "route_stats": "criteria 6 and 10",
    "alpha_released": "criteria 6 and 10",
    "maximal_nodes": "criterion 7",
    "scaled": "criterion 10",
}


def unread_public_defs(sources: dict[str, str], readers: dict[str, str], allowed) -> list[str]:
    """``file:line: name`` for each public module-level function or class,
    or public method of a top-level class, in ``sources`` (file label to
    source text) that is neither imported by ``__init__.py`` nor in
    ``allowed`` and that nothing reads outside its own definition, over
    ``sources`` and ``readers``: no ``ast.Attribute`` and no string
    constant in ``readers`` (a benchmark's tracer names what it patches by
    string), and for a module-level def no bare ``ast.Name`` either.  A
    bare name never reads a method: a local variable of the same name
    would hide it."""
    exempt = set(allowed) | {alias.asname or alias.name for node in ast.walk(ast.parse(sources.get("__init__.py", "")))
                             if isinstance(node, ast.ImportFrom) for alias in node.names}
    defs, refs = [], {}
    for in_package, texts in ((True, sources), (False, readers)):
        for label, source in texts.items():
            tree = ast.parse(source)
            for node in tree.body if in_package else ():
                members = [node, *node.body] if isinstance(node, ast.ClassDef) else [node]
                owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
                defs += [(f"{label}:{d.lineno}: {owner if d is not node else ''}{d.name}", d, d is not node)
                         for d in members
                         if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                         and not d.name.startswith("_") and d.name not in exempt]
            for node in ast.walk(tree):
                name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                        else node.value if not in_package and isinstance(node, ast.Constant) else None)
                if isinstance(name, str):
                    refs.setdefault(name, []).append(node)
    offenders = []
    for entry, d, method in defs:
        own = {id(node) for node in ast.walk(d)}
        if all(id(node) in own or method and isinstance(node, ast.Name) for node in refs.get(d.name, ())):
            offenders.append(entry)
    return offenders


def test_unread_public_def_is_reported():
    source = ("def unread():\n    return Kept()\n\n"
              "def exported():\n    pass\n\n"
              "def adversarial_predictions():\n    pass\n\n"
              "class Kept:\n    def run(self):\n        return self.step()\n\n"
              "    def step(self):\n        return Kept\n\n"
              "    def traced(self):\n        pass\n\n"
              "    def shadowed(self):\n        pass\n\n"
              "class TestsOnly:\n    def __init__(self):\n        self.me = TestsOnly\n")
    sources = {"__init__.py": "from .m import exported\n", "m.py": source}
    readers = {"bench.py": "from m import Kept\nKept().run()\nPATCHED = ('m', 'Kept', 'traced')\n"
                           "shadowed = Kept.run\nprint(shadowed)\n"}
    # nothing reads unread; only its own body reads TestsOnly, since the
    # tests that would read it are no readers; a local variable is no
    # reader of the method it shares a name with
    assert unread_public_defs(sources, readers, READ_BY_ACCEPTANCE) == [
        "m.py:1: unread", "m.py:20: Kept.shadowed", "m.py:23: TestsOnly"]


def test_every_public_function_has_a_reader():
    # a public function, class or method that only tests read is dead
    # code, unless the package exports it or an acceptance criterion reads it
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = {path.name: path.read_text() for path in sorted(PERFBENCH.glob("*.py"))
               if not path.name.startswith("test_")}  # a test is no reader
    offenders = unread_public_defs(sources, readers, READ_BY_ACCEPTANCE)
    assert not offenders, offenders
