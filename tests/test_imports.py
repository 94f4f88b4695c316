"""No module of the package, no test module and no benchmark module
imports a name it never uses."""
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
