"""The package keeps only what the mapper and the benchmark run.

Every module-level function and class in src/sketchmap must be loaded by
name, as a variable or an attribute, somewhere in src/ or perfbench/
outside its own definition.  What only tests call lives in tests/util_*.py.
Names are matched without regard to module, so this finds a definition
that nothing reads under any name, not every unused one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unread_definitions(root: Path = ROOT) -> list[str]:
    """Names of module-level functions and classes under
    root/src/sketchmap that no code under root/src or root/perfbench
    loads, outside their own definitions."""
    package = root / "src" / "sketchmap"
    defined: set[str] = set()
    loaded: set[str] = set()
    for top in (root / "src", root / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                names = set()
                for n in ast.walk(stmt):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                        names.add(n.id)
                    elif isinstance(n, ast.Attribute):
                        names.add(n.attr)
                if isinstance(stmt, _DEFS):
                    names.discard(stmt.name)
                    if package in path.parents:
                        defined.add(stmt.name)
                loaded |= names
    return sorted(defined - loaded)


def test_every_package_definition_is_read():
    assert unread_definitions() == []


def test_an_unread_definition_is_listed(tmp_path):
    pkg = tmp_path / "src" / "sketchmap"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Lonely:\n    pass\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "from sketchmap import a\n\nprint(a.Lonely)\n")
    assert unread_definitions(tmp_path) == ["recursive"]
