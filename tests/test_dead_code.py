"""The package keeps only what the mapper and the benchmark run, and no
module imports what it does not use.

Every module-level function and class in src/sketchmap must be loaded by
name, as a variable or an attribute, somewhere in src/ or perfbench/
outside its own definition, and every method and property of its classes
must be read as an attribute, the only way Python reads one.  What only
tests call lives in tests/util_*.py.  Names are matched without regard
to module or class, so this finds a definition that nothing reads under
any name, not every unused one.  Every name a
module under src/ or tests/ imports must be loaded in that module.
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
                names = _names(stmt)
                if isinstance(stmt, _DEFS):
                    names.discard(stmt.name)
                    if package in path.parents:
                        defined.add(stmt.name)
                loaded |= names
    return sorted(defined - loaded)


def unread_methods(root: Path = ROOT) -> list[str]:
    """Class.name for each method and property of the classes under
    root/src/sketchmap that no code under root/src or root/perfbench
    reads as an attribute, outside the method itself: a variable of the
    same name does not read it.  Dunder methods, which Python calls, are
    not listed."""
    package = root / "src" / "sketchmap"
    defined: set[str] = set()
    named: set[str] = set()
    for top in (root / "src", root / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text())
            inside: set[int] = set()
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for fn in cls.body:
                    if not isinstance(fn, _DEFS[:2]) or \
                            fn.name.startswith("__"):
                        continue
                    if package in path.parents:
                        defined.add(f"{cls.name}.{fn.name}")
                    named |= _attributes(fn) - {fn.name}
                    inside |= {id(n) for n in ast.walk(fn)}
            named |= _attributes(tree, skip=inside)
    return sorted(d for d in defined if d.split(".")[1] not in named)


def _names(tree: ast.AST) -> set[str]:
    """Every variable and attribute name tree loads."""
    return _attributes(tree) | {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _attributes(tree: ast.AST, skip: set[int] = frozenset()) -> set[str]:
    """Every attribute name tree loads, leaving out the nodes whose ids
    are in skip."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and id(n) not in skip}


def unused_imports(root: Path = ROOT) -> list[str]:
    """"module: name" for each name an import binds in a module under
    root/src or root/tests that the module never loads.  Package
    __init__ files, which import to re-export, names in a module's
    __all__ and __future__ features are not listed."""
    out = []
    for top in (root / "src", root / "tests"):
        for path in sorted(top.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            bound: set[str] = set()
            exported: set[str] = set()
            for n in ast.walk(tree):
                if isinstance(n, ast.Import) or (
                        isinstance(n, ast.ImportFrom)
                        and n.module != "__future__"):
                    bound |= {a.asname or a.name.split(".")[0]
                              for a in n.names}
                elif isinstance(n, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in n.targets):
                    exported |= {e.value for e in ast.walk(n.value)
                                 if isinstance(e, ast.Constant)}
            loaded = {n.id for n in ast.walk(tree)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            out += [f"{path.stem}: {name}"
                    for name in sorted(bound - loaded - exported)]
    return out


def undefined_exports(root: Path = ROOT) -> list[str]:
    """"module: name" for each name in the __all__ of a module under
    root/src that the module neither defines, assigns nor imports."""
    out = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        exported: list[str] = []
        bound: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound |= {a.asname or a.name.split(".")[0]
                          for a in stmt.names}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if "__all__" in names:
                    exported += [e.value for e in ast.walk(stmt.value)
                                 if isinstance(e, ast.Constant)]
                bound |= names
        out += [f"{path.stem}: {name}" for name in exported
                if name not in bound]
    return out


def test_every_package_definition_is_read():
    assert unread_definitions() == []


def test_every_method_is_named():
    assert unread_methods() == []


def test_every_import_is_used():
    assert unused_imports() == []


def test_every_export_is_defined():
    assert undefined_exports() == []


def test_an_undefined_export_is_listed(tmp_path):
    pkg = tmp_path / "src" / "sketchmap"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "from os import sep\n\n__all__ = ['sep', 'Gone', 'TABLE', 'f', "
        "'Kept', 'later']\n\nTABLE: dict = {}\n\n\n"
        "def f():\n    return sep\n\n\nclass Kept:\n    pass\n")
    assert undefined_exports(tmp_path) == ["a: Gone", "a: later"]


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


def test_an_unread_method_and_an_unused_import_are_listed(tmp_path):
    pkg = tmp_path / "src" / "sketchmap"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (pkg / "a.py").write_text(
        "import os\nfrom sys import argv, path\n\n__all__ = ['path']\n\n\n"
        "class Box:\n    def __init__(self):\n        self.n = 0\n\n"
        "    def used(self):\n        return os.sep\n\n"
        "    def again(self, k):\n        return self.again(k - 1)\n\n"
        "    @property\n    def size(self):\n        return self.n\n\n"
        "    def spare(self):\n        return 0\n\n\n"
        "print(Box().used())\n")
    # a variable called spare, read but not as an attribute
    (tmp_path / "perfbench" / "run.py").write_text(
        "from sketchmap import a\n\nspare = a.Box().size\nprint(spare)\n")
    (tmp_path / "tests" / "test_a.py").write_text(
        "import json\nfrom sketchmap.a import Box\n\nBox()\n")
    assert unread_methods(tmp_path) == ["Box.again", "Box.spare"]
    assert unused_imports(tmp_path) == ["a: argv", "test_a: json"]
