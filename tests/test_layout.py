"""src/prnls holds production code only.

Every top-level function, class, method and property there must be reached
from src/prnls itself, by a bare name or an attribute name outside its own
definition, or be exported by prnls.__all__. Code that only tests call
belongs in tests/. Dunder methods and overrides of a base-class method are
exempt: Python or the base class calls them.

numpy is the package's only dependency: no module there imports scipy, which
only the tests use. A module-level name is assigned in one module only; the
others import it, so a constant cannot drift between two copies.
"""

import ast
import importlib
import pathlib
from collections import Counter

import prnls

SRC = pathlib.Path(prnls.__file__).parent


def _definitions(tree):
    """(qualified name, node, enclosing class name or None) per top-level def, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{item.name}", item, node.name


def _references(node) -> Counter:
    """Bare names and attribute names used anywhere under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced(src=SRC, package="prnls", exported=frozenset(prnls.__all__)):
    """Qualified names of the definitions in src that nothing there reaches."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node, cls in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exported or total[name] > _references(node)[name]:
                continue
            if cls is not None:
                mro = getattr(importlib.import_module(f"{package}.{module}"), cls).__mro__
                if any(hasattr(base, name) for base in mro[1:]):
                    continue
            out.append(f"{module}.{qualname}")
    return out


def test_every_definition_in_src_is_reached_or_exported():
    assert unreferenced() == []


def imported_modules(src=SRC):
    """(module, imported name) for every import statement in src."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                out.extend((path.stem, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.append((path.stem, node.module))
    return out


def test_no_module_in_src_imports_scipy():
    assert [(m, name) for m, name in imported_modules()
            if name.split(".")[0] == "scipy"] == []


def assigned_names(src=SRC):
    """Module-level name -> sorted modules of src that assign it."""
    out = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out.setdefault(name.id, set()).add(path.stem)
    return {name: sorted(modules) for name, modules in out.items()}


def test_no_module_level_name_is_assigned_in_two_modules():
    assert {name: mods for name, mods in assigned_names().items() if len(mods) > 1} == {}


def test_the_check_flags_an_unreferenced_method(tmp_path, monkeypatch):
    (tmp_path / "layoutpkg").mkdir()
    (tmp_path / "layoutpkg" / "__init__.py").write_text("")
    (tmp_path / "layoutpkg" / "mod.py").write_text(
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        raise ValueError(message)\n"
        "class A:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return self.helper()\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def orphan():\n"
        "    return A().used(), P()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    found = unreferenced(tmp_path / "layoutpkg", "layoutpkg", frozenset())
    assert found == ["mod.A.unused", "mod.orphan"]
