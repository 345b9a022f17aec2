"""src/prnls holds production code only.

Every top-level function, class, method and property there must be reached
from src/prnls itself, by a bare name or an attribute name outside its own
definition, or be exported by prnls.__all__. Code that only tests call
belongs in tests/. Dunder methods and overrides of a base-class method are
exempt: Python or the base class calls them.

numpy is the package's only dependency: no module there imports scipy, which
only the tests use. A module-level name is assigned in one module only; the
others import it, so a constant cannot drift between two copies. Only spectral
and cli lift a block field to the full grid (EvenBlock.lift), so no solver
module grows a full-grid path back, and only spectral names EvenBlock, so the
choice between the full grid and the even block stays in that one module.
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


def modules_referencing(name: str, src=SRC):
    """Modules of src that use name as a bare name or an attribute name."""
    return [path.stem for path in sorted(src.glob("*.py"))
            if _references(ast.parse(path.read_text()))[name]]


def test_only_spectral_and_cli_lift_to_the_full_grid():
    assert [m for m in modules_referencing("lift") if m not in ("spectral", "cli")] == []


def test_only_spectral_names_the_even_block_type():
    assert [m for m in modules_referencing("EvenBlock") if m != "spectral"] == []


def test_the_lift_check_flags_a_call_not_a_word(tmp_path):
    (tmp_path / "calls.py").write_text("def f(block, u):\n    return block.lift(u)\n")
    (tmp_path / "says.py").write_text('"""Lifts nothing; lift_solution is another name."""\n'
                                      "def lift_solution(v):\n    return v\n")
    assert modules_referencing("lift", tmp_path) == ["calls"]


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
