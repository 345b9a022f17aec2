"""src/prnls holds production code only.

Every top-level function, class, method and property there must be reached
from src/prnls itself, by a bare name or an attribute name outside its own
definition, or be exported by prnls.__all__. Code that only tests call
belongs in tests/. Dunder methods and overrides of a base-class method are
exempt: Python or the base class calls them.

numpy is the package's only dependency: no module there imports scipy, which
only the tests use. A module-level name is assigned in one module only; the
others import it, so a constant cannot drift between two copies. Only spectral
lifts a block field to the full grid (write_field, which streams a block
field's dump as its lift), so no other module grows a full-grid path back,
and only spectral names EvenBlock, so the choice between the full grid and
the even block stays in that one module. Only params and cli use
PhysicalParams (prnls/__init__ only re-exports it): every solver and
diagnostic works in the reduced frame (m = 1/2, mu = 1), so the physical
frame has one way in. Only spectral indexes the orbit
tables (Orbits.reps and Orbits.expand, through EvenBlock.at_reps and
from_reps), so the orbit-vector layout has one home. Only cli checks the
construction's hypotheses (construction_precondition): the solvers run
whatever they are given, so the hypotheses have one gate. Only cli sets
numpy's error state (seterr), and only cli and fixed_point enter an errstate:
a run's float-range policy has one home, and solve's local over="ignore" is
the one kernel that overrides it. A function that
prnls.__all__ does not export has no parameter that every call in src sets
to one value, the default or one module constant: that value is a constant
of the function. Nor does it have a default that every call in src
overrides: only a test could take that default, so the test passes the
value itself (cli.main, the console entry point, is exempt from both).
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


def test_only_spectral_lifts_to_the_full_grid():
    assert [m for m in modules_referencing("lift") if m != "spectral"] == []


def test_only_spectral_names_the_even_block_type():
    assert [m for m in modules_referencing("EvenBlock") if m != "spectral"] == []


def test_only_params_and_cli_name_the_physical_parameters():
    # an import or an __all__ string is no use of the name, so __init__ is not listed
    assert modules_referencing("PhysicalParams") == ["cli", "params"]


def test_only_spectral_indexes_the_orbit_tables():
    # the other modules read and expand orbit vectors by EvenBlock.at_reps and
    # from_reps, and may read orbits.weights, the orbit quadrature
    for table in ("reps", "expand"):
        assert [m for m in modules_referencing(table) if m != "spectral"] == [], table


def test_only_cli_gates_on_the_construction_hypotheses():
    assert modules_referencing("construction_precondition") == ["cli"]


def test_the_float_policy_has_one_home():
    assert modules_referencing("seterr") == ["cli"]
    assert modules_referencing("errstate") == ["cli", "fixed_point"]


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


def _bound_names(node) -> set:
    """Names that node binds, as arguments or stores, in its own scope and the scopes in it."""
    return {sub.arg if isinstance(sub, ast.arg) else sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.arg)
            or isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load)}


def _module_names(tree) -> set:
    """Names a module binds at its top level: assignments, imports, functions and classes."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        else:
            out |= _bound_names(node)
    return out


def _fixed_value(expr, module_names, local):
    """ast.dump of expr if it is a literal or a module-level name or attribute, else None."""
    node = expr.operand if isinstance(expr, ast.UnaryOp) else expr
    if isinstance(node, ast.Constant):
        return ast.dump(expr)
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name) and node.id in module_names and node.id not in local:
        return ast.dump(expr)
    return None


def _called_name(node):
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


# what a call passes for a parameter when it passes nothing, and when it
# unpacks *args or **kwargs, so that any parameter may take its default
_OMITTED, _UNPACKED = object(), object()


def _call_sites(src, exported, exempt):
    """(qualified name, parameters, defaults, sites) per function the call checks cover.

    Covers the functions and methods of src that exported does not name and
    whose name is defined once there. A call site is a call by the bare name
    or the attribute name. A function whose name is also used other than as a
    call (passed to a pool or to functools.partial, say) has call sites src
    cannot see, and is skipped. defaults maps each parameter that has a
    default to _fixed_value of it; sites holds one {parameter: value} per call,
    where value is _fixed_value of what the call passes, _OMITTED or _UNPACKED.
    A value is fixed when it is a literal or a module-level name (or an
    attribute of one) that the calling scope does not rebind.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    found = {}
    for module, tree in trees.items():
        for qualname, node, cls in _definitions(tree):
            if not isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append((module, qualname, node, cls))
    functions = {}
    for name, defs in found.items():
        module, qualname, node, cls = defs[0]
        if len(defs) > 1 or name in exported or f"{module}.{qualname}" in exempt \
                or name.startswith("__") and name.endswith("__"):
            continue
        args = node.args.posonlyargs + node.args.args
        defaults = {a.arg: d for a, d in zip(args[::-1], node.args.defaults[::-1])}
        defaults.update({a.arg: d for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                         if d is not None})
        static = any(_called_name(d) == "staticmethod" for d in node.decorator_list)
        positional = [a.arg for a in args[1 if cls and not static else 0:]]
        functions[name] = (f"{module}.{qualname}", positional,
                           positional + [a.arg for a in node.args.kwonlyargs],
                           {k: _fixed_value(v, _module_names(trees[module]), set())
                            for k, v in defaults.items()}, [])

    escaped = set()
    for tree in trees.values():
        names = _module_names(tree)
        for top in tree.body:
            local = _bound_names(top) if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                          ast.ClassDef)) else set()
            calls = [sub for sub in ast.walk(top) if isinstance(sub, ast.Call)]
            callees = {id(call.func) for call in calls}
            escaped |= {_called_name(sub) for sub in ast.walk(top) if id(sub) not in callees}
            for call in calls:
                name = _called_name(call.func)
                if name not in functions:
                    continue
                _, positional, params, _, sites = functions[name]
                given = dict(zip(positional, call.args))
                given.update({k.arg: k.value for k in call.keywords})
                unpacked = any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords)
                sites.append({param: _UNPACKED if unpacked
                              else _fixed_value(given[param], names, local) if param in given
                              else _OMITTED for param in params})
    return [(qualname, params, defaults, sites) for name, (qualname, _, params, defaults, sites)
            in functions.items() if name not in escaped]


def constant_parameters(src=SRC, exported=frozenset(prnls.__all__),
                        exempt=frozenset({"cli.main"})):
    """"module.function(parameter)" for each parameter that every call in src sets to one value.

    Covers the functions _call_sites covers. A parameter a call leaves out
    takes its default; one a call unpacks has no fixed value.
    """
    out = []
    for qualname, params, defaults, sites in _call_sites(src, exported, exempt):
        for param in params:
            seen = {defaults.get(param) if site[param] is _OMITTED
                    else None if site[param] is _UNPACKED else site[param] for site in sites}
            if len(seen) == 1 and None not in seen:
                out.append(f"{qualname}({param})")
    return out


def unused_defaults(src=SRC, exported=frozenset(prnls.__all__), exempt=frozenset({"cli.main"})):
    """"module.function(parameter)" for each default that every call in src overrides.

    Covers the functions _call_sites covers that src calls at all. A call
    that unpacks *args or **kwargs may take any default.
    """
    return [f"{qualname}({param})" for qualname, params, defaults, sites
            in _call_sites(src, exported, exempt) if sites
            for param in params if param in defaults
            and all(site[param] is not _OMITTED and site[param] is not _UNPACKED
                    for site in sites)]


def test_no_parameter_takes_one_value_at_every_call_in_src():
    assert constant_parameters() == []


def test_the_constant_parameter_check_flags_a_default_or_constant_every_call_takes(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import math\n"
        "_LIMIT = 5\n"
        "def solve(x, limit, tol=1e-8, width=1.0):\n"
        "    return x\n"
        "def shadowed(x, n):\n"
        "    return x\n"
        "class A:\n"
        "    def step(self, k=2):\n"
        "        return k\n"
        "    def scale(self, by):\n"
        "        return by\n"
        "def passed(x, y=1):\n"
        "    return x\n"
        "def exported(x, y=1):\n"
        "    return x\n"
        "def main(argv=None):\n"
        "    return argv\n"
        "def run(x, eps):\n"
        "    a = A()\n"
        "    return (solve(x, _LIMIT), solve(x, _LIMIT, tol=eps), a.step(), a.step(3),\n"
        "            a.scale(by=-math.pi), list(map(passed, [x])), passed(x), exported(x))\n"
        "def again(x):\n"
        "    _LIMIT = x\n"
        "    return shadowed(x, _LIMIT), shadowed(x, _LIMIT), main()\n")
    flagged = ["mod.solve(limit)", "mod.solve(width)", "mod.A.scale(by)"]
    assert constant_parameters(tmp_path, frozenset({"exported"}), frozenset({"mod.main"})) \
        == flagged
    assert constant_parameters(tmp_path, frozenset({"exported"}), frozenset()) \
        == flagged + ["mod.main(argv)"]


def test_no_default_is_overridden_at_every_call_in_src():
    assert unused_defaults() == []


def test_the_unused_default_check_flags_a_default_every_call_overrides(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def check(c, samples=20000, seed=0):\n"
        "    return c\n"
        "def spread(c, samples=5):\n"
        "    return c\n"
        "def passed(x, y=1):\n"
        "    return x\n"
        "def exported(x, y=1):\n"
        "    return x\n"
        "def main(argv=None):\n"
        "    return argv\n"
        "def run(cfg, kw):\n"
        "    return (check(1.0, cfg.samples, seed=cfg.seed), check(2.0, 10),\n"
        "            spread(1.0, **kw), list(map(passed, [1])), passed(1, 2),\n"
        "            exported(1, 2), main([]))\n")
    assert unused_defaults(tmp_path, frozenset({"exported"}), frozenset({"mod.main"})) \
        == ["mod.check(samples)"]
    assert unused_defaults(tmp_path, frozenset({"exported"}), frozenset()) \
        == ["mod.check(samples)", "mod.main(argv)"]
