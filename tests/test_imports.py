"""Package hygiene: every module-level import in ``src/twonorm`` is used,
every module-level private function, every method and property of a class
and every UPPER_CASE module constant is read by some module of it, every
cross-check that raises on a spectral norm goes through ``space._require``,
``ArithmeticError`` is raised only by a listed few functions, no statement
throws away the value of a package function that returns one, every
module-level tolerance states its scaling in the comment above it, no
public name is declared by two modules, only ``matio`` imports ``json``,
only ``cli`` imports ``matio``, ``studies`` imports no package module but
``errors``, only ``space`` knows how the weight is stored, no instance is
made past its constructor with ``object.__new__``, scipy is imported only
inside functions and only for what numpy lacks (the Schur form, the
triangular LAPACK kernels and ARPACK), and every command that takes no
Schur form runs without loading scipy."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twonorm"


def _declared_all(tree):
    """The names a module's top-level ``__all__`` assignment lists."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _unused_imports(path):
    """Names bound by the module's top-level imports that the module never
    reads.  Star imports, names listed in ``__all__`` and imports marked
    ``noqa: F401`` (the package's re-exports) are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name != "*":
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read.update(_declared_all(tree))
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in bound.items() if name not in read)


def test_no_unused_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []


def test_unused_import_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nimport sys as system\n"
                   "from math import pi, tau\n\nprint(tau, system)\n")
    assert _unused_imports(mod) == ["mod.py:1 os", "mod.py:3 pi"]


def _unread_private_functions(modules):
    """Top-level ``_private`` functions of ``modules`` that none of them
    reads, by name (``_f(x)``, ``{"k": _f}``) or as an attribute
    (``mod._f``).  Imports and the definition itself are not reads; dunder
    names are exempt."""
    trees = {path: ast.parse(path.read_text()) for path in modules}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__") and node.name not in read)


def test_no_unread_private_functions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _unread_private_functions(modules) == []


def test_unread_private_function_is_reported(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("def _called():\n    pass\n\n\n"
                 "def _by_attribute():\n    pass\n\n\n"
                 "def _in_a_table():\n    pass\n\n\n"
                 "def _unread():\n    pass\n\n\n"
                 "def __getattr__(name):\n    pass\n\n\n"
                 "TABLE = {'k': _in_a_table}\n")
    b = tmp_path / "b.py"
    b.write_text("import a\nfrom a import _called, _unread\n\n"
                 "_called()\na._by_attribute()\n")
    assert _unread_private_functions([a, b]) == ["a.py:13 _unread"]


def _returns_value(func):
    """Whether ``func`` has a ``return`` with a value other than ``None``
    outside the functions, lambdas and classes nested in it."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return) and node.value is not None and not (
                isinstance(node.value, ast.Constant)
                and node.value.value is None):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return False


def _discarded_results(modules):
    """Expression statements that call a function of ``modules`` whose
    body returns a value, and so throw the value away: by name (``f(x)``)
    or as an attribute (``mod.f(x)``, ``obj.f(x)``).  Functions at any
    depth count, methods included; one whose every ``return`` is bare or
    ``None`` does not."""
    trees = {path: ast.parse(path.read_text()) for path in modules}
    returning = {node.name for tree in trees.values()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and _returns_value(node)}
    hits = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in returning:
                hits.append(f"{path.name}:{node.lineno} {name}")
    return sorted(hits)


def test_no_discarded_results():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _discarded_results(modules) == []


def test_discarded_result_is_reported(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("def value():\n    return 1\n\n\n"
                 "def bare():\n    return\n\n\n"
                 "def none():\n    return None\n\n\n"
                 "def outer():\n"
                 "    def inner():\n        return 2\n\n"
                 "    inner()\n\n\n"
                 "def lambda_only():\n    f = lambda: 4\n    f()\n\n\n"
                 "class Space:\n    def method(self):\n        return 5\n")
    b = tmp_path / "b.py"
    b.write_text("import a\nfrom a import value, bare\n\n"
                 "value()\na.value()\nbare()\na.none()\na.outer()\n"
                 "a.lambda_only()\nx = value()\nprint(value())\n"
                 "a.Space().method()\nlen([])\n")
    assert _discarded_results([a, b]) == ["a.py:17 inner",
                                          "b.py:12 method",
                                          "b.py:4 value",
                                          "b.py:5 value"]


def _unread_methods(modules):
    """Methods and properties of the classes of ``modules`` that none of
    them reads as an attribute (``obj.m()``, ``obj.p``, ``Cls.m``).  The
    definition is not a read, and neither is a bare name; dunder names are
    exempt."""
    trees = {path: ast.parse(path.read_text()) for path in modules}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return sorted(
        f"{path.name}:{node.lineno} {cls.name}.{node.name}"
        for path, tree in trees.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read)


def test_no_unread_methods():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _unread_methods(modules) == []


def test_unread_method_is_reported(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("class Space:\n"
                 "    def __post_init__(self):\n        pass\n\n"
                 "    @property\n    def read_prop(self):\n        pass\n\n"
                 "    @property\n    def unread_prop(self):\n"
                 "        pass\n\n"
                 "    def read_method(self):\n        pass\n\n"
                 "    def _unread_private(self):\n        pass\n\n"
                 "    def by_name_only(self):\n        pass\n")
    b = tmp_path / "b.py"
    b.write_text("from a import Space\n\n\n"
                 "def by_name_only():\n    pass\n\n\n"
                 "s = Space()\nprint(s.read_prop, Space.read_method)\n"
                 "by_name_only()\n")
    assert _unread_methods([a, b]) == ["a.py:10 Space.unread_prop",
                                       "a.py:16 Space._unread_private",
                                       "a.py:19 Space.by_name_only"]


def _unread_module_constants(modules):
    """Top-level UPPER_CASE constants of ``modules``, public or ``_private``,
    that none of them reads, by name (``TOL * x``) or as an attribute
    (``mod.TOL``).  Imports of the name and assignments to it are not
    reads; its use in the definition of another constant is."""
    trees = {path: ast.parse(path.read_text()) for path in modules}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{path.name}:{node.lineno} {target.id}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if isinstance(target, ast.Name)
        and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
        and target.id not in read)


def test_no_unread_module_constants():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _unread_module_constants(modules) == []


def test_unread_module_constant_is_reported(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("TOL_READ = 1e-8\nTOL_BY_ATTRIBUTE = 1e-9\n"
                 "_PRIVATE_READ = 3\nTOL_UNREAD = 1e-10\n"
                 "_PRIVATE_UNREAD: int = 4\nlower_case = 5\n"
                 "TOL_DERIVED = 2 * TOL_READ\n\n\n"
                 "def f(x):\n    return x < TOL_READ + _PRIVATE_READ\n")
    b = tmp_path / "b.py"
    b.write_text("import a\nfrom a import TOL_UNREAD\n\n"
                 "TOL_UNREAD = 1.0\nprint(a.TOL_BY_ATTRIBUTE)\n")
    assert _unread_module_constants([a, b]) == ["a.py:4 TOL_UNREAD",
                                                "a.py:5 _PRIVATE_UNREAD",
                                                "a.py:7 TOL_DERIVED",
                                                "b.py:4 TOL_UNREAD"]


def _unscaled_tolerances(modules):
    """Module-level ``TOL_*`` and ``*_TOL`` constants whose comment block,
    the ``#`` lines directly above the assignment, does not say whether the
    tolerance is absolute, relative (to something) or scale-free."""
    hits = []
    for path in modules:
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)
                     and re.fullmatch(r"_?(TOL_[A-Z0-9_]+|[A-Z0-9_]+_TOL)",
                                      t.id)]
            if not names:
                continue
            row = node.lineno - 2
            while row >= 0 and lines[row].lstrip().startswith("#"):
                row -= 1
            comment = " ".join(lines[row + 1:node.lineno - 1])
            if not re.search(r"\b(absolute|relative|scale-free)\b", comment):
                hits.extend(f"{path.name}:{node.lineno} {name}"
                            for name in names)
    return hits


def test_every_tolerance_states_its_scaling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _unscaled_tolerances(modules) == []


def test_tolerance_without_a_stated_scaling_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("# gap of a pair; absolute\nTOL_GAP = 1e-10\n"
                   "# rank cut, relative to the largest\n"
                   "# singular value\n_TOL_RANK = 1e-10\n"
                   "# angle in radians; scale-free\nANGLE_TOL = 1e-8\n"
                   "MONO_TOL = 1e-12\n"
                   "# slack on the norm cap\nTOL_CAP = 1e-12\n"
                   "# absolute\n\nTOL_SPLIT = 1e-9\n"
                   "# relatively small, but of what\nTOL_VAGUE = 1e-6\n"
                   "tol_lower = 1e-3\nTOLERANCE = 1e-3\n")
    assert _unscaled_tolerances([mod]) == ["mod.py:8 MONO_TOL",
                                           "mod.py:10 TOL_CAP",
                                           "mod.py:13 TOL_SPLIT",
                                           "mod.py:15 TOL_VAGUE"]


def _hand_rolled_norm_checks(path):
    """``if`` statements that raise and whose test reads ``_spec_norm``,
    directly or through a local assigned from it (at any remove), outside
    ``_require`` itself."""
    hits = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef) or func.name == "_require":
            continue
        tainted = {"_spec_norm"}

        def reads_tainted(node):
            return any(isinstance(n, ast.Name) and n.id in tainted
                       for n in ast.walk(node))

        assigns = [n for n in ast.walk(func) if isinstance(n, ast.Assign)]
        grew = True
        while grew:
            grew = False
            for node in assigns:
                if not reads_tainted(node.value):
                    continue
                for target in node.targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and n.id not in tainted:
                            tainted.add(n.id)
                            grew = True
        for node in ast.walk(func):
            if isinstance(node, ast.If) and reads_tainted(node.test) and any(
                    isinstance(n, ast.Raise)
                    for stmt in node.body for n in ast.walk(stmt)):
                hits.append(f"{path.name}:{node.lineno} {func.name}")
    return hits


def test_norm_checks_go_through_require():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    hits = [hit for path in modules for hit in _hand_rolled_norm_checks(path)]
    assert hits == []


def test_hand_rolled_norm_check_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def _require(residual, tol, what):\n"
        "    res = _spec_norm(residual)\n"
        "    if res > tol:\n"
        "        raise ArithmeticError(what)\n\n\n"
        "def direct(m):\n"
        "    if _spec_norm(m) > 1.0:\n"
        "        raise ArithmeticError('too big')\n\n\n"
        "def through_locals(m):\n"
        "    norm = _spec_norm(m)\n"
        "    scale = max(1.0, norm) ** 2\n"
        "    if 2.0 > scale:\n"
        "        msg = 'too small'\n"
        "        raise ValueError(msg)\n\n\n"
        "def reported_only(m):\n"
        "    res = _spec_norm(m)\n"
        "    if res > 1.0:\n"
        "        return False\n"
        "    return True\n\n\n"
        "def other_norm(m):\n"
        "    if max_angle(m) > 1.0:\n"
        "        raise ArithmeticError('drifted')\n")
    assert _hand_rolled_norm_checks(mod) == ["mod.py:8 direct",
                                             "mod.py:15 through_locals"]


# The functions that may raise ArithmeticError: a caller's families that
# are not a projection, an overflow of finite input, and a LAPACK failure.
# Every other identity the package computes is true by construction and is
# reported or tested, not raised on.
ARITHMETIC_ERROR_SITES = {"subspaces.finite_rank_proper_projection",
                          "schatten._require_no_overflow",
                          "schatten.sylvester"}


def _arithmetic_error_sites(modules):
    """``module.function`` (``module.Class.method`` for a method) of every
    function that raises ``ArithmeticError`` or passes it to ``_require``,
    nested functions counting as their enclosing one, and
    ``module._require`` when that function has a default error."""
    def names_arithmetic(node):
        return isinstance(node, ast.Name) and node.id == "ArithmeticError"

    sites = set()
    for path in modules:
        funcs = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                funcs.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                funcs.extend((f"{node.name}.{m.name}", m) for m in node.body
                             if isinstance(m, ast.FunctionDef))
        for name, func in funcs:
            site = f"{path.stem}.{name}"
            if func.name == "_require" and (
                    func.args.defaults or any(func.args.kw_defaults)):
                sites.add(site)
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None and (
                        names_arithmetic(node.exc)
                        or isinstance(node.exc, ast.Call)
                        and names_arithmetic(node.exc.func)):
                    sites.add(site)
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Name) and node.func.id == "_require" \
                        and any(names_arithmetic(arg) for arg in
                                [*node.args, *(k.value for k in
                                               node.keywords)]):
                    sites.add(site)
    return sorted(sites)


def test_arithmetic_errors_only_at_listed_sites():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _arithmetic_error_sites(modules) == sorted(ARITHMETIC_ERROR_SITES)


def test_arithmetic_error_site_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def _require(residual, tol, what, error=ArithmeticError):\n"
        "    if residual > tol:\n"
        "        raise error(what)\n\n\n"
        "def bare(x):\n"
        "    raise ArithmeticError\n\n\n"
        "def nested(x):\n"
        "    def inner():\n"
        "        raise ArithmeticError('inner')\n"
        "    return inner\n\n\n"
        "def positional(x):\n"
        "    _require(x, 1.0, 'drifted', ArithmeticError)\n\n\n"
        "def keyword(x):\n"
        "    _require(x, 1.0, 'drifted', error=ArithmeticError)\n\n\n"
        "def input_check(x):\n"
        "    _require(x, 1.0, 'bad input', ValueError)\n"
        "    raise ValueError('bad')\n\n\n"
        "def caught(x):\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ArithmeticError:\n"
        "        return 0\n\n\n"
        "class Space:\n"
        "    def method(self):\n"
        "        raise ArithmeticError('in a method')\n")
    assert _arithmetic_error_sites([mod]) == [
        "mod.Space.method", "mod._require", "mod.bare", "mod.keyword",
        "mod.nested", "mod.positional"]


def _names_in_two_modules(modules):
    """Names listed in the ``__all__`` of more than one of ``modules``.

    The package namespace star-imports each module's ``__all__``, so a
    second declaration of a name would silently shadow the first."""
    homes = {}
    for path in modules:
        for name in _declared_all(ast.parse(path.read_text())):
            homes.setdefault(name, []).append(path.name)
    return sorted(f"{name}: {', '.join(paths)}"
                  for name, paths in homes.items() if len(paths) > 1)


def test_each_public_name_has_one_home():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _names_in_two_modules(modules) == []


def test_public_name_in_two_modules_is_reported(tmp_path):
    a = tmp_path / "a.py"
    a.write_text('__all__ = ["shared", "only_a"]\n')
    b = tmp_path / "b.py"
    b.write_text('import a\n\n__all__ = ["only_b", "shared"]\n')
    c = tmp_path / "c.py"
    c.write_text("shared = 1\n")
    assert _names_in_two_modules([a, b, c]) == ["shared: a.py, b.py"]


def _json_importers(modules):
    """Imports of ``json`` (or a submodule of it), at any depth, in modules
    other than ``matio.py``, which owns the package's text formats."""
    hits = []
    for path in modules:
        if path.name == "matio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name == "json" or name.startswith("json.")]
    return sorted(hits)


def test_only_matio_imports_json():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _json_importers(modules) == []


def test_json_import_outside_matio_is_reported(tmp_path):
    matio = tmp_path / "matio.py"
    matio.write_text("import json\n")
    a = tmp_path / "a.py"
    a.write_text("import os, json as js\n\n\n"
                 "def f():\n    from json.decoder import JSONDecodeError\n")
    b = tmp_path / "b.py"
    b.write_text("import jsonschema\nfrom . import matio\n"
                 "from .matio import dumps_json\n")
    assert _json_importers([matio, a, b]) == ["a.py:1 json",
                                              "a.py:5 json.decoder"]


def _matio_importers(modules):
    """Imports of the package's ``matio``, at any depth and in any form,
    in modules other than ``cli.py``, which renders every payload, and
    ``matio.py`` itself.  The numerics then load without it."""
    hits = []
    for path in modules:
        if path.name in ("cli.py", "matio.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" if module
                                    else alias.name for alias in node.names]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name.split(".")[-1] == "matio"]
    return sorted(hits)


def test_only_cli_imports_matio():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _matio_importers(modules) == []


def test_matio_import_outside_cli_is_reported(tmp_path):
    cli = tmp_path / "cli.py"
    cli.write_text("from . import matio\n")
    a = tmp_path / "a.py"
    a.write_text("import os\nfrom . import compat, matio\n\n\n"
                 "def f():\n    from .matio import dumps_json\n")
    b = tmp_path / "b.py"
    b.write_text("import twonorm.matio\nfrom .matrix import matio_like\n")
    assert _matio_importers([cli, a, b]) == ["a.py:2 matio",
                                             "a.py:6 matio",
                                             "b.py:1 twonorm.matio"]


def _package_imports(path, allowed):
    """Package modules that ``path`` imports, at any depth and in any form
    (``from .m import x``, ``from . import m``, ``import twonorm.m``,
    ``from twonorm import m``), other than those named in ``allowed``; a
    bare ``import twonorm`` names the package itself."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"twonorm.{module}".rstrip(".")
            dotted = [module] if module != "twonorm" \
                else [f"twonorm.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            module = parts[1] if len(parts) > 1 else parts[0]
            if parts[0] == "twonorm" and module not in allowed:
                hits.append(f"{path.name}:{node.lineno} {module}")
    return sorted(hits)


def test_studies_imports_only_errors_from_the_package():
    """Every study row comes from a closed form or a proof, so the studies
    need none of the package's numerics."""
    assert _package_imports(PACKAGE / "studies.py", {"errors"}) == []


def test_package_import_beyond_errors_is_reported(tmp_path):
    studies = tmp_path / "studies.py"
    studies.write_text("import math\nimport twonorm\n"
                       "from .errors import BadExponent\n"
                       "from . import errors, space\n"
                       "from .schatten import z_criterion_margin\n\n\n"
                       "def f():\n    import twonorm.compat\n"
                       "    from twonorm import rand\n"
                       "    from twonorm.errors import DimMismatch\n")
    assert _package_imports(studies, {"errors"}) == [
        "studies.py:10 rand", "studies.py:2 twonorm", "studies.py:4 space",
        "studies.py:5 schatten", "studies.py:9 compat"]


# the one function outside ``space.py`` that may multiply by ``.weight``:
# the check suite that tests ``plus_matrix`` against the stored weight
_WEIGHT_ORACLES = {("cli.py", "_suite_adjoint")}


def _weight_storage_readers(modules):
    """Reads of ``_evals`` or ``_evecs``, writes to them by name through
    ``setattr`` or ``object.__setattr__``, ``WeightedSpace(...)`` calls and
    products (``@``, ``*``, ``dot``, ``matmul``, ``multiply``, ``einsum``)
    with a ``.weight`` operand, outside ``space.py``, which alone knows how
    the weight is stored, and outside the functions of
    ``_WEIGHT_ORACLES``."""
    hits = []
    for path in modules:
        if path.name == "space.py":
            continue
        tree = ast.parse(path.read_text())
        exempt = {id(n) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  and (path.name, func.name) in _WEIGHT_ORACLES
                  for n in ast.walk(func)}

        def is_weight(node):
            return isinstance(node, ast.Attribute) and node.attr == "weight"

        def name_of(node):
            return getattr(node, "attr", getattr(node, "id", None))

        def storage_name(node):
            return isinstance(node, ast.Constant) \
                and node.value in ("_evals", "_evecs")

        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Attribute) \
                    and node.attr in ("_evals", "_evecs"):
                hits.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.BinOp) \
                    and isinstance(node.op, (ast.MatMult, ast.Mult)) \
                    and (is_weight(node.left) or is_weight(node.right)):
                hits.append(f"{path.name}:{node.lineno} weight product")
            elif isinstance(node, ast.Call):
                called = name_of(node.func)
                if called in ("dot", "matmul", "multiply", "einsum") \
                        and any(map(is_weight, node.args)):
                    hits.append(f"{path.name}:{node.lineno} weight product")
                elif called in ("setattr", "__setattr__") \
                        and any(map(storage_name, node.args)):
                    hits.append(f"{path.name}:{node.lineno} storage write")
                elif called == "WeightedSpace":
                    hits.append(f"{path.name}:{node.lineno} WeightedSpace")
    return sorted(hits)


def test_only_space_knows_how_the_weight_is_stored():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _weight_storage_readers(modules) == []


def test_weight_storage_reader_is_reported(tmp_path):
    space = tmp_path / "space.py"
    space.write_text("def plus(ws, m):\n"
                     "    return ws._evecs @ m * ws.weight\n")
    cli = tmp_path / "cli.py"
    cli.write_text("def _suite_adjoint(ws, t):\n"
                   "    return ws.weight @ t - t @ ws.weight\n\n\n"
                   "def _suite_other(ws, t):\n"
                   "    return ws.weight @ t\n")
    a = tmp_path / "a.py"
    a.write_text("import numpy as np\n\n\n"
                 "def f(ws, x):\n"
                 "    cond = ws._evals[-1]\n"
                 "    y = x.conj().T @ ws.weight @ x\n"
                 "    z = np.dot(ws.weight, x) + 2.0 * ws.weight\n"
                 "    return ws.weight.shape, ws.dual(x), ws._evecs\n\n\n"
                 "def g(n, a, d, u):\n"
                 "    ws = space.WeightedSpace(n, a)\n"
                 "    object.__setattr__(ws, '_evals', d)\n"
                 "    setattr(ws, '_evecs', u)\n"
                 "    object.__setattr__(ws, 'weight', a)\n"
                 "    return WeightedSpace(n, a, 'euclid')\n")
    assert _weight_storage_readers([space, cli, a]) == [
        "a.py:12 WeightedSpace", "a.py:13 storage write",
        "a.py:14 storage write", "a.py:16 WeightedSpace",
        "a.py:5 _evals", "a.py:6 weight product", "a.py:7 weight product",
        "a.py:7 weight product", "a.py:8 _evecs",
        "cli.py:6 weight product"]


def _constructor_bypasses(modules):
    """Calls of ``object.__new__``, which make an instance without running
    its class's constructor: every value is built by the constructor from
    the fields that fix it."""
    return sorted(
        f"{path.name}:{node.lineno} object.__new__"
        for path in modules for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object")


def test_no_instance_bypasses_its_constructor():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _constructor_bypasses(modules) == []


def test_constructor_bypass_is_reported(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("def f(cls, n):\n"
                 "    ws = object.__new__(cls)\n"
                 "    ok = cls.__new__(cls)\n"
                 "    return super().__new__(cls), object(), ws, ok\n\n\n"
                 "def g():\n    return [object.__new__(int) for _ in 'ab']\n")
    assert _constructor_bypasses([a]) == ["a.py:2 object.__new__",
                                          "a.py:8 object.__new__"]


_SCIPY_ALLOWED = ("scipy.linalg.schur", "scipy.linalg.get_lapack_funcs",
                  "scipy.sparse.linalg.LinearOperator",
                  "scipy.sparse.linalg.eigsh")


def _scipy_uses_outside_the_allowlist(modules):
    """Every scipy import outside a function body, and every scipy name the
    package reaches but the four of ``_SCIPY_ALLOWED``, through any binding:
    ``la.inv`` after ``import scipy.linalg as la``, ``scipy.linalg.solve``,
    ``linalg.eigh`` after ``from scipy import linalg``, or a name imported
    ``from scipy.linalg``.  numpy.linalg runs every factorization it has a
    routine for; scipy is left with the Schur form, the triangular LAPACK
    kernels and ARPACK, and is imported only by the functions that take
    them, so that no other command loads it.  A bare binding of a scipy
    module counts as a use, so ``getattr(la, name)`` is reported too."""
    def dotted(node, bound):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            head = dotted(node.value, bound)
            return head and f"{head}.{node.attr}"
        return None

    def on_the_way(target):
        return target in _SCIPY_ALLOWED or any(
            name.startswith(target + ".") for name in _SCIPY_ALLOWED)

    hits = []
    for path in modules:
        tree = ast.parse(path.read_text())
        in_function = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                       for node in ast.walk(fn)}
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                pairs = [(alias.asname, alias.name) if alias.asname
                         else (alias.name.split(".")[0],) * 2
                         for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                pairs = [(alias.asname or alias.name,
                          f"{node.module}.{alias.name}")
                         for alias in node.names]
            else:
                continue
            pairs = [(name, target) for name, target in pairs
                     if target.split(".")[0] == "scipy"]
            if pairs and id(node) not in in_function:
                hits.append(f"{path.name}:{node.lineno} scipy imported "
                            f"outside a function")
            for name, target in pairs:
                bound[name] = target
                if not on_the_way(target):
                    hits.append(f"{path.name}:{node.lineno} {target}")
        inner = {id(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if id(node) in inner:
                continue
            target = dotted(node, bound)
            if target and target not in _SCIPY_ALLOWED:
                hits.append(f"{path.name}:{node.lineno} {target}")
    return sorted(hits)


def test_scipy_only_where_numpy_has_no_routine():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _scipy_uses_outside_the_allowlist(modules) == []


def test_scipy_outside_the_allowlist_is_reported(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("import numpy as np\nimport scipy.linalg as la\n\n\n"
                 "def f(m):\n"
                 "    s = np.linalg.svd(m)[1] + np.linalg.inv(m)\n"
                 "    w = la.inv(m) + la.solve(m, m, assume_a='pos')\n"
                 "    q, r = la.qr(m)\n"
                 "    e = la.eigvals(m) + la.svdvals(m) + np.linalg.eigvals(m)\n"
                 "    return la.schur(m), la.eigh(m), la.svd, s, w, q, e\n")
    b = tmp_path / "b.py"
    b.write_text("import scipy\nfrom scipy.linalg import qr as factor\n\n\n"
                 "def g(m, name):\n"
                 "    from scipy import linalg as sla\n"
                 "    from scipy.sparse.linalg import LinearOperator, eigsh, svds\n"
                 "    return (scipy.linalg.eig(m), sla.get_lapack_funcs('trsyl'),\n"
                 "            factor(m), eigsh, svds, LinearOperator,\n"
                 "            getattr(sla, name))\n\n\n"
                 "class C:\n"
                 "    from scipy.linalg import schur\n")
    assert _scipy_uses_outside_the_allowlist([a, b]) == [
        "a.py:10 scipy.linalg.eigh", "a.py:10 scipy.linalg.svd",
        "a.py:2 scipy imported outside a function",
        "a.py:7 scipy.linalg.inv", "a.py:7 scipy.linalg.solve",
        "a.py:8 scipy.linalg.qr", "a.py:9 scipy.linalg.eigvals",
        "a.py:9 scipy.linalg.svdvals",
        "b.py:1 scipy imported outside a function",
        "b.py:10 scipy.linalg",
        "b.py:14 scipy imported outside a function",
        "b.py:2 scipy imported outside a function",
        "b.py:2 scipy.linalg.qr", "b.py:7 scipy.sparse.linalg.svds",
        "b.py:8 scipy.linalg.eig", "b.py:9 scipy.linalg.qr",
        "b.py:9 scipy.sparse.linalg.svds"]


# commands that take no Schur form, each checked after it has run, and
# the two that take one
_SCIPY_FREE = (["check", "compat", "--dim", "10", "--trials", "2"],
               ["demo", "cq", "--z", "diag:1,2"],
               ["study", "diverge", "--beta", "0.3"],
               ["demo", "finite_rank"])
_SCIPY_USERS = (["riesz", "--t", "diag:1,2", "--lambda", "1", "--eps", "0.4"],
                ["demo", "sylvester", "--c", "diag:1,2", "--d", "diag:3,4",
                 "--w", "diag:1,1"])


def test_commands_without_a_schur_form_leave_out_scipy():
    """Importing the command line, and then running a ``check``, a
    ``study`` and the ``demo`` commands that take no Schur form, loads no
    scipy module, ``scipy.sparse`` included; the two commands that take
    one, run after them in the same process, still exit 0."""
    script = (
        "import contextlib, io, json, sys\n"
        "import twonorm.cli as cli\n"
        "def scipy_loaded():\n"
        "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "rows = [[None, None, scipy_loaded()]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    rows.append([argv, code, scipy_loaded()])\n"
        "print(json.dumps(rows))\n")
    argvs = [*_SCIPY_FREE, *_SCIPY_USERS]
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    free = len(_SCIPY_FREE) + 1
    assert rows[:free] == [[None, None, False]] + \
        [[argv, 0, False] for argv in _SCIPY_FREE]
    assert [row[:2] for row in rows[free:]] == \
        [[argv, 0] for argv in _SCIPY_USERS]
