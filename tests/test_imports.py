"""Package hygiene: every module-level import in ``src/twonorm`` is used,
every module-level private function is read by some module of it, every
cross-check that raises on a spectral norm goes through
``space._require``, no public name is declared by two modules, only
``matio`` imports ``json``, only ``cli`` imports ``matio``, and the
command line starts without ``scipy.sparse``."""

import ast
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



def test_cli_import_leaves_out_scipy_sparse():
    """ARPACK, which only the Sylvester margin uses, is imported inside
    ``schatten.sylvester``: at module level ``scipy.sparse.linalg`` would
    add about 30 ms and 2 MB to the start of every command."""
    code = "import sys, twonorm.cli; sys.exit('scipy.sparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], timeout=60)
    assert done.returncode == 0
