"""The benchmark harness under ``perfbench/`` reads the package by name.

A name it reads that the package no longer has shows up only when the
benchmark runs, as a crash or as a layer figure that silently reads zero.
These tests parse the harness with ``ast`` and hold every such name against
the package: each ``twonorm`` attribute the harness reads, each ``__all__``
entry the tracer walks, and the two names the tracer reaches through a
class.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import twonorm
from twonorm.compat import CompatReport
from twonorm.space import WeightedSpace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(twonorm.__file__).resolve().parent


def _twonorm_reads(path):
    """``(module, name)`` pairs that one harness file reads from the
    package: every ``from twonorm[.mod] import name`` and every ``x.attr``
    where ``x`` was bound by ``import twonorm`` or ``from twonorm import
    mod``."""
    tree = ast.parse(path.read_text())
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "twonorm":
                    modules[alias.asname or "twonorm"] = (
                        alias.name if alias.asname else "twonorm")
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "twonorm":
            for alias in node.names:
                reads.add((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                if (PACKAGE / f"{alias.name}.py").is_file():
                    modules[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


def _resolves(mod, name):
    """Whether ``from mod import name`` would succeed."""
    return hasattr(importlib.import_module(mod), name) or (
        mod == "twonorm" and (PACKAGE / f"{name}.py").is_file())


def test_every_package_name_the_harness_reads_exists():
    reads = {(path.name, mod, name)
             for path in sorted(PERFBENCH.glob("*.py"))
             for mod, name in _twonorm_reads(path)}
    # the scan sees the table's one reader of the sandwich builder
    assert ("table.py", "twonorm.schatten", "sandwich") in reads
    missing = sorted(f"{file}: {mod}.{name}" for file, mod, name in reads
                     if not _resolves(mod, name))
    assert missing == []


def test_every_all_entry_resolves():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue
        mod = importlib.import_module(
            "twonorm" if path.stem == "__init__" else f"twonorm.{path.stem}")
        missing += [f"{mod.__name__}.{name}"
                    for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []


def test_names_the_tracer_reaches_through_a_class_exist():
    assert callable(WeightedSpace.plus_matrix)
    assert "residual_cross" in {
        f.name for f in dataclasses.fields(CompatReport)}
