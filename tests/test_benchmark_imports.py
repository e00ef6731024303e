"""The benchmark's import surface: every name that ``perfbench/`` and
``benchmarks/`` take from the package must still exist.

A script takes a name either by ``from gurag_reach.m import name`` or, after
``from gurag_reach import m``, as the attribute ``m.name``; both are checked.
The benchmark scripts are not run by the test suite, so a simplification that
deletes a name they use would otherwise go unnoticed until the benchmark runs.
The scripts are only parsed, never imported or executed.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def package_uses(path):
    """(module, name, line, spelling) for each name the script takes from the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {}  # local name -> package module bound to it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "gurag_reach":
            for alias in node.names:
                name, full = alias.name, f"{node.module}.{alias.name}"
                yield node.module, name, node.lineno, f"from {node.module} import {name}"
                if is_module(full):
                    modules[alias.asname or name] = full
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            module = modules[node.value.id]
            yield module, node.attr, node.lineno, f"{node.value.id}.{node.attr} ({module})"


def is_module(name):
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def resolves(module, name):
    return hasattr(importlib.import_module(module), name) or is_module(f"{module}.{name}")


def test_imported_names_resolve():
    found = [(path, *use) for path in SCRIPTS for use in package_uses(path)]
    assert found, "no package imports found in the benchmark scripts"
    missing = [f"{path.relative_to(ROOT)}:{line}: {spelling}"
               for path, module, name, line, spelling in found if not resolves(module, name)]
    assert not missing, "names the benchmark uses no longer resolve:\n" + "\n".join(missing)


def test_attribute_uses_of_package_modules_are_found():
    spellings = {use[3] for path in SCRIPTS for use in package_uses(path)}
    assert {"kernel.select (gurag_reach.kernel)",
            "_kernel_py.REACHABLE (gurag_reach._kernel_py)",
            "fuzz.generate (gurag_reach.fuzz)"} <= spellings
