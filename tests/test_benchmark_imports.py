"""The benchmark's import surface: every name that ``perfbench/`` and
``benchmarks/`` import from the package must still exist.

The benchmark scripts are not run by the test suite, so a simplification that
deletes a name they use would otherwise go unnoticed until the benchmark runs.
The scripts are only parsed, never imported or executed.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def package_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "gurag_reach":
            for alias in node.names:
                yield node.module, alias.name, node.lineno


def resolves(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_imported_names_resolve():
    found = [(path, *imp) for path in SCRIPTS for imp in package_imports(path)]
    assert found, "no package imports found in the benchmark scripts"
    missing = [f"{path.relative_to(ROOT)}:{line}: from {module} import {name}"
               for path, module, name, line in found if not resolves(module, name)]
    assert not missing, "names the benchmark imports no longer resolve:\n" + "\n".join(missing)
