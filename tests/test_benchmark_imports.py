"""The benchmark's import surface: every name that ``perfbench/`` and
``benchmarks/`` take from the package must still exist, and every keyword
they pass to a package callable must still be one of its parameters.

A script takes a name either by ``from gurag_reach.m import name`` or, after
``from gurag_reach import m``, as the attribute ``m.name``; both are checked.
The benchmark scripts are not run by the test suite, so a simplification that
deletes or renames a name or a parameter they use would otherwise go unnoticed
until the benchmark runs.  The scripts are only parsed, never imported or
executed.
"""

import ast
import importlib
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_uses(tree):
    """(module, name, line, spelling, node) for each name the script ``tree``
    takes from the package; ``node`` is the expression that reads it, None for
    an import."""
    modules, names = {}, {}  # local name -> package module, or -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "gurag_reach":
            for alias in node.names:
                name, full = alias.name, f"{node.module}.{alias.name}"
                yield node.module, name, node.lineno, f"from {node.module} import {name}", None
                if is_module(full):
                    modules[alias.asname or name] = full
                else:
                    names[alias.asname or name] = (node.module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            module = modules[node.value.id]
            yield module, node.attr, node.lineno, f"{node.value.id}.{node.attr} ({module})", node
        elif isinstance(node, ast.Name) and node.id in names:
            yield *names[node.id], node.lineno, node.id, node


def keyword_uses(path):
    """(module, name, line, keyword) for each keyword argument the script
    passes to a package callable by name."""
    tree = parse(path)
    read = {node: (module, name) for module, name, _, _, node in package_uses(tree) if node}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.func in read:
            for kw in node.keywords:
                if kw.arg is not None:  # not a ``**mapping``
                    yield *read[node.func], node.lineno, kw.arg


def is_module(name):
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def resolves(module, name):
    return hasattr(importlib.import_module(module), name) or is_module(f"{module}.{name}")


def accepts(module, name, keyword):
    params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
    return keyword in params or any(p.kind is p.VAR_KEYWORD for p in params.values())


def unknown_keywords(paths):
    """(path, line, name, keyword) for each keyword the callable does not take."""
    return [(path, line, name, keyword)
            for path in paths for module, name, line, keyword in keyword_uses(path)
            if not accepts(module, name, keyword)]


def test_imported_names_resolve():
    found = [(path, *use) for path in SCRIPTS for use in package_uses(parse(path))]
    assert found, "no package imports found in the benchmark scripts"
    missing = [f"{path.relative_to(ROOT)}:{line}: {spelling}"
               for path, module, name, line, spelling, _ in found if not resolves(module, name)]
    assert not missing, "names the benchmark uses no longer resolve:\n" + "\n".join(missing)


def test_attribute_uses_of_package_modules_are_found():
    spellings = {use[3] for path in SCRIPTS for use in package_uses(parse(path))}
    assert {"kernel.select (gurag_reach.kernel)",
            "_kernel_py.REACHABLE (gurag_reach._kernel_py)",
            "fuzz.generate (gurag_reach.fuzz)"} <= spellings


def test_keywords_passed_to_package_callables_are_parameters():
    unknown = [f"{path.relative_to(ROOT)}:{line}: {name}({keyword}=...)"
               for path, line, name, keyword in unknown_keywords(SCRIPTS)]
    assert not unknown, "keywords the benchmark passes are no longer parameters:\n" + \
        "\n".join(unknown)


def test_keyword_uses_are_found(tmp_path):
    found = {(name, keyword) for path in SCRIPTS for _, name, _, keyword in keyword_uses(path)}
    assert {("SearchBounds", "max_states"), ("Rule", "target_attr")} <= found
    # a keyword the callable does not take is reported, through either spelling
    script = tmp_path / "script.py"
    script.write_text("from gurag_reach import search\n"
                      "from gurag_reach.search import bfs_solve as solve\n"
                      "solve(None, None, engine='python')\n"
                      "search.bfs_solve(None, None, bounds=None, bound=1)\n")
    assert unknown_keywords([script]) == [(script, 3, "bfs_solve", "engine"),
                                          (script, 4, "bfs_solve", "bound")]
