"""The package root's public names against the README's Library section.

The section lists each name in ``gurag_reach.__all__``, one bullet each,
under the module that defines it, so a name added to or removed from the
package root without the README, such as a second spelling of an existing
name, fails here.  A star import binds those names and no submodule, and a
bare ``import gurag_reach`` imports none of the modules behind them.
"""

import importlib
import pathlib
import re
import subprocess
import sys
import types

import pytest

import gurag_reach

from conftest import child_env

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def test_readme_lists_exactly_the_exported_names():
    listed = re.findall(r"^- `(\w+)` — ", library_section(), flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(gurag_reach.__all__)


def test_star_import_binds_no_module():
    namespace = {}
    exec("from gurag_reach import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gurag_reach.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]



def test_each_name_is_its_defining_modules():
    sections = re.findall(r"^From `(\w+)`:\n((?:- .*\n)+)", library_section(), flags=re.MULTILINE)
    homes = {name: module for module, bullets in sections
             for name in re.findall(r"^- `(\w+)` — ", bullets, flags=re.MULTILINE)}
    assert sorted(homes) == sorted(gurag_reach.__all__)
    for name, module in homes.items():
        value = getattr(importlib.import_module(f"gurag_reach.{module}"), name)
        assert getattr(gurag_reach, name) is value
        assert value.__module__ == f"gurag_reach.{module}"


def test_bare_import_loads_no_engine_module():
    code = ("import sys; before = set(sys.modules); import gurag_reach; "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('gurag_reach.')))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'gurag_reach' has no attribute 'solve'"):
        getattr(gurag_reach, "solve")
