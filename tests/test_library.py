"""The package root's public names against the README's Library section.

The section lists each name in ``gurag_reach.__all__``, one bullet each, so a
name added to or removed from the package root without the README, such as a
second spelling of an existing name, fails here.  A star import binds those
names and no submodule.
"""

import pathlib
import re
import types

import gurag_reach

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

