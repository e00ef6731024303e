"""The package root's public names against the README's Library section.

The section lists each name ``gurag_reach`` exports other than its
submodules, one bullet each, so a name added to or removed from the package
root without the README, such as a second spelling of an existing name,
fails here.
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
    exported = [name for name in gurag_reach.__all__
                if not isinstance(getattr(gurag_reach, name), types.ModuleType)]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(exported)

