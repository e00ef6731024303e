import pathlib
import shutil
import subprocess

import pytest

import gurag_reach
from gurag_reach import kernel
from gurag_reach.dsl import parse

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
MALFORMED = DATA / "malformed"

# the directory holding the gurag_reach package this process imported
PACKAGE_PARENT = pathlib.Path(gurag_reach.__file__).resolve().parent.parent
KERNEL_SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gurag_reach" / "_kernel.c"


def child_env(**extra):
    """A minimal environment for a child interpreter that imports the same
    ``gurag_reach`` copy as the test process, whether installed or from src."""
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(PACKAGE_PARENT), **extra}


def load_golden(name):
    """Parse a golden fixture; fails loudly if it stopped being well formed."""
    text = (GOLDEN / name).read_text()
    result = parse(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    return result


@pytest.fixture
def golden():
    return load_golden


@pytest.fixture(scope="session")
def compiled_library(tmp_path_factory):
    """The C kernel built from the checkout's ``_kernel.c`` into a temporary
    directory and loaded the way ``kernel`` loads an installed build."""
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler found to build the compiled kernel")
    lib = tmp_path_factory.mktemp("kernel") / "_kernel.so"
    subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", str(lib), str(KERNEL_SOURCE)], check=True)
    return kernel.load(str(lib))


@pytest.fixture
def compiled_kernel(compiled_library, monkeypatch):
    """Makes that kernel the compiled one ``kernel.select`` offers, for one test."""
    monkeypatch.setattr(kernel, "_compiled", compiled_library)
    monkeypatch.setattr(kernel, "HAVE_COMPILED", True)
    return compiled_library
