import io
import os
import pathlib
import shutil
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from unittest import mock

import pytest

import gurag_reach
from gurag_reach import kernel
from gurag_reach.cli import main
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


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(*argv, env=None) -> CliResult:
    """Run ``gurag_reach.cli.main(argv)`` in this process, with stdout and
    stderr captured and ``GURAG_REACH_COLOR=0`` unless ``env`` overrides it.

    The exit code is what ``main`` returns or exits with; any other exception
    propagates to the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"GURAG_REACH_COLOR": "0", **(env or {})}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def load_golden(name):
    """Parse a golden fixture; fails loudly if it stopped being well formed."""
    text = (GOLDEN / name).read_text()
    result = parse(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    return result


def one_rule_document(pre):
    """A document whose one rule, on line 5, adds ``y`` under the
    precondition ``pre`` over the values ``x`` and ``y`` of ``a``; the user
    holds ``x`` and the query asks for ``y``."""
    return ("attr a scope { x, y }\nrole r\nuser { a = { x } }\nrules {\n"
            f"  rule canAddU a : r , {pre} -> y\n}}\nquery relaxed {{ e_a(u) = {{ y }} }}\n")


def nested_document(opener, depth):
    """``one_rule_document`` under the precondition ``x in direct(a)``
    wrapped in ``depth`` openers ``opener`` (such as ``(`` or ``not(``).
    Under an even number of ``not`` the user reaches ``y``."""
    return one_rule_document(f"{opener * depth}x in direct(a){')' * (opener.count('(') * depth)}")


@pytest.fixture
def golden():
    return load_golden


def build_kernel(source, lib):
    """Compile the C kernel at ``source`` into the shared library ``lib`` as
    strict C99 with every warning an error; skips the test without a C compiler."""
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler found to build the compiled kernel")
    subprocess.run([cc, "-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-O2", "-shared",
                    "-fPIC", "-o", str(lib), str(source)], check=True)


@pytest.fixture(scope="session")
def compiled_library(tmp_path_factory):
    """The C kernel built from the checkout's ``_kernel.c`` into a temporary
    directory and loaded the way ``kernel`` loads an installed build."""
    lib = tmp_path_factory.mktemp("kernel") / "_kernel.so"
    build_kernel(KERNEL_SOURCE, lib)
    return kernel.load(str(lib))


@pytest.fixture
def compiled_kernel(compiled_library, monkeypatch):
    """Makes that kernel the compiled one ``kernel.select`` offers, for one test."""
    monkeypatch.setattr(kernel, "_compiled", compiled_library)
    monkeypatch.setattr(kernel, "HAVE_COMPILED", True)
    return compiled_library
