"""Byte-exact CLI report snapshots for every golden file.

``tests/data/reports/<file>.<command>.out`` holds the stdout of one command on
one golden file, and ``exit_codes.json`` its exit code.  ``diagnostics.json``
holds the stderr and exit code of ``classify`` on each malformed file, with the
file's path replaced by ``<file>``.  ``usage.json`` holds the stdout, stderr
and exit code of a fresh ``python -m gurag_reach.cli`` under ``COLUMNS=80`` for
help, the version and five usage errors, the text argparse writes.  Regenerate
all of them with
``PYTHONPATH=src python tests/test_report_snapshots.py`` only when a report or
diagnostic change is intended.
"""

import json
import subprocess
import sys

import pytest

from gurag_reach.dsl import parse

from conftest import DATA, GOLDEN, MALFORMED, child_env, run_cli

REPORTS = DATA / "reports"
COMMANDS = {
    "classify": ["classify"],
    "solve": ["solve"],
    "solve-bfs": ["solve", "--engine", "bfs"],
    "oracle": ["oracle"],
    "validate": ["validate"],
}


# the runs whose output argparse writes: help, the version and usage errors
USAGE = {
    "help": ["--help"],
    "version": ["--version"],
    **{f"{command}-help": [command, "--help"]
       for command in ("classify", "solve", "validate", "oracle", "fmt", "fuzz")},
    "unknown-command": ["frobnicate", "FILE"],
    "solve-without-file": ["solve"],
    "solve-unknown-option": ["solve", "--bogus", "FILE"],
    "solve-unknown-engine": ["solve", "--engine", "x", "FILE"],
    "validate-negative-plan": ["validate", "--plan", "-1", "FILE"],
}


def cases():
    """(snapshot name, argv) for each golden file under each command that applies."""
    out = []
    for path in sorted(GOLDEN.glob("*.gurag")):
        result = parse(path.read_text())
        names = ["classify"]
        if result.queries:
            names += ["solve", "solve-bfs", "oracle"]
            if result.plans:
                names.append("validate")
        out += [(f"{path.stem}.{name}", COMMANDS[name] + [str(path)]) for name in names]
    return out


def run(argv):
    res = run_cli(*argv)
    return res.stdout.encode(), res.exit_code


def diagnostics(path):
    res = run_cli("classify", str(path))
    return {"exitCode": res.exit_code, "stderr": res.stderr.replace(str(path), "<file>")}


def usage(argv):
    proc = subprocess.run([sys.executable, "-m", "gurag_reach.cli", *argv], capture_output=True,
                          env=child_env(COLUMNS="80", GURAG_REACH_COLOR="0"))
    return {"argv": argv, "exitCode": proc.returncode,
            "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_report_matches_snapshot(name, argv):
    stdout, code = run(argv)
    assert stdout == (REPORTS / f"{name}.out").read_bytes()
    assert code == json.loads((REPORTS / "exit_codes.json").read_text())[name]


def test_every_snapshot_is_checked():
    names = {name for name, _ in cases()}
    assert {p.name[:-len(".out")] for p in REPORTS.glob("*.out")} == names
    assert set(json.loads((REPORTS / "exit_codes.json").read_text())) == names
    assert set(json.loads((REPORTS / "diagnostics.json").read_text())) == {
        p.stem for p in MALFORMED.glob("*.gurag")}
    assert set(json.loads((REPORTS / "usage.json").read_text())) == set(USAGE)


@pytest.mark.parametrize("path", sorted(MALFORMED.glob("*.gurag")), ids=lambda p: p.stem)
def test_diagnostics_match_snapshot(path):
    assert diagnostics(path) == json.loads((REPORTS / "diagnostics.json").read_text())[path.stem]


@pytest.mark.parametrize("name", USAGE)
def test_usage_matches_snapshot(name):
    assert usage(USAGE[name]) == json.loads((REPORTS / "usage.json").read_text())[name]


# in a child without site-packages, refuse every import outside the standard library
_STDLIB_ONLY = """
import runpy, sys
class StandardLibraryOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top != "gurag_reach":
            raise ImportError(f"{name} is not in the standard library")
sys.meta_path.insert(0, StandardLibraryOnly())
sys.argv = ["gurag-reach", *sys.argv[1:]]
runpy.run_module("gurag_reach.cli", run_name="__main__", alter_sys=True)
"""


def test_solve_needs_only_the_standard_library():
    proc = subprocess.run([sys.executable, "-S", "-c", _STDLIB_ONLY, "solve",
                           str(GOLDEN / "chain.gurag")],
                          capture_output=True, env=child_env(GURAG_REACH_COLOR="0"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (REPORTS / "chain.solve.out").read_bytes()


if __name__ == "__main__":
    REPORTS.mkdir(exist_ok=True)
    codes = {}
    for name, argv in cases():
        stdout, codes[name] = run(argv)
        (REPORTS / f"{name}.out").write_bytes(stdout)
    (REPORTS / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    diags = {path.stem: diagnostics(path) for path in sorted(MALFORMED.glob("*.gurag"))}
    (REPORTS / "diagnostics.json").write_text(json.dumps(diags, indent=2, sort_keys=True) + "\n")
    runs = {name: usage(argv) for name, argv in USAGE.items()}
    (REPORTS / "usage.json").write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} snapshots, {len(diags)} diagnostics and {len(runs)} usage runs "
          f"to {REPORTS}",
          file=sys.stderr)
