"""Byte-exact CLI report snapshots for every golden file.

``tests/data/reports/<file>.<command>.out`` holds the stdout of one command on
one golden file, and ``exit_codes.json`` its exit code.  Regenerate with
``PYTHONPATH=src python tests/test_report_snapshots.py`` only when a report
change is intended.
"""

import json
import pathlib
import sys

import pytest
from click.testing import CliRunner

from gurag_reach.cli import main
from gurag_reach.dsl import parse

from conftest import DATA, GOLDEN

REPORTS = DATA / "reports"
COMMANDS = {
    "classify": ["classify"],
    "solve": ["solve"],
    "solve-bfs": ["solve", "--engine", "bfs"],
    "oracle": ["oracle", "--kernel", "python"],
    "validate": ["validate"],
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
    res = CliRunner().invoke(main, argv, env={"GURAG_REACH_COLOR": "0"})
    return res.stdout_bytes, res.exit_code


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_report_matches_snapshot(name, argv):
    stdout, code = run(argv)
    assert stdout == (REPORTS / f"{name}.out").read_bytes()
    assert code == json.loads((REPORTS / "exit_codes.json").read_text())[name]


@pytest.mark.parametrize("name,argv", [c for c in cases() if c[0].endswith(".oracle")],
                         ids=[name for name, _ in cases() if name.endswith(".oracle")])
def test_compiled_oracle_matches_snapshot(name, argv, compiled_kernel):
    """The compiled kernel prints the same report, apart from its name."""
    stdout, code = run(["oracle", "--kernel", "compiled", argv[-1]])
    snapshot = (REPORTS / f"{name}.out").read_bytes()
    assert b'"kernel": "python"' in snapshot
    assert stdout == snapshot.replace(b'"kernel": "python"', b'"kernel": "compiled"')
    assert code == json.loads((REPORTS / "exit_codes.json").read_text())[name]


def test_every_snapshot_is_checked():
    names = {name for name, _ in cases()}
    assert {p.name[:-len(".out")] for p in REPORTS.glob("*.out")} == names
    assert set(json.loads((REPORTS / "exit_codes.json").read_text())) == names


if __name__ == "__main__":
    REPORTS.mkdir(exist_ok=True)
    codes = {}
    for name, argv in cases():
        stdout, codes[name] = run(argv)
        (REPORTS / f"{name}.out").write_bytes(stdout)
    (REPORTS / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} snapshots to {REPORTS}", file=sys.stderr)
