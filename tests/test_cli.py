import errno
import gc
import io
import json
import os
import stat
import subprocess
import sys
from contextlib import redirect_stderr

import pytest

from gurag_reach import _kernel_py, cli, search
from gurag_reach.dsl import MAX_NESTING, parse, serialize
from gurag_reach.planner import PlanResult
from gurag_reach.transition import Plan

from conftest import GOLDEN, MALFORMED, child_env, nested_document, one_rule_document, run_cli
from test_planner_answers import srd_groups_case


def report(result):
    doc = json.loads(result.output)
    assert doc["schemaVersion"] == 1
    return doc


class TestClassify:
    def test_levels_and_flags(self):
        res = run_cli("classify", str(GOLDEN / "chain.gurag"))
        assert res.exit_code == 0
        doc = report(res)
        assert doc["level"] == "G0"
        assert doc["noNegation"] and doc["noDeletion"]

    def test_g1plus(self):
        res = run_cli("classify", str(GOLDEN / "srd_groups.gurag"))
        assert report(res)["level"] == "G1plus"


class TestSolve:
    def test_auto_picks_nonneg(self):
        res = run_cli("solve", str(GOLDEN / "chain.gurag"))
        assert res.exit_code == 0
        doc = report(res)
        assert doc["engine"] == "nonneg"
        assert doc["outcome"] == "reachable"
        assert doc["plan"][0] == "addU(r, a, v1)"
        assert "elapsedMs" not in doc

    def test_forced_bfs(self):
        res = run_cli("solve", str(GOLDEN / "chain.gurag"), "--engine", "bfs")
        doc = report(res)
        assert doc["engine"] == "bfs"
        assert doc["statesExplored"] > 0

    def test_unreachable_exit_code(self, tmp_path):
        f = tmp_path / "u.gurag"
        f.write_text("attr a scope { x }\nrole r\nrules {\n}\n"
                     "query strict { e_a(u) = { x } }\n")
        res = run_cli("solve", str(f))
        assert res.exit_code == 1
        assert report(res)["outcome"] == "unreachable"

    def test_bound_exceeded_exit_code(self):
        res = run_cli("solve", str(GOLDEN / "chain.gurag"),
                     "--engine", "bfs", "--max-depth", "2")
        assert res.exit_code == 2
        doc = report(res)
        assert doc["outcome"] == "bound-exceeded" and doc["bound"] == "depth"

    def test_restriction_violation_exit_code(self):
        # roomadmin uses negation, so forcing the nonneg engine must refuse
        res = run_cli("solve", str(GOLDEN / "roomadmin.gurag"),
                     "--engine", "nonneg")
        assert res.exit_code == 4

    def test_nonneg_refuses_delete_rules(self, tmp_path):
        f = tmp_path / "delete.gurag"
        f.write_text("attr a scope { x, y }\nrole r\nuser { a = { x }  groups = { } }\n"
                     "rules {\n  rule canDeleteU a : r , true -> x\n"
                     "  rule canAddU a : r , true -> y\n}\nquery strict { e_a(u) = { y } }\n")
        assert report(run_cli("solve", str(f)))["plan"] == ["addU(r, a, y)", "deleteU(r, a, x)"]
        res = run_cli("solve", str(f), "--engine", "nonneg")
        assert res.exit_code == 4 and res.stdout == ""
        assert res.stderr == ("error: engine 'nonneg' not applicable: "
                              "rule set contains delete/remove rules\n")

    def test_assign_rule_reading_a_value_is_outside_srd(self, tmp_path):
        # G3's assign rule reads a1, which the oracle's plan adds first
        instance, q = srd_groups_case(254)
        f = tmp_path / "reads_value.gurag"
        f.write_text(serialize(instance, [q.relaxed_copy()]))
        assert report(run_cli("classify", str(f)))["singleRuleDirect"] is False
        assert run_cli("solve", str(f), "--engine", "srd").exit_code == 4
        res = run_cli("solve", str(f))
        assert res.exit_code == 0
        doc = report(res)
        assert doc["engine"] == "bfs"
        assert doc["plan"] == report(run_cli("oracle", str(f)))["plan"]
        assert doc["plan"] == ["addU(r, a, a1)", "assign(r, G3)"]

    def test_auto_falls_back_across_group_cycle(self):
        res = run_cli("solve", str(GOLDEN / "srd_cycle.gurag"))
        assert res.exit_code == 0
        doc = report(res)
        assert doc["engine"] == "srd+bfs"
        assert doc["outcome"] == "reachable"
        assert "group-cycle-discarded" in doc["notes"]

    def test_bounds_beyond_their_limits_rejected(self):
        res = run_cli("solve", str(GOLDEN / "chain.gurag"), "--engine", "bfs",
                     "--max-states", "99999999999")
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_time_bound_beyond_its_limit_rejected(self):
        # 2**63 ms and above
        res = run_cli("oracle", str(GOLDEN / "chain.gurag"), "--max-ms", str(2**63 + 5))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "max millis below 2**63" in res.stderr

    @pytest.mark.parametrize("argv", [("solve", str(GOLDEN / "chain.gurag"), "--max-depth", "0"),
                                      ("fuzz", "--count", "1", "--max-ms", "-1")],
                             ids=["solve-max-depth-0", "fuzz-max-ms-negative"])
    def test_malformed_bounds_are_usage_errors(self, argv):
        res = run_cli(*argv)
        assert res.exit_code == 2
        assert (res.stdout, res.stderr) == ("", "error: search bounds must be positive\n")

    def test_plan_failing_replay_is_not_printed(self, monkeypatch):
        solve = search.solve_no_negation

        def dropping_first_request(instance, q):
            res = solve(instance, q)
            return type(res).found(Plan(res.plan.requests[1:]), res.notes)

        monkeypatch.setattr(search, "solve_no_negation", dropping_first_request)
        res = run_cli("solve", str(GOLDEN / "chain.gurag"))
        assert res.exit_code == 5
        assert res.stdout == ""
        assert res.stderr.startswith("error: nonneg plan fails replay at request 0")

    @pytest.mark.parametrize("terms,exit_code", [(6, 0), (7, 3)])
    def test_precondition_clause_cap(self, tmp_path, terms, exit_code):
        # each negated pair is two clauses, so n of them are 2**n; the parser
        # reports the bound, so every command, fmt too, refuses the same file
        pre = " and ".join(f"not(x{i} in direct(a) and y{i} in direct(a))" for i in range(terms))
        vals = ", ".join([f"x{i}" for i in range(terms)] + [f"y{i}" for i in range(terms)])
        f = tmp_path / "cap.gurag"
        document = (f"attr a scope {{ t, {vals} }}\nrole r\nuser {{ groups = {{ }} }}\nrules {{\n"
                    f"  rule canAddU a : r , {pre} -> t\n}}\n"
                    "query relaxed { e_a(u) = { t } }\nplan { addU(r, a, t) }\n")
        f.write_text(document)
        for command in (["classify"], ["solve"], ["oracle"], ["validate"], ["fmt", "--check"],
                        ["fmt"]):
            res = run_cli(*command, str(f))
            assert res.exit_code == exit_code, command
            if exit_code == 3:
                assert (res.stdout, res.stderr) == ("", f"{f}:5:8: error: precondition expands "
                                                    "to more than 64 clauses [too-many-clauses]\n")
        assert f.read_text() == document

    def test_timing_opt_in(self):
        res = run_cli("solve", str(GOLDEN / "chain.gurag"), "--timing")
        assert "elapsedMs" in report(res)

    def test_missing_query_is_parse_error(self):
        res = run_cli("solve", str(GOLDEN / "bob.gurag"))
        assert res.exit_code == 3

    @pytest.mark.parametrize("index", ["-1", "x"])
    def test_malformed_query_index_is_usage_error(self, index):
        res = run_cli("solve", str(GOLDEN / "chain.gurag"), "--query", index)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "argument --query" in res.stderr

    def test_query_index_past_the_end_is_parse_error(self):
        path = GOLDEN / "chain.gurag"
        res = run_cli("solve", str(path), "--query", "1")
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == f"{path}: error: query index 1 out of range (file has 1)\n"


class TestOracle:
    def test_pinned_anomaly_plan(self):
        res = run_cli("oracle", str(GOLDEN / "roomadmin.gurag"))
        assert res.exit_code == 0
        doc = report(res)
        assert doc["plan"] == [
            "assign(RoomAdmin, G1)",
            "addU(RoomAdmin, roomAcc, 1.02)",
            "addUG(RoomAdmin, G2, roomAcc, 2.01)",
        ]

    def test_kernel_selection_reported(self):
        res = run_cli("oracle", str(GOLDEN / "chain.gurag"))
        assert report(res)["kernel"] == "python"

    def test_kernel_option_is_a_usage_error(self):
        # there is one kernel, and no option to choose it
        for name in ("python", "compiled"):
            res = run_cli("oracle", str(GOLDEN / "chain.gurag"), "--kernel", name)
            assert (res.exit_code, res.stdout) == (2, ""), name
            assert "unrecognized arguments: --kernel" in res.stderr, name

    @pytest.mark.parametrize("error, line", [
        (MemoryError(), "error: out of memory\n"),
    ], ids=["interpreter"])
    def test_search_out_of_memory_is_an_internal_failure(self, monkeypatch, error, line):
        def out_of_memory(*args):
            raise error

        monkeypatch.setattr(_kernel_py, "bfs", out_of_memory)
        res = run_cli("oracle", str(GOLDEN / "chain.gurag"))
        assert (res.exit_code, res.stdout, res.stderr) == (5, "", line)


class TestValidate:
    def test_valid_plan(self):
        res = run_cli("validate", str(GOLDEN / "empty.gurag"))
        assert res.exit_code == 0
        assert report(res)["verdict"] == "valid"

    def test_invalid_plan(self, tmp_path):
        f = tmp_path / "bad.gurag"
        f.write_text("attr a scope { x }\nrole r\nrules {\n}\n"
                     "query strict { e_a(u) = { } }\n"
                     "plan { addU(r, a, x) }\n")
        res = run_cli("validate", str(f))
        assert res.exit_code == 1
        doc = report(res)
        assert doc["verdict"] == "invalid"
        assert doc["failedAt"] == 0 and doc["reason"] == "no matching rule"

    @pytest.mark.parametrize("option", ["--query", "--plan"])
    def test_negative_index_is_usage_error(self, option):
        res = run_cli("validate", str(GOLDEN / "empty.gurag"), option, "-1")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"argument {option}" in res.stderr

    def test_plan_index_past_the_end_is_parse_error(self):
        path = GOLDEN / "empty.gurag"
        res = run_cli("validate", str(path), "--plan", "1")
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == f"{path}: error: plan index 1 out of range (file has 1)\n"

    def test_query_unsatisfied(self, tmp_path):
        f = tmp_path / "u.gurag"
        f.write_text("attr a scope { x }\nrole r\nrules {\n}\n"
                     "query strict { e_a(u) = { x } }\nplan { }\n")
        res = run_cli("validate", str(f))
        assert res.exit_code == 1
        assert report(res)["verdict"] == "query-unsatisfied"


class TestFmt:
    def test_canonical_check_passes_on_golden(self):
        for path in sorted(GOLDEN.glob("*.gurag")):
            res = run_cli("fmt", "--check", str(path))
            assert res.exit_code == 0, path.name

    def test_normalizes_messy_input(self, tmp_path):
        f = tmp_path / "messy.gurag"
        f.write_text("role r\nattr a scope {y,x}   # comment\n")
        res = run_cli("fmt", str(f))
        assert res.exit_code == 0
        assert res.output == "attr a scope { x, y }\nrole r\nuser { groups = { } }\nrules {\n}\n"

    def test_check_fails_on_non_canonical(self, tmp_path):
        f = tmp_path / "messy.gurag"
        f.write_text("role r\nattr a scope { x }\n")
        res = run_cli("fmt", "--check", str(f))
        assert res.exit_code == 1

    def test_in_place(self, tmp_path):
        f = tmp_path / "messy.gurag"
        f.write_text("role r\nattr a scope { x }\n")
        res = run_cli("fmt", "--in-place", str(f))
        assert res.exit_code == 0
        assert f.read_text().startswith("attr a scope { x }\n")

    def test_in_place_keeps_the_mode_and_a_symlink(self, tmp_path):
        f = tmp_path / "messy.gurag"
        f.write_text("role r\nattr a scope { x }\n")
        f.chmod(0o640)
        link = tmp_path / "link.gurag"
        link.symlink_to(f.name)
        res = run_cli("fmt", "--in-place", str(link))
        assert (res.exit_code, res.stdout, res.stderr) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == f.name
        assert f.read_text().startswith("attr a scope { x }\n")
        assert stat.S_IMODE(f.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.gurag", "messy.gurag"]

    @pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_check_compares_line_ends(self, tmp_path, line_end):
        # the canonical text with other line ends reads the same, yet is not canonical
        f = tmp_path / "ends.gurag"
        raw = (GOLDEN / "chain.gurag").read_bytes().replace(b"\n", line_end)
        f.write_bytes(raw)
        res = run_cli("fmt", "--check", str(f))
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", "")
        assert f.read_bytes() == raw
        assert run_cli("fmt", "--in-place", str(f)).exit_code == 0
        assert f.read_bytes() == (GOLDEN / "chain.gurag").read_bytes()
        assert b"\r" not in f.read_bytes()
        assert run_cli("fmt", "--check", str(f)).exit_code == 0

    def test_check_with_in_place_is_a_usage_error(self, tmp_path):
        f = tmp_path / "messy.gurag"
        f.write_text("role r\nattr a scope { x }\n")
        res = run_cli("fmt", "--check", "--in-place", str(f))
        assert res.exit_code == 2
        assert "not allowed with argument" in res.stderr and res.stdout == ""
        assert f.read_text() == "role r\nattr a scope { x }\n"

    def test_parse_error_exit_code_and_diagnostics(self):
        path = MALFORMED / "m01.gurag"
        res = run_cli("fmt", str(path))
        assert res.exit_code == 3
        # positioned diagnostic on stderr (output is stdout then stderr)
        assert ":2:" in res.output and "error" in res.output


class TestFuzzCommand:
    def test_runs_and_reports(self):
        res = run_cli("fuzz", "--class", "nonneg", "--count", "25")
        assert res.exit_code == 0
        doc = report(res)
        assert doc["total"] == 25 and doc["diverge"] == 0

    def test_counts_each_status(self):
        # seed 1815 is a known divergence, and 12 states stop one oracle search
        res = run_cli("fuzz", "--class", "srd", "--seed", "1800", "--count", "20",
                      "--max-states", "12")
        assert res.exit_code == 0
        doc = report(res)
        counts = [doc[key] for key in ("total", "agree", "knownDivergences", "skipped", "diverge")]
        assert counts == [20, 18, 1, 1, 0] and doc["failures"] == []

    def test_reports_each_failure(self, monkeypatch):
        solve = search.solve_srd_no_delete

        def dropping_first_request(instance, q):
            res = solve(instance, q)
            return type(res).found(Plan(res.plan.requests[1:]), res.notes)

        monkeypatch.setattr(search, "solve_srd_no_delete", dropping_first_request)
        res = run_cli("fuzz", "--class", "srd", "--count", "1")
        assert res.exit_code == 1
        doc = report(res)
        assert doc["diverge"] == 1
        assert [(f["seed"], f["status"]) for f in doc["failures"]] == [(0, "invalid-plan")]
        assert doc["failures"][0]["detail"].startswith("srd plan")

    # nonneg seed 0 is reachable and seed 1 unreachable, by planner and oracle
    @pytest.mark.parametrize("name, patched, detail", [
        ("bfs_solve", lambda *args: search.Unreachable(0),
         "planner found a plan the oracle calls unreachable"),
        ("solve_no_negation", lambda instance, q: PlanResult.failed("patched out"),
         "oracle reachable but planner failed: patched out"),
    ], ids=["oracle-unreachable", "planner-failed"])
    def test_reports_each_divergence(self, monkeypatch, name, patched, detail):
        monkeypatch.setattr(search, name, patched)
        res = run_cli("fuzz", "--class", "nonneg", "--count", "2")
        assert res.exit_code == 1
        doc = report(res)
        assert (doc["agree"], doc["diverge"]) == (1, 1)
        assert doc["failures"] == [{"seed": 0, "status": "diverge", "detail": detail}]

    @pytest.mark.parametrize("count", ["-3", "-1", "x"])
    def test_malformed_count_is_usage_error(self, count):
        res = run_cli("fuzz", "--count", count)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "argument --count" in res.stderr


def test_missing_file_is_parse_error():
    res = run_cli("solve", "no/such/file.gurag")
    assert res.exit_code == 3


@pytest.mark.parametrize("command", ["classify", "solve", "oracle", "validate", "fmt"])
def test_non_utf8_file_is_positioned_parse_error(tmp_path, command):
    path = tmp_path / "bad.gurag"
    # CRLF and a lone CR both end a line; columns count characters, not bytes
    path.write_bytes(b"attr a scope { x }\r\nrole r\r# \xc3\xa9\n  role \xc3\xa9 \xff }\n")
    res = run_cli(command, str(path))
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"{path}:4:10: error: not UTF-8: cannot decode byte 0xff [not-utf8]\n"


@pytest.mark.parametrize("opener", ["(", "not("])
def test_nesting_limit(tmp_path, opener):
    path = tmp_path / "deep.gurag"
    path.write_text(nested_document(opener, MAX_NESTING))
    for command in ("classify", "solve", "oracle", "fmt"):
        assert run_cli(command, str(path)).exit_code == 0, command
    path.write_text(nested_document(opener, MAX_NESTING + 1))
    for command in ("classify", "solve", "oracle", "fmt"):
        res = run_cli(command, str(path))
        assert (res.exit_code, res.stdout) == (3, ""), command
        assert res.stderr.endswith(" [parse-too-deep]\n") and res.stderr.count("\n") == 1


def conjunction_document(n, negated=False):
    """``one_rule_document`` under ``n`` conjuncts ``x in direct(a)``, the
    whole negated if ``negated``."""
    pre = " and ".join(["x in direct(a)"] * n)
    return one_rule_document(f"not({pre})" if negated else pre)


def hierarchy_document(n):
    """A seniority chain ``G0 > G1 > ...`` of ``n`` groups; the user, once
    assigned ``G0``, holds ``G<n-1>``'s value ``y``."""
    return ("attr a scope { y }\n" + "".join(f"group G{i}\n" for i in range(n))
            + "".join(f"senior G{i} > G{i + 1}\n" for i in range(n - 1))
            + f"role r\ngroupstate G{n - 1} {{ a = {{ y }} }}\n"
            "rules {\n  rule canAssign : r , true -> G0\n}\nquery relaxed { e_a(u) = { y } }\n")


def srd_chain_document(n):
    """``n`` SR_d rules; the one adding ``v<i>`` needs ``v<i-1>`` and not ``z``."""
    rules = [f"  rule canAddU a : r , v{i - 1} in direct(a) and not(z in direct(a)) -> v{i}\n"
             for i in range(1, n)]
    return ("attr a scope { z, " + ", ".join(f"v{i}" for i in range(n)) + " }\nrole r\n"
            "rules {\n  rule canAddU a : r , not(z in direct(a)) -> v0\n" + "".join(rules)
            + f"}}\nquery relaxed {{ e_a(u) = {{ v{n - 1} }} }}\n")


@pytest.mark.parametrize("document, exits, engine", [
    pytest.param(conjunction_document(10_000), (0, 0, 0, 0), "nonneg", id="conjunction"),
    pytest.param(conjunction_document(1200, negated=True), (3, 3, 3, 3), None,
                 id="negated-conjunction"),
    pytest.param(hierarchy_document(1500), (0, 0, 0, 0), "nonneg", id="hierarchy"),
    # the plan is 2,000 requests long, past the oracle's depth bound
    pytest.param(srd_chain_document(2000), (0, 0, 2, 0), "srd", id="srd-chain"),
])
def test_long_input_does_not_exhaust_the_stack(tmp_path, document, exits, engine):
    # only parentheses nest, so no length of conjunction, hierarchy or chain
    # recurses deeper than MAX_NESTING
    path = tmp_path / "long.gurag"
    path.write_text(document)
    results = {command: run_cli(command, str(path))
               for command in ("classify", "solve", "oracle", "fmt")}
    assert {c: r.exit_code for c, r in results.items()} == dict(zip(results, exits))
    for res in results.values():
        if res.exit_code == 3:
            assert (res.stdout, res.stderr) == (
                "", f"{path}:5:8: error: precondition expands to more than 64 clauses "
                "[too-many-clauses]\n")
    if engine is not None:
        assert report(results["solve"])["engine"] == engine
        assert report(results["solve"])["outcome"] == "reachable"
    if results["fmt"].exit_code == 0:
        assert parse(results["fmt"].stdout).instance == parse(document).instance


class TestPlainRun:
    """``COMMAND FILE`` with no option skips argparse, with the same result."""

    @pytest.mark.parametrize("command", cli.DEFAULTS)
    def test_namespace_is_the_parsers(self, command):
        argv = [command, str(GOLDEN / "chain.gurag")]
        assert vars(cli._plain(argv)) == vars(cli._parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["solve"], ["fuzz", "x"], ["solve", "-"], ["solve", "--", "x"], ["solve", "--timing"],
        ["solve", "x", "--timing"], ["solve", "--timing", "x"], ["--help", "x"], ["x", "y"],
    ])
    def test_any_other_argv_is_parsed(self, argv):
        assert cli._plain(argv) is None

    @pytest.mark.parametrize("path", sorted([*GOLDEN.glob("*.gurag"), *MALFORMED.glob("*.gurag")]),
                             ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_run_is_the_parsed_run(self, path):
        # ``--`` ends the options, so the second run goes through argparse
        for command in cli.DEFAULTS:
            assert run_cli(command, str(path)) == run_cli(command, "--", str(path)), command


def test_version():
    res = run_cli("--version")
    assert res.exit_code == 0
    assert res.stdout == "gurag-reach, version 0.1.0\n"


@pytest.mark.parametrize("flag,severity", [("1", "\x1b[31merror\x1b[0m"), ("0", "error")])
def test_color_flag_applies_when_stderr_is_not_a_tty(flag, severity):
    path = MALFORMED / "m01.gurag"
    res = run_cli("classify", str(path), env={"GURAG_REACH_COLOR": flag})
    assert res.exit_code == 3
    assert res.stderr == f"{path}:2:16: {severity}: unexpected character '$' [lex-unexpected-char]\n"


def test_hierarchy_cycle_diagnostic_ignores_hash_seed():
    path = MALFORMED / "m50.gurag"
    runs = [subprocess.run([sys.executable, "-m", "gurag_reach.cli", "classify", str(path)],
                           capture_output=True, text=True,
                           env=child_env(PYTHONHASHSEED=str(seed), GURAG_REACH_COLOR="0"))
            for seed in (0, 3)]
    expected = f"{path}:1:1: error: cycle in group hierarchy through 'G1' [hierarchy-cycle]\n"
    assert [(r.returncode, r.stderr) for r in runs] == [(3, expected)] * 2


class _FullDisk(io.StringIO):
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestProcessEntry:
    """``run``, the entry of ``gurag-reach`` and ``python -m gurag_reach.cli``."""

    @staticmethod
    def run_entry(monkeypatch, *argv, stdout):
        """``run`` on ``argv`` in this process with ``stdout`` and no freeze:
        its exit code and stderr."""
        monkeypatch.setattr(gc, "freeze", lambda: None)
        monkeypatch.setattr(sys, "argv", ["gurag-reach", *argv])
        monkeypatch.setattr(sys, "stdout", stdout)
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.run()
        return exc.value.code, err.getvalue()

    def test_main_leaves_the_collector_alone(self):
        before = gc.get_freeze_count(), gc.isenabled()
        assert run_cli("solve", str(GOLDEN / "chain.gurag")).exit_code == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_run_freezes_before_main_and_exits_with_its_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 4)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert (calls, exc.value.code) == (["freeze", "main"], 4)

    @pytest.mark.parametrize("command", ["solve", "fmt"])
    def test_report_on_a_full_disk_is_an_internal_failure(self, monkeypatch, command):
        path = str(GOLDEN / "chain.gurag")
        assert self.run_entry(monkeypatch, command, path, stdout=_FullDisk()) == (
            5, "error: cannot write stdout: No space left on device\n")

    def test_stdout_closed_at_start_is_an_internal_failure(self, monkeypatch):
        assert self.run_entry(monkeypatch, "solve", str(GOLDEN / "chain.gurag"), stdout=None) == (
            5, "error: cannot write stdout: Bad file descriptor\n")

    def in_place_failure(self, monkeypatch, tmp_path):
        """``fmt --in-place`` through ``run`` on a non-canonical copy of a
        golden file: its exit code and stderr, once the file is checked to
        keep its bytes and to be the only file in its directory."""
        path = tmp_path / "chain.gurag"
        before = (GOLDEN / "chain.gurag").read_bytes().replace(b"\n", b"\n\n")
        path.write_bytes(before)
        result = self.run_entry(monkeypatch, "fmt", "--in-place", str(path), stdout=io.StringIO())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["chain.gurag"]
        return result

    def test_in_place_write_failure_is_an_internal_failure(self, monkeypatch, tmp_path):
        fdopen = os.fdopen

        class TooLarge:  # the file a write beyond ``ulimit -f`` fails on
            def __init__(self, fd, *args, **kwargs):
                self.fh = fdopen(fd, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        monkeypatch.setattr(os, "fdopen", TooLarge)
        assert self.in_place_failure(monkeypatch, tmp_path) == (
            5, f"error: cannot write {tmp_path / 'chain.gurag'}: File too large\n")

    def test_in_place_replace_failure_is_an_internal_failure(self, monkeypatch, tmp_path):
        def refuse(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        assert self.in_place_failure(monkeypatch, tmp_path) == (
            5, f"error: cannot write {tmp_path / 'chain.gurag'}: Permission denied\n")

    def test_module_entry_matches_main(self, tmp_path):
        unreachable = tmp_path / "u.gurag"
        unreachable.write_text("attr a scope { x }\nrole r\nrules {\n}\n"
                               "query strict { e_a(u) = { x } }\n")
        cases = [  # one per exit code from 0 to 4
            ["solve", str(GOLDEN / "chain.gurag")],
            ["solve", str(unreachable)],
            ["solve", "--max-depth", "0", str(GOLDEN / "chain.gurag")],
            ["solve", str(MALFORMED / "m01.gurag")],
            ["solve", "--engine", "nonneg", str(GOLDEN / "roomadmin.gurag")],
        ]
        env = child_env(GURAG_REACH_COLOR="0")
        for code, argv in enumerate(cases):
            child = subprocess.run([sys.executable, "-m", "gurag_reach.cli", *argv],
                                   capture_output=True, text=True, env=env)
            res = run_cli(*argv)
            assert res.exit_code == code, argv
            assert (child.returncode, child.stdout, child.stderr) == (
                code, res.stdout, res.stderr), argv
        path = tmp_path / "chain.gurag"
        path.write_bytes((GOLDEN / "chain.gurag").read_bytes().replace(b"\n", b"\n\n"))
        child = subprocess.run([sys.executable, "-m", "gurag_reach.cli", "fmt", "--in-place",
                                str(path)], capture_output=True, env=env)
        assert (child.returncode, child.stdout, child.stderr) == (0, b"", b"")
        assert path.read_bytes() == run_cli("fmt", str(GOLDEN / "chain.gurag")).stdout.encode()

    # --version writes through argparse, which then exits
    @pytest.mark.parametrize("argv", [["solve", str(GOLDEN / "chain.gurag")], ["--version"]])
    def test_full_disk_in_a_child(self, argv):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            child = subprocess.run([sys.executable, "-m", "gurag_reach.cli", *argv],
                                   stdout=full, stderr=subprocess.PIPE, text=True,
                                   env=child_env(GURAG_REACH_COLOR="0"))
        assert (child.returncode, child.stderr) == (
            5, "error: cannot write stdout: No space left on device\n")
