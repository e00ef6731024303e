"""Command-line front end.

Subcommands: ``classify``, ``solve``, ``validate``, ``oracle``, ``fmt``,
``fuzz``.  Machine-readable output is a single JSON document on stdout
(schema version 1, stable key order, no timing fields unless ``--timing`` is
given, so identical inputs produce identical bytes).  Diagnostics go to
stderr as ``file:line:col: severity: message [code]``; color is controlled by
the ``GURAG_REACH_COLOR`` environment variable (``1`` forces on, ``0`` off,
otherwise follows the tty).

Exit codes: 0 reachable/valid/clean, 1 unreachable/invalid, 2 bound
exceeded or a command-line usage error, 3 parse error, 4 restriction
violation, 5 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NoReturn, Optional

from . import __version__
from .dsl import Diagnostic, ParseResult, parse, serialize
from .fuzz import CLASSES, run_fuzz
from .planner import RestrictionViolation
from .policy import check_restrictions
from .search import SearchBounds, analyze
from .transition import InvalidAt, ReachabilityQuery, Valid, validate_plan

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BOUND = 2
EXIT_PARSE = 3
EXIT_RESTRICTION = 4
EXIT_INTERNAL = 5

SCHEMA_VERSION = 1


def _fail(message: str, code: int) -> NoReturn:
    print(message, file=sys.stderr)
    sys.exit(code)


def _use_color() -> bool:
    flag = os.environ.get("GURAG_REACH_COLOR", "")
    if flag in ("0", "1"):
        return flag == "1"
    return sys.stderr.isatty()


def _emit_diagnostics(path: str, diags: list[Diagnostic]):
    color = _use_color()
    for d in sorted(diags, key=lambda d: (d.line, d.column)):
        sev = d.severity
        if color:
            code = "31" if sev == "error" else "33"
            sev = f"\x1b[{code}m{sev}\x1b[0m"
        print(f"{path}:{d.line}:{d.column}: {sev}: {d.message} [{d.code}]", file=sys.stderr)


def _load(path: str) -> tuple[bytes, ParseResult]:
    """The file's bytes and the parse of its text, CRLF and lone CR read as LF;
    exits 3 unless it parses cleanly, the one check before any engine runs."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        # no byte of a multi-byte UTF-8 character is a CR or an LF
        source = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode("utf-8")
    except OSError as exc:
        _fail(f"{path}: {exc.strerror}", EXIT_PARSE)
    except UnicodeDecodeError as exc:
        # exc.object holds the whole file with its line ends read as LF;
        # columns count characters, as the parser does
        before = exc.object[:exc.start].decode("utf-8")
        _emit_diagnostics(path, [Diagnostic(
            "error", before.count("\n") + 1, len(before) - before.rfind("\n"),
            f"not UTF-8: cannot decode byte 0x{exc.object[exc.start]:02x}", "not-utf8")])
        sys.exit(EXIT_PARSE)
    result = parse(source)
    _emit_diagnostics(path, result.diagnostics)
    if not result.ok:
        sys.exit(EXIT_PARSE)
    return raw, result


def _pick(path: str, what: str, items: list, index: int):
    if index >= len(items):  # argparse has refused a negative index
        _fail(f"{path}: error: {what} index {index} out of range (file has {len(items)})",
              EXIT_PARSE)
    return items[index]


def _load_query(args: argparse.Namespace) -> tuple[ParseResult, ReachabilityQuery]:
    """``_load`` and the query that ``--query`` picks from the file."""
    result = _load(args.file)[1]
    if not result.queries:
        _fail(f"{args.file}: error: no query in file", EXIT_PARSE)
    return result, _pick(args.file, "query", result.queries, args.query)


def _bounds(args: argparse.Namespace) -> SearchBounds:
    try:
        return SearchBounds(args.max_depth, args.max_states, args.max_ms)
    except ValueError as exc:
        _fail(f"error: {exc}", EXIT_BOUND)  # a usage error: code 2, as argparse gives


def _report(doc: dict, elapsed_ms: Optional[float] = None):
    doc = {"schemaVersion": SCHEMA_VERSION, **doc}
    if elapsed_ms is not None:
        doc["elapsedMs"] = round(elapsed_ms, 3)
    print(json.dumps(doc, indent=2, sort_keys=True))


def classify(args: argparse.Namespace) -> int:
    instance = _load(args.file)[1].instance
    flags = check_restrictions(instance.rules)
    _report({
        "level": flags.level.value,
        "noNegation": flags.no_negation,
        "noDeletion": flags.no_deletion,
        "singleRuleDirect": flags.single_rule_direct,
        "rules": len(instance.rules),
        "groups": len(instance.groups),
        "attributes": list(instance.attributes),
    })
    return EXIT_OK


_EXIT_FOR = {"reachable": EXIT_OK, "unreachable": EXIT_NEGATIVE, "bound-exceeded": EXIT_BOUND}


def solve(args: argparse.Namespace) -> int:
    """``solve``, and ``oracle`` as ``solve --engine bfs`` that also names the kernel."""
    result, q = _load_query(args)
    bounds = _bounds(args)
    start = time.monotonic()
    try:
        answer = analyze(result.instance, q, args.engine, bounds, args.kernel)
    except RestrictionViolation as exc:
        _fail(f"error: engine {args.engine!r} not applicable: {exc}", EXIT_RESTRICTION)
    except (RuntimeError, MemoryError) as exc:
        # an unavailable kernel, a plan that fails replay, or a search out of memory
        _fail(f"error: {str(exc) or 'out of memory'}", EXIT_INTERNAL)
    doc = {
        "engine": answer.engine,
        "outcome": answer.outcome,
        "plan": None if answer.plan is None else [r.render() for r in answer.plan],
        "reason": answer.reason,
        "notes": list(answer.notes),
        "statesExplored": answer.states_explored,
    }
    if answer.bound is not None:
        doc["bound"] = answer.bound
    if args.command == "oracle":
        doc["kernel"] = answer.kernel
    _report(doc, (time.monotonic() - start) * 1000 if args.timing else None)
    return _EXIT_FOR[answer.outcome]


def validate(args: argparse.Namespace) -> int:
    result, q = _load_query(args)
    plan = _pick(args.file, "plan", result.plans, args.plan)
    start = time.monotonic()
    verdict = validate_plan(result.instance, plan, q)
    elapsed = (time.monotonic() - start) * 1000 if args.timing else None
    if isinstance(verdict, Valid):
        _report({"verdict": "valid", "steps": len(plan)}, elapsed)
        return EXIT_OK
    if isinstance(verdict, InvalidAt):
        _report({"verdict": "invalid", "failedAt": verdict.index,
                 "reason": verdict.reason,
                 "request": plan.requests[verdict.index].render()}, elapsed)
        return EXIT_NEGATIVE
    _report({"verdict": "query-unsatisfied", "steps": len(plan)}, elapsed)
    return EXIT_NEGATIVE


def fmt(args: argparse.Namespace) -> int:
    raw, result = _load(args.file)
    canon = serialize(result.instance, result.queries, result.plans)
    if args.check:  # canonical means the same bytes, line ends included
        return EXIT_OK if canon.encode("utf-8") == raw else EXIT_NEGATIVE
    if args.in_place:
        with open(args.file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(canon)
    else:
        print(canon, end="")
    return EXIT_OK


def fuzz(args: argparse.Namespace) -> int:
    cases = run_fuzz(args.cls, args.count, args.seed, _bounds(args))
    statuses = [c.status for c in cases]
    # every other status ("diverge", "invalid-plan") is a failure
    failures = [c for c in cases if c.status not in ("agree", "known-divergence", "skipped")]
    _report({
        "class": args.cls,
        "seed": args.seed,
        "total": len(cases),
        "agree": statuses.count("agree"),
        "knownDivergences": statuses.count("known-divergence"),
        "skipped": statuses.count("skipped"),
        "diverge": len(failures),
        "failures": [{"seed": c.seed, "status": c.status, "detail": c.detail} for c in failures],
    })
    return EXIT_OK if not failures else EXIT_NEGATIVE


COMMANDS = {"classify": classify, "solve": solve, "validate": validate, "oracle": solve,
            "fmt": fmt, "fuzz": fuzz}


def _non_negative(text: str) -> int:
    """A case count or an index: a non-negative integer, else a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gurag-reach",
        description="Reachability analysis for user attributes under administrative rules.")
    parser.add_argument("--version", action="version",
                        version=f"gurag-reach, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, description, parents=(), file=True):
        sub = commands.add_parser(name, parents=list(parents), help=description,
                                  description=description, allow_abbrev=False,
                                  formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if file:
            sub.add_argument("file", metavar="FILE")
        return sub

    default = SearchBounds()
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--max-depth", type=int, default=default.max_depth,
                        help="Deepest plan the search explores.")
    bounds.add_argument("--max-states", type=int, default=default.max_states,
                        help="Most states the search visits.")
    bounds.add_argument("--max-ms", type=int, default=default.max_millis,
                        help="Wall-clock limit of the search in milliseconds.")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--query", type=_non_negative, default=0,
                        help="Index of the query to solve (files may hold several).")
    search.add_argument("--kernel", default="auto", choices=["auto", "python", "compiled"],
                        help="Search kernel for the exhaustive engine.")
    search.add_argument("--timing", action="store_true", help="Include elapsedMs in the report.")

    command("classify", "Report the rule-set level and restriction flags.")
    sub = command("solve", "Decide reachability and print a plan when one exists.",
                  [search, bounds])
    sub.add_argument("--engine", default="auto", choices=["auto", "nonneg", "srd", "bfs"],
                     help="auto picks the cheapest engine the rule set admits.")
    sub = command("validate", "Replay a plan from the file and check it satisfies the query.")
    sub.add_argument("--query", type=_non_negative, default=0, help="Index of the query.")
    sub.add_argument("--plan", type=_non_negative, default=0, help="Index of the plan to validate.")
    sub.add_argument("--timing", action="store_true", help="Include elapsedMs in the report.")
    command("oracle", "Exhaustive bounded search, ignoring any restriction structure.",
            [search, bounds]).set_defaults(engine="bfs")
    sub = command("fmt", "Reprint a file in canonical form (sorted declarations, fixed spacing).")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="Exit 1 if the file is not already canonical; write nothing.")
    mode.add_argument("--in-place", action="store_true", help="Rewrite the file canonically.")
    sub = command("fuzz", "Generate seeded cases and compare the planners against the oracle.",
                  [bounds], file=False)
    sub.add_argument("--class", dest="cls", default="nonneg", choices=CLASSES,
                     help="Rule-set class of the generated cases.")
    sub.add_argument("--count", type=_non_negative, default=100, help="Number of cases.")
    sub.add_argument("--seed", type=int, default=0, help="Seed of the first case.")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return its exit code."""
    args = _parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
