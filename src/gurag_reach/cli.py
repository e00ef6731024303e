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
violation, 5 internal failure, output that cannot be written included.

``run`` is the process entry of ``gurag-reach`` and ``python -m
gurag_reach.cli``; it freezes the heap the imports built.  ``main`` serves
in-process callers and leaves the garbage collector alone.

A plain run, ``COMMAND FILE`` for a command that reads a FILE and a FILE not
starting with ``-``, fills its namespace from ``DEFAULTS`` without importing
argparse; every other argument list, options, ``--``, ``--help``, ``fuzz`` and
usage errors included, goes through ``_parser``.
"""

from __future__ import annotations

import contextlib
import errno
import gc
import json
import os
import stat
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Optional

from . import __version__, _kernel_py
from .dsl import Diagnostic, ParseResult, parse, serialize
from .planner import RestrictionViolation
from .search import SearchBounds, analyze
from .transition import InvalidAt, ReachabilityQuery, Valid, validate_plan

if TYPE_CHECKING:
    import argparse

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
    flags = instance.rules.restrictions
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
    """``solve``, and ``oracle`` as ``solve --engine bfs`` plus the one kernel's name."""
    result, q = _load_query(args)
    bounds = _bounds(args)
    start = time.monotonic()
    try:
        answer = analyze(result.instance, q, args.engine, bounds)
    except RestrictionViolation as exc:
        _fail(f"error: engine {args.engine!r} not applicable: {exc}", EXIT_RESTRICTION)
    except (RuntimeError, MemoryError) as exc:
        # a plan that fails replay, or a search out of memory
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
        doc["kernel"] = _kernel_py.KERNEL_NAME
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
        _replace(args.file, canon)
    else:
        print(canon, end="")
    return EXIT_OK


def _replace(path: str, text: str):
    """Make ``text`` the content of the file at ``path``, a symlink's target
    for a symlink, with its permission bits kept: written beside it first, then
    renamed over it, so a failed write leaves it as it was and exits 5."""
    import tempfile  # ~10 ms of imports that only this path needs

    target = os.path.realpath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".gurag-fmt-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        _fail(f"error: cannot write {path}: {exc.strerror or exc}", EXIT_INTERNAL)


def fuzz(args: argparse.Namespace) -> int:
    from .fuzz import run_fuzz

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

_BOUND = SearchBounds()
_BOUNDS = {"max_depth": _BOUND.max_depth, "max_states": _BOUND.max_states,
           "max_ms": _BOUND.max_millis}
_SEARCH = {"query": 0, "timing": False, **_BOUNDS}
# the options of each command that reads a FILE, with their defaults: the
# values of a plain run and the defaults ``_parser`` declares
DEFAULTS = {
    "classify": {},
    "solve": {**_SEARCH, "engine": "auto"},
    "validate": {"query": 0, "plan": 0, "timing": False},
    "oracle": {**_SEARCH, "engine": "bfs"},
    "fmt": {"check": False, "in_place": False},
}


def _non_negative(text: str) -> int:
    """A case count or an index: a non-negative integer, else a usage error."""
    import argparse

    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _parser() -> argparse.ArgumentParser:
    import argparse

    from .fuzz import CLASSES

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
            sub.set_defaults(**DEFAULTS[name])  # the option defaults, parents' included
        return sub

    bounds = argparse.ArgumentParser(add_help=False)
    bounds.set_defaults(**_BOUNDS)
    bounds.add_argument("--max-depth", type=int, help="Deepest plan the search explores.")
    bounds.add_argument("--max-states", type=int, help="Most states the search visits.")
    bounds.add_argument("--max-ms", type=int,
                        help="Wall-clock limit of the search in milliseconds.")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--query", type=_non_negative,
                        help="Index of the query to solve (files may hold several).")
    search.add_argument("--timing", action="store_true", help="Include elapsedMs in the report.")

    command("classify", "Report the rule-set level and restriction flags.")
    sub = command("solve", "Decide reachability and print a plan when one exists.",
                  [search, bounds])
    sub.add_argument("--engine", choices=["auto", "nonneg", "srd", "bfs"],
                     help="auto picks the cheapest engine the rule set admits.")
    sub = command("validate", "Replay a plan from the file and check it satisfies the query.")
    sub.add_argument("--query", type=_non_negative, help="Index of the query.")
    sub.add_argument("--plan", type=_non_negative, help="Index of the plan to validate.")
    sub.add_argument("--timing", action="store_true", help="Include elapsedMs in the report.")
    command("oracle", "Exhaustive bounded search, ignoring any restriction structure.",
            [search, bounds])
    sub = command("fmt", "Reprint a file in canonical form (sorted declarations, fixed spacing).")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="Exit 1 if the file is not already canonical; write nothing.")
    mode.add_argument("--in-place", action="store_true", help="Rewrite the file canonically.")
    sub = command("fuzz", "Generate seeded cases and compare an engine with the oracle: the "
                  "planner of the class for nonneg and srd, auto mode for any.",
                  [bounds], file=False)
    sub.add_argument("--class", dest="cls", default="nonneg", choices=CLASSES,
                     help="Rule-set class of the generated cases.")
    sub.add_argument("--count", type=_non_negative, default=100, help="Number of cases.")
    sub.add_argument("--seed", type=int, default=0, help="Seed of the first case.")
    return parser


def _plain(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace ``_parser`` gives a plain run, ``COMMAND FILE`` with a
    FILE not starting with ``-``, or None for any other ``argv``."""
    if len(argv) == 2 and argv[0] in DEFAULTS and not argv[1].startswith("-"):
        return SimpleNamespace(command=argv[0], file=argv[1], **DEFAULTS[argv[0]])
    return None


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return its exit code.

    A plain run takes its command's ``DEFAULTS`` without building the
    argument parser; every other ``argv`` is parsed by ``_parser``.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _plain(argv) or _parser().parse_args(argv)
    return COMMANDS[args.command](args)


def run() -> NoReturn:
    """Exit with ``main``'s code on ``sys.argv[1:]`` once stdout is flushed.

    What the imports built lives until exit, so ``gc.freeze()`` takes it out
    of the collector's view: neither this run's collections nor the
    interpreter's shutdown ones traverse it, and exit reclaims its cyclic
    garbage with the process.  Output that cannot be written exits 5.
    """
    gc.freeze()
    if sys.stdout is None:  # the interpreter started with stdout closed
        _fail(f"error: cannot write stdout: {os.strerror(errno.EBADF)}", EXIT_INTERNAL)
    try:
        try:
            code = main()
        finally:  # also after a SystemExit, such as argparse's
            sys.stdout.flush()
    except OSError as exc:  # a report; ``fmt --in-place`` reports its own file
        with contextlib.suppress(OSError):
            sys.stdout.close()  # drops what is still buffered, so exit retries no write
        _fail(f"error: cannot write stdout: {exc.strerror or exc}", EXIT_INTERNAL)
    sys.exit(code)


if __name__ == "__main__":
    run()
