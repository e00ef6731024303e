"""Command-line front end.

Subcommands: ``classify``, ``solve``, ``validate``, ``oracle``, ``fmt``,
``fuzz``.  Machine-readable output is a single JSON document on stdout
(schema version 1, stable key order, no timing fields unless ``--timing`` is
given, so identical inputs produce identical bytes).  Diagnostics go to
stderr as ``file:line:col: severity: message [code]``; color is controlled by
the ``GURAG_REACH_COLOR`` environment variable (``1`` forces on, ``0`` off,
otherwise follows the tty).

Exit codes: 0 reachable/valid/clean, 1 unreachable/invalid, 2 bound
exceeded, 3 parse error, 4 restriction violation, 5 internal failure.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Optional

import click

from . import __version__
from .dsl import Diagnostic, ParseResult, parse, serialize
from .fuzz import CLASSES, run_fuzz
from .model import ProblemInstance, validate_instance
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


def _use_color() -> bool:
    import os

    flag = os.environ.get("GURAG_REACH_COLOR", "")
    if flag == "1":
        return True
    if flag == "0":
        return False
    return sys.stderr.isatty()


def _emit_diagnostics(path: str, diags: list[Diagnostic]):
    color = _use_color()
    for d in sorted(diags, key=lambda d: (d.line, d.column)):
        loc = f"{path}:{d.line}:{d.column}:"
        sev = d.severity
        if color:
            code = "31" if sev == "error" else "33"
            sev = f"\x1b[{code}m{sev}\x1b[0m"
        click.echo(f"{loc} {sev}: {d.message} [{d.code}]", err=True)


def _load(path: str) -> ParseResult:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        click.echo(f"{path}: {exc.strerror}", err=True)
        sys.exit(EXIT_PARSE)
    result = parse(source)
    _emit_diagnostics(path, result.diagnostics)
    return result


def _require_instance(result: ParseResult, path: str) -> ProblemInstance:
    if not result.ok:
        sys.exit(EXIT_PARSE)
    problems = validate_instance(result.instance)
    if problems:
        for p in problems:
            click.echo(f"{path}: error: {p}", err=True)
        sys.exit(EXIT_PARSE)
    return result.instance


def _pick_query(result: ParseResult, index: int, path: str) -> ReachabilityQuery:
    if not result.queries:
        click.echo(f"{path}: error: no query in file", err=True)
        sys.exit(EXIT_PARSE)
    if not 0 <= index < len(result.queries):
        click.echo(
            f"{path}: error: query index {index} out of range "
            f"(file has {len(result.queries)})", err=True)
        sys.exit(EXIT_PARSE)
    return result.queries[index]


def _report(doc: dict, timing: bool, elapsed_ms: Optional[float]):
    doc = {"schemaVersion": SCHEMA_VERSION, **doc}
    if timing and elapsed_ms is not None:
        doc["elapsedMs"] = round(elapsed_ms, 3)
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


@click.group()
@click.version_option(__version__, prog_name="gurag-reach")
def main():
    """Reachability analysis for user attributes under administrative rules."""


@main.command()
@click.argument("file", type=click.Path())
def classify(file):
    """Report the rule-set level and restriction flags."""
    result = _load(file)
    instance = _require_instance(result, file)
    flags = check_restrictions(instance.rules)
    _report({
        "level": flags.level.value,
        "noNegation": flags.no_negation,
        "noDeletion": flags.no_deletion,
        "singleRuleDirect": flags.single_rule_direct,
        "rules": len(instance.rules),
        "groups": len(instance.groups),
        "attributes": list(instance.attributes),
    }, timing=False, elapsed_ms=None)


def _bounds(max_depth, max_states, max_ms) -> SearchBounds:
    try:
        return SearchBounds(max_depth, max_states, max_ms)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _bound_options(command):
    """--max-depth, --max-states and --max-ms, defaulting to ``SearchBounds()``."""
    default = SearchBounds()
    for name, value in (("--max-ms", default.max_millis), ("--max-states", default.max_states),
                        ("--max-depth", default.max_depth)):
        command = click.option(name, default=value, show_default=True)(command)
    return command


_bfs_kernel = click.option(
    "--kernel", "kernel_name", default="auto",
    type=click.Choice(["auto", "python", "compiled"]),
    help="Search kernel for the exhaustive engine.")

_EXIT_FOR = {"reachable": EXIT_OK, "unreachable": EXIT_NEGATIVE, "bound-exceeded": EXIT_BOUND}


def _answer(file, query_index, engine, bounds, kernel_name, timing, with_kernel):
    """Run ``analyze`` on one query of a file, print its report and exit."""
    result = _load(file)
    instance = _require_instance(result, file)
    q = _pick_query(result, query_index, file)
    bounds = _bounds(*bounds)
    start = time.monotonic()
    try:
        answer = analyze(instance, q, engine, bounds, kernel_name)
    except RestrictionViolation as exc:
        click.echo(f"error: engine {engine!r} not applicable: {exc}", err=True)
        sys.exit(EXIT_RESTRICTION)
    except RuntimeError as exc:  # an unavailable kernel or a plan that fails replay
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)
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
    if with_kernel:
        doc["kernel"] = answer.kernel
    _report(doc, timing, (time.monotonic() - start) * 1000)
    sys.exit(_EXIT_FOR[answer.outcome])


@main.command()
@click.argument("file", type=click.Path())
@click.option("--query", "query_index", default=0, show_default=True,
              help="Index of the query to solve (files may hold several).")
@click.option("--engine", default="auto", show_default=True,
              type=click.Choice(["auto", "nonneg", "srd", "bfs"]),
              help="auto picks the cheapest engine the rule set admits.")
@_bound_options
@_bfs_kernel
@click.option("--timing", is_flag=True, help="Include elapsedMs in the report.")
def solve(file, query_index, engine, max_depth, max_states, max_ms, kernel_name, timing):
    """Decide reachability and print a plan when one exists."""
    _answer(file, query_index, engine, (max_depth, max_states, max_ms), kernel_name, timing,
            with_kernel=False)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--query", "query_index", default=0, show_default=True)
@click.option("--plan", "plan_index", default=0, show_default=True,
              help="Index of the plan to validate.")
@click.option("--timing", is_flag=True)
def validate(file, query_index, plan_index, timing):
    """Replay a plan from the file and check it satisfies the query."""
    result = _load(file)
    instance = _require_instance(result, file)
    q = _pick_query(result, query_index, file)
    if not 0 <= plan_index < len(result.plans):
        click.echo(f"{file}: error: plan index {plan_index} out of range "
                   f"(file has {len(result.plans)})", err=True)
        sys.exit(EXIT_PARSE)
    plan = result.plans[plan_index]
    start = time.monotonic()
    verdict = validate_plan(instance, plan, q)
    elapsed = (time.monotonic() - start) * 1000
    if isinstance(verdict, Valid):
        _report({"verdict": "valid", "steps": len(plan)}, timing, elapsed)
        sys.exit(EXIT_OK)
    if isinstance(verdict, InvalidAt):
        _report({"verdict": "invalid", "failedAt": verdict.index,
                 "reason": verdict.reason,
                 "request": plan.requests[verdict.index].render()}, timing, elapsed)
        sys.exit(EXIT_NEGATIVE)
    _report({"verdict": "query-unsatisfied", "steps": len(plan)}, timing, elapsed)
    sys.exit(EXIT_NEGATIVE)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--query", "query_index", default=0, show_default=True)
@_bound_options
@_bfs_kernel
@click.option("--timing", is_flag=True)
def oracle(file, query_index, max_depth, max_states, max_ms, kernel_name, timing):
    """Exhaustive bounded search, ignoring any restriction structure."""
    _answer(file, query_index, "bfs", (max_depth, max_states, max_ms), kernel_name, timing,
            with_kernel=True)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--check", is_flag=True,
              help="Exit 1 if the file is not already canonical; write nothing.")
@click.option("--in-place", is_flag=True, help="Rewrite the file canonically.")
def fmt(file, check, in_place):
    """Reprint a file in canonical form (sorted declarations, fixed spacing)."""
    try:
        with open(file, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        click.echo(f"{file}: {exc.strerror}", err=True)
        sys.exit(EXIT_PARSE)
    result = parse(source)
    _emit_diagnostics(file, result.diagnostics)
    if not result.ok:
        sys.exit(EXIT_PARSE)
    canon = serialize(result.instance, result.queries, result.plans)
    if check:
        sys.exit(EXIT_OK if canon == source else EXIT_NEGATIVE)
    if in_place:
        with open(file, "w", encoding="utf-8") as fh:
            fh.write(canon)
    else:
        click.echo(canon, nl=False)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--class", "cls", default="nonneg", show_default=True,
              type=click.Choice(list(CLASSES)))
@click.option("--count", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@_bound_options
def fuzz(cls, count, seed, max_depth, max_states, max_ms):
    """Generate seeded cases and compare the planners against the oracle."""
    bounds = _bounds(max_depth, max_states, max_ms)
    stats = run_fuzz(cls, count, seed, bounds)
    _report({
        "class": cls,
        "seed": seed,
        "total": stats.total,
        "agree": stats.agree,
        "knownDivergences": stats.known,
        "skipped": stats.skipped,
        "diverge": stats.diverge,
        "failures": [
            {"seed": c.seed, "status": c.status, "detail": c.detail}
            for c in stats.failures
        ],
    }, timing=False, elapsed_ms=None)
    sys.exit(EXIT_OK if stats.diverge == 0 else EXIT_NEGATIVE)


if __name__ == "__main__":
    main()
