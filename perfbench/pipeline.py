"""One query through the engine's public functions, with optional spans.

A query runs the pipeline the README promises: ``parse`` ->
``validate_instance`` -> engine choice (the rule of ``gurag-reach solve``,
including the srd->bfs fallback on ``group-cycle-discarded``) -> solve ->
``validate_plan`` on any plan -> the JSON report that the CLI prints.  The CLI
does not replay plans yet; the replay is timed here anyway, so the in-process
numbers do not move when the replay moves into the program.

The bfs engine is called through its finer public functions
(``compile_instance``, ``compile_query``, ``encode_state``,
``kernel.select(...).bfs`` and plan decode through ``ci.candidates``) in both
the timed and the traced runs.  The traced run passes a ``Tracer``, which
records a span around each call; the timed run passes ``NULL``, whose methods
do nothing, so the two runs execute the same code.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from gurag_reach import _kernel_py, kernel
from gurag_reach.cli import (
    EXIT_BOUND,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESTRICTION,
    SCHEMA_VERSION,
)
from gurag_reach.dsl import parse
from gurag_reach.encoding import compile_instance
from gurag_reach.model import validate_instance
from gurag_reach.planner import (
    NOTE_GROUP_CYCLE,
    RestrictionViolation,
    solve_no_negation,
    solve_srd_no_delete,
)
from gurag_reach.policy import check_restrictions
from gurag_reach.search import SearchBounds
from gurag_reach.transition import InvalidAt, Plan, Valid, validate_plan

_BOUND_NAMES = {
    _kernel_py.DEPTH_EXCEEDED: "depth",
    _kernel_py.STATES_EXCEEDED: "states",
    _kernel_py.MILLIS_EXCEEDED: "millis",
}


class Tracer:
    """Spans (name, start ns, end ns, parent index, query id) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {}
        self.qid: Optional[str] = None
        self._open: list[int] = []

    def begin(self, name: str):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.qid])

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter_ns()

    def count(self, name: str, value: int):
        total = self.counts.setdefault(name, [0, 0])
        total[0] += value
        total[1] += 1

    def abandon(self):
        """Close spans left open by a query that raised."""
        while self._open:
            self.end()


class _NullTracer:
    qid = None

    def begin(self, name):
        pass

    def end(self):
        pass

    def count(self, name, value):
        pass

    def abandon(self):
        pass


NULL = _NullTracer()


@dataclass
class Outcome:
    code: int
    report: str                  # JSON text as the CLI prints it, without the newline
    verdict: str                 # reachable | unreachable | bound-exceeded | valid | ...
    plan: Optional[Plan] = None  # the plan the engine reported
    replay: Optional[str] = None  # validate_plan verdict of that plan
    states: Optional[int] = None  # states explored by the bfs kernel
    kernel: Optional[str] = None  # the bfs kernel that ran


def _render(doc: dict, tr) -> str:
    tr.begin("report.json")
    text = json.dumps({"schemaVersion": SCHEMA_VERSION, **doc}, indent=2, sort_keys=True)
    tr.end()
    return text


def _verdict_name(verdict) -> str:
    if isinstance(verdict, Valid):
        return "valid"
    if isinstance(verdict, InvalidAt):
        return "invalid"
    return "query-unsatisfied"


def search(instance, q, bounds: SearchBounds, tr, kernel_name: str = "auto"):
    """bfs through the finer public functions; returns (code, plan, explored, kernel)."""
    tr.begin("encoding.compile_instance")
    ci = compile_instance(instance)
    tr.end()
    tr.begin("encoding.compile_query")
    goal = ci.compile_query(q)
    tr.end()
    tr.begin("encoding.encode_state")
    start = ci.encode_state(instance.initial_state)
    tr.end()
    impl = kernel.select(ci, kernel_name)
    tr.begin("kernel.search")
    code, plan_idx, explored = impl.bfs(
        ci, start, goal, q.strict, bounds.max_depth, bounds.max_states, bounds.max_millis)
    tr.end()
    tr.count("encoding.candidates", len(ci.candidates))
    tr.count("encoding.nbits", ci.nbits)
    tr.count("kernel.states", explored)
    tr.count("kernel.state_candidates", explored * len(ci.candidates))
    plan = None
    if code == _kernel_py.REACHABLE:
        tr.begin("encoding.decode")
        plan = Plan(tuple(ci.candidates[i].request for i in plan_idx))
        tr.end()
    return code, plan, explored, impl.KERNEL_NAME


def _run_engine(instance, q, engine, bounds, tr):
    """(exit code, report doc, plan, states) as ``cli._run_engine`` builds them."""
    if engine in ("nonneg", "srd"):
        tr.begin(f"planner.{engine}")
        res = (solve_no_negation if engine == "nonneg" else solve_srd_no_delete)(instance, q)
        tr.end()
        if engine == "srd":
            tr.count("planner.srd_attempts", 1)
        if not res.reachable and engine == "srd" and NOTE_GROUP_CYCLE in res.notes:
            tr.count("planner.fallbacks", 1)
            code, doc, plan, states = _run_engine(instance, q, "bfs", bounds, tr)
            doc["notes"] = sorted(set(doc.get("notes", [])) | {NOTE_GROUP_CYCLE})
            doc["engine"] = f"{engine}+bfs"
            return code, doc, plan, states
        doc = {
            "engine": engine,
            "outcome": "reachable" if res.reachable else "unreachable",
            "plan": [r.render() for r in res.plan] if res.reachable else None,
            "reason": res.reason,
            "notes": list(res.notes),
            "statesExplored": None,
        }
        return (EXIT_OK if res.reachable else EXIT_NEGATIVE), doc, res.plan, None

    code, plan, explored, kname = search(instance, q, bounds, tr)
    doc = {"engine": "bfs", "notes": [], "reason": None, "statesExplored": explored,
           "kernel": kname}
    if code == _kernel_py.REACHABLE:
        doc.update(outcome="reachable", plan=[r.render() for r in plan])
        return EXIT_OK, doc, plan, explored
    if code == _kernel_py.UNREACHABLE:
        doc.update(outcome="unreachable", plan=None)
        return EXIT_NEGATIVE, doc, None, explored
    doc.update(outcome="bound-exceeded", plan=None, bound=_BOUND_NAMES[code])
    return EXIT_BOUND, doc, None, explored


def choose_engine(flags) -> str:
    """The auto rule of ``gurag-reach solve``."""
    if flags.no_negation and flags.no_deletion:
        return "nonneg"
    if flags.no_deletion and flags.single_rule_direct:
        return "srd"
    return "bfs"


def answer(command: str, text: str, bounds: SearchBounds, tr=NULL) -> Outcome:
    """Run one CLI command (classify, solve, oracle, validate) on a file's text."""
    tr.begin("dsl.parse")
    result = parse(text)
    tr.end()
    tr.count("dsl.bytes", len(text.encode("utf-8")))
    if not result.ok:
        return Outcome(EXIT_PARSE, "", "parse-error")
    instance = result.instance
    tr.begin("model.validate")
    problems = validate_instance(instance)
    tr.end()
    if problems:
        return Outcome(EXIT_PARSE, "", "invalid-instance")

    if command == "classify":
        tr.begin("policy.restrictions")
        flags = check_restrictions(instance.rules)
        tr.end()
        doc = {
            "level": flags.level.value,
            "noNegation": flags.no_negation,
            "noDeletion": flags.no_deletion,
            "singleRuleDirect": flags.single_rule_direct,
            "rules": len(instance.rules),
            "groups": len(instance.groups),
            "attributes": list(instance.attributes),
        }
        return Outcome(EXIT_OK, _render(doc, tr), flags.level.value)

    if not result.queries:
        return Outcome(EXIT_PARSE, "", "no-query")
    q = result.queries[0]

    if command == "validate":
        plan = result.plans[0]
        tr.begin("transition.replay")
        verdict = validate_plan(instance, plan, q)
        tr.end()
        tr.count("transition.steps", len(plan))
        name = _verdict_name(verdict)
        if isinstance(verdict, InvalidAt):
            doc = {"verdict": "invalid", "failedAt": verdict.index, "reason": verdict.reason,
                   "request": plan.requests[verdict.index].render()}
        else:
            doc = {"verdict": name, "steps": len(plan)}
        code = EXIT_OK if name == "valid" else EXIT_NEGATIVE
        return Outcome(code, _render(doc, tr), name)

    if command == "solve":
        tr.begin("policy.restrictions")
        flags = check_restrictions(instance.rules)
        tr.end()
        engine = choose_engine(flags)
    elif command == "oracle":
        engine = "bfs"
    else:
        raise ValueError(f"unknown command {command!r}")
    try:
        code, doc, plan, states = _run_engine(instance, q, engine, bounds, tr)
    except RestrictionViolation:
        return Outcome(EXIT_RESTRICTION, "", "restriction-violation")
    # ``oracle`` reports the kernel's name, ``solve`` does not
    kname = doc.pop("kernel", None) if command == "solve" else doc.get("kernel")
    replay = None
    if plan is not None:
        tr.begin("transition.replay")
        replay = _verdict_name(validate_plan(instance, plan, q))
        tr.end()
        tr.count("transition.steps", len(plan))
    return Outcome(code, _render(doc, tr), doc["outcome"], plan, replay, states, kname)
