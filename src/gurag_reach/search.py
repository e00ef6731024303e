"""Bounded explicit-state search: the ground-truth oracle.

The reachability problem is PSPACE-complete in general, so the exhaustive
search is bounded; Unreachable is only ever claimed when the full reachable
space was closed within the bounds.  The one kernel, ``_kernel_py.bfs``, is
named by no outcome.  ``engine`` is ``analyze``'s choice among the bfs oracle
and the planners.  The kernel, with ``encoding``, and the planners are
imported by the calls that run them, so a command that runs neither, such as
``classify``, loads neither.
"""

from __future__ import annotations

from typing import Optional, Union

from ._record import Frozen
from .model import ProblemInstance
from .transition import InvalidAt, Plan, ReachabilityQuery, Valid, validate_plan


class SearchBounds(Frozen):
    _fields = ("max_depth", "max_states", "max_millis")

    def __init__(self, max_depth: int = 32, max_states: int = 1 << 20, max_millis: int = 30_000):
        if max_depth <= 0 or max_states <= 0 or max_millis <= 0:
            raise ValueError("search bounds must be positive")
        # far beyond any search that can finish; larger values are refused
        # as malformed input
        if max_depth > 2**31 - 1 or max_states > 2**32 - 1 or max_millis > 2**63 - 1:
            raise ValueError("max depth must be below 2**31, max states below 2**32 "
                             "and max millis below 2**63")
        self.__dict__.update(max_depth=max_depth, max_states=max_states, max_millis=max_millis)


# Each class names its ``outcome`` as ``Analysis`` reports it, and has ``plan``
# and ``bound`` as None where it has none.
class Reachable(Frozen):
    _fields = ("plan", "states_explored")
    outcome, bound = "reachable", None

    def __init__(self, plan: Plan, states_explored: int):
        self.__dict__.update(plan=plan, states_explored=states_explored)


class Unreachable(Frozen):
    _fields = ("states_explored",)
    outcome, plan, bound = "unreachable", None, None

    def __init__(self, states_explored: int):
        self.__dict__.update(states_explored=states_explored)


class BoundExceeded(Frozen):
    _fields = ("bound", "states_explored")
    outcome, plan = "bound-exceeded", None

    def __init__(self, bound: str, states_explored: int):
        # bound: "depth" | "states" | "millis"
        self.__dict__.update(bound=bound, states_explored=states_explored)


SearchOutcome = Union[Reachable, Unreachable, BoundExceeded]


def bfs_solve(
    instance: ProblemInstance,
    q: ReachabilityQuery,
    bounds: SearchBounds = SearchBounds(),
) -> SearchOutcome:
    """Shortest plan (lexicographically smallest among shortest) or exhaustion."""
    from . import _kernel_py
    from .encoding import compile_instance

    ci = compile_instance(instance)
    goal = ci.compile_query(q)
    start = ci.encode_state(instance.initial_state)
    code, plan_idx, explored = _kernel_py.bfs(
        ci, start, goal, q.strict, bounds.max_depth, bounds.max_states, bounds.max_millis
    )
    if code == _kernel_py.REACHABLE:
        return Reachable(Plan(tuple(ci.candidates[i].request for i in plan_idx)), explored)
    if code == _kernel_py.UNREACHABLE:
        return Unreachable(explored)
    return BoundExceeded(_kernel_py.BOUND_NAMES[code], explored)


class Analysis(Frozen):
    """One answer of ``analyze``; the fields are the keys of a CLI report."""

    _fields = ("engine", "outcome", "plan", "reason", "notes", "states_explored", "bound")

    def __init__(
        self,
        engine: str,   # "nonneg" | "srd" | "bfs" | "srd+bfs"
        outcome: str,  # "reachable" | "unreachable" | "bound-exceeded"
        plan: Optional[Plan] = None,
        reason: Optional[str] = None,
        notes: tuple[str, ...] = (),
        states_explored: Optional[int] = None,
        bound: Optional[str] = None,
    ):
        self.__dict__.update(engine=engine, outcome=outcome, plan=plan, reason=reason, notes=notes,
                             states_explored=states_explored, bound=bound)


def analyze(
    instance: ProblemInstance,
    q: ReachabilityQuery,
    engine: str = "auto",
    bounds: SearchBounds = SearchBounds(),
) -> Analysis:
    """Decide reachability with one engine; every returned plan has replayed Valid.

    "auto" picks the first planner of ``planner.ADMISSION`` that
    ``planner.refusal`` admits, else "bfs".  A forced planner that refuses
    the rule set raises ``RestrictionViolation`` with that refusal, and an
    unknown engine name ``ValueError``.
    """
    if engine == "auto":
        from .planner import ADMISSION, refusal

        flags = instance.rules.restrictions
        engine = next((e for e in ADMISSION if refusal(e, flags) is None), "bfs")
    if engine == "bfs":
        out = bfs_solve(instance, q, bounds)
        result = Analysis("bfs", out.outcome, out.plan, states_explored=out.states_explored,
                          bound=out.bound)
    elif engine in ("nonneg", "srd"):
        from . import planner

        res = (planner.solve_no_negation if engine == "nonneg"
               else planner.solve_srd_no_delete)(instance, q)
        if not res.reachable and engine == "srd" and planner.NOTE_GROUP_CYCLE in res.notes:
            # the two-phase planner is incomplete across discarded group
            # cycles; settle the answer exhaustively
            settled = analyze(instance, q, "bfs", bounds)
            return Analysis("srd+bfs", settled.outcome, settled.plan, settled.reason,
                            (planner.NOTE_GROUP_CYCLE,), settled.states_explored, settled.bound)
        result = Analysis(engine, "reachable" if res.reachable else "unreachable",
                          res.plan, res.reason, res.notes)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if result.plan is not None:
        verdict = validate_plan(instance, result.plan, q)
        if isinstance(verdict, InvalidAt):
            raise RuntimeError(f"{engine} plan fails replay at request {verdict.index}: "
                               f"{verdict.reason}")
        if not isinstance(verdict, Valid):
            raise RuntimeError(f"{engine} plan replays but leaves the query unsatisfied")
    return result

