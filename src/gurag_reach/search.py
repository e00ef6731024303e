"""Bounded explicit-state search: the ground-truth oracle.

The reachability problem is PSPACE-complete in general, so the exhaustive
search is bounded; Unreachable is only ever claimed when the full reachable
space was closed within the bounds.  The inner loop runs either in the
compiled kernel or the pure-Python fallback (see ``kernel``); both produce
identical outcomes.  ``bfs_solve`` and ``analyze`` name that choice
``kernel``, one of "auto", "python" and "compiled"; ``engine`` is
``analyze``'s choice among the bfs oracle and the planners.
"""

from __future__ import annotations

from typing import Optional, Union

from . import _kernel_py
from ._record import Frozen
from .encoding import compile_instance
from .kernel import select
from .model import ProblemInstance
from .planner import NOTE_GROUP_CYCLE, solve_no_negation, solve_srd_no_delete
from .transition import InvalidAt, Plan, ReachabilityQuery, Valid, validate_plan


class SearchBounds(Frozen):
    _fields = ("max_depth", "max_states", "max_millis")

    def __init__(self, max_depth: int = 32, max_states: int = 1 << 20, max_millis: int = 30_000):
        if max_depth <= 0 or max_states <= 0 or max_millis <= 0:
            raise ValueError("search bounds must be positive")
        # the compiled kernel takes the depth as a C int, stores state
        # indices in uint32 slots and takes the time limit as an int64
        if max_depth > 2**31 - 1 or max_states > 2**32 - 1 or max_millis > 2**63 - 1:
            raise ValueError("max depth must be below 2**31, max states below 2**32 "
                             "and max millis below 2**63")
        self.__dict__.update(max_depth=max_depth, max_states=max_states, max_millis=max_millis)


# ``kernel`` names the kernel that ran; outcomes of different kernels compare equal.
# Each class names its ``outcome`` as ``Analysis`` reports it, and has ``plan``
# and ``bound`` as None where it has none.
class Reachable(Frozen, compare=("plan", "states_explored")):
    _fields = ("plan", "states_explored", "kernel")
    outcome, bound = "reachable", None

    def __init__(self, plan: Plan, states_explored: int, kernel: str = ""):
        self.__dict__.update(plan=plan, states_explored=states_explored, kernel=kernel)


class Unreachable(Frozen, compare=("states_explored",)):
    _fields = ("states_explored", "kernel")
    outcome, plan, bound = "unreachable", None, None

    def __init__(self, states_explored: int, kernel: str = ""):
        self.__dict__.update(states_explored=states_explored, kernel=kernel)


class BoundExceeded(Frozen, compare=("bound", "states_explored")):
    _fields = ("bound", "states_explored", "kernel")
    outcome, plan = "bound-exceeded", None

    def __init__(self, bound: str, states_explored: int, kernel: str = ""):
        # bound: "depth" | "states" | "millis"
        self.__dict__.update(bound=bound, states_explored=states_explored, kernel=kernel)


SearchOutcome = Union[Reachable, Unreachable, BoundExceeded]

_BOUND_NAMES = {
    _kernel_py.DEPTH_EXCEEDED: "depth",
    _kernel_py.STATES_EXCEEDED: "states",
    _kernel_py.MILLIS_EXCEEDED: "millis",
}


def bfs_solve(
    instance: ProblemInstance,
    q: ReachabilityQuery,
    bounds: SearchBounds = SearchBounds(),
    kernel: str = "auto",
) -> SearchOutcome:
    """Shortest plan (lexicographically smallest among shortest) or exhaustion.

    ``kernel`` names the search kernel as ``kernel.select`` takes it.
    """
    ci = compile_instance(instance)
    goal = ci.compile_query(q)
    start = ci.encode_state(instance.initial_state)
    impl = select(ci, kernel)
    code, plan_idx, explored = impl.bfs(
        ci, start, goal, q.strict, bounds.max_depth, bounds.max_states, bounds.max_millis
    )
    if code == _kernel_py.REACHABLE:
        plan = Plan(tuple(ci.candidates[i].request for i in plan_idx))
        return Reachable(plan, explored, impl.KERNEL_NAME)
    if code == _kernel_py.UNREACHABLE:
        return Unreachable(explored, impl.KERNEL_NAME)
    return BoundExceeded(_BOUND_NAMES[code], explored, impl.KERNEL_NAME)


class Analysis(Frozen):
    """One answer of ``analyze``; the fields are the keys of a CLI report."""

    _fields = ("engine", "outcome", "plan", "reason", "notes", "states_explored", "bound",
               "kernel")

    def __init__(
        self,
        engine: str,   # "nonneg" | "srd" | "bfs" | "srd+bfs"
        outcome: str,  # "reachable" | "unreachable" | "bound-exceeded"
        plan: Optional[Plan] = None,
        reason: Optional[str] = None,
        notes: tuple[str, ...] = (),
        states_explored: Optional[int] = None,
        bound: Optional[str] = None,
        kernel: Optional[str] = None,  # the bfs kernel that ran, if any
    ):
        self.__dict__.update(engine=engine, outcome=outcome, plan=plan, reason=reason, notes=notes,
                             states_explored=states_explored, bound=bound, kernel=kernel)


def analyze(
    instance: ProblemInstance,
    q: ReachabilityQuery,
    engine: str = "auto",
    bounds: SearchBounds = SearchBounds(),
    kernel: str = "auto",
) -> Analysis:
    """Decide reachability with one engine; every returned plan has replayed Valid.

    "auto" picks the cheapest engine the rule set admits.  A forced planner
    whose restrictions do not hold raises ``RestrictionViolation``, and an
    unknown engine name ``ValueError``.
    """
    if engine == "auto":
        flags = instance.rules.restrictions
        if flags.no_negation and flags.no_deletion:
            engine = "nonneg"
        elif flags.no_deletion and flags.single_rule_direct:
            engine = "srd"
        else:
            engine = "bfs"
    if engine == "bfs":
        out = bfs_solve(instance, q, bounds, kernel)
        result = Analysis("bfs", out.outcome, out.plan, states_explored=out.states_explored,
                          bound=out.bound, kernel=out.kernel)
    elif engine in ("nonneg", "srd"):
        res = (solve_no_negation if engine == "nonneg" else solve_srd_no_delete)(instance, q)
        if not res.reachable and engine == "srd" and NOTE_GROUP_CYCLE in res.notes:
            # the two-phase planner is incomplete across discarded group
            # cycles; settle the answer exhaustively
            settled = analyze(instance, q, "bfs", bounds, kernel)
            return Analysis("srd+bfs", settled.outcome, settled.plan, settled.reason,
                            (NOTE_GROUP_CYCLE,), settled.states_explored, settled.bound,
                            settled.kernel)
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

