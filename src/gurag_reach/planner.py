"""Polynomial-time planners for restricted rule sets.

Two engines:

* ``solve_no_negation``: forward fixpoint over add/assign rules, valid when no
  precondition uses negation.

* ``solve_srd_no_delete``: valid when there are no delete/remove rules and each
  value assignment (or group) has a single rule with direct-only conjuncts.
  Runs in two phases: a group-assignment phase ordered by a precedence graph
  over groups, whose groups on a cycle are discarded, then a backward-chaining
  phase over (scope, attribute, value) requirements ordered by a second
  precedence graph.  A query value with a canAddU rule is required of the
  user; one with a canAddUG rule of the first effective group, in sorted
  order, whose closure of prerequisites has no cycle.  If every group that
  closes meets a cycle, the first such closure is kept and fails the cycle
  check (``cycle-in-valset``); if none closes, the first failure is reported.

Neither engine ever removes anything, so under a strict query both share one
guard: a surplus effective value is final, and no addition or assignment that
would bring an unwanted value is made.

Every Reachable result carries a plan that replays through the transition
semantics.  Unreachable results carry a machine-readable reason code.
"""

from __future__ import annotations

import heapq
from typing import Optional

from ._record import Frozen
from .model import (
    DirectState,
    GroupHierarchy,
    ProblemInstance,
    effective_group_attr,
    effective_groups,
    effective_user_attr,
)
from .policy import (
    DirectGroup,
    DirectVal,
    Level,
    Relation,
    Rule,
    check_restrictions,
    direct_conjunct_shape,
    eval_precondition,
)
from .transition import (
    NotAuthorized,
    Plan,
    ReachabilityQuery,
    Request,
    apply_request,
    eval_query,
    step,
)

# Unreachable reason codes (part of the contract)
EXTRA_VALUES = "extra-values-present"
MISSING_RULE = "missing-rule"
NEGATIVE_CONJUNCT = "negative-conjunct-present"
FORBIDDEN_EDGE = "forbidden-incoming-edge"
CYCLE_IN_VALSET = "cycle-in-valset"
FIXPOINT_EXHAUSTED = "fixpoint-exhausted"

NOTE_GROUP_CYCLE = "group-cycle-discarded"


class RestrictionViolation(Exception):
    """The engine's restriction precondition does not hold for this rule set."""


class PlanResult(Frozen):
    _fields = ("plan", "reason", "notes")

    def __init__(self, plan: Optional[Plan] = None, reason: Optional[str] = None,
                 notes: tuple[str, ...] = ()):
        self.__dict__.update(plan=plan, reason=reason, notes=notes)

    @property
    def reachable(self) -> bool:
        return self.plan is not None

    @staticmethod
    def found(plan: Plan, notes: tuple[str, ...] = ()) -> "PlanResult":
        return PlanResult(plan=plan, notes=notes)

    @staticmethod
    def failed(reason: str, notes: tuple[str, ...] = ()) -> "PlanResult":
        return PlanResult(reason=reason, notes=notes)


def _rule_order_key(rule: Rule) -> tuple:
    return (
        rule.relation.order,
        rule.target_attr or "",
        rule.target_val or "",
        rule.target_group or "",
        rule.rule_id,
    )


def _request(rule: Rule, subject: Optional[str] = None) -> Request:
    """The request of ``rule`` on ``subject``: None for the user, else a group
    (an assign rule names its own group)."""
    return Request(rule.relation, rule.role, rule.target_attr, rule.target_val,
                   rule.target_group or subject)


# --------------------------------------------------------------------------
# The strict-query guard shared by both engines; a relaxed query wants
# every value
# --------------------------------------------------------------------------

def _has_surplus(state: DirectState, h: GroupHierarchy, q: ReachabilityQuery) -> bool:
    """Whether a strict query sees an effective value outside its target."""
    return q.strict and any(not effective_user_attr(state, h, att) <= vset
                            for att, vset in q.entries.items())


def _group_admissible(state: DirectState, h: GroupHierarchy, q: ReachabilityQuery, g: str) -> bool:
    """Whether assigning g brings the user no value the query does not want."""
    return not q.strict or all(effective_group_attr(state, h, g, att) <= vset
                               for att, vset in q.entries.items())


def _value_wanted(q: ReachabilityQuery, att: str, val: str) -> bool:
    """Whether making (att, val) effective keeps the query satisfiable."""
    if not q.strict:
        return True
    vset = q.entries.get(att)
    return vset is None or val in vset


# --------------------------------------------------------------------------
# Forward fixpoint for negation-free rule sets
# --------------------------------------------------------------------------

def _open_subjects(rule: Rule, state: DirectState, h: GroupHierarchy,
                   q: ReachabilityQuery) -> tuple[Optional[str], ...]:
    """The subjects a rule could still change: the user (None) for an add or
    an assign, the effective groups lacking the value for a group add."""
    if rule.relation == Relation.ADD_U:
        return () if rule.target_val in state.user_values(rule.target_attr) else (None,)
    if rule.relation == Relation.ASSIGN:
        g = rule.target_group
        return () if g in state.user_groups or not _group_admissible(state, h, q, g) else (None,)
    return tuple(g for g in sorted(effective_groups(state, h))
                 if rule.target_val not in state.group_values(g, rule.target_attr))


def solve_no_negation(instance: ProblemInstance, q: ReachabilityQuery) -> PlanResult:
    flags = check_restrictions(instance.rules)
    if not flags.no_negation:
        raise RestrictionViolation("rule set uses negation in preconditions")

    h = instance.hierarchy
    state = instance.initial_state

    if _has_surplus(state, h, q):
        return PlanResult.failed(EXTRA_VALUES)
    if eval_query(state, h, q):
        return PlanResult.found(Plan())

    # an unwanted value stays unwanted, so its rules are never fired
    add_rules = sorted(
        (r for r in instance.rules
         if r.relation == Relation.ASSIGN
         or (r.relation in (Relation.ADD_U, Relation.ADD_UG)
             and _value_wanted(q, r.target_attr, r.target_val))),
        key=_rule_order_key,
    )
    requests: list[Request] = []

    while True:
        fired = False
        for rule in add_rules:
            for subject in _open_subjects(rule, state, h, q):
                if eval_precondition(rule.pre, state, h, subject):
                    break
            else:
                continue
            req = _request(rule, subject)
            state = apply_request(state, req)
            requests.append(req)
            fired = True
            if eval_query(state, h, q):
                return PlanResult.found(Plan(tuple(requests)))
        if not fired:
            return PlanResult.failed(FIXPOINT_EXHAUSTED)


# --------------------------------------------------------------------------
# Group phase for the no-delete / single-rule engine
# --------------------------------------------------------------------------

def _require_srd(instance: ProblemInstance):
    flags = check_restrictions(instance.rules)
    if not flags.no_deletion:
        raise RestrictionViolation("rule set contains delete/remove rules")
    if not flags.single_rule_direct:
        raise RestrictionViolation(
            "rule set violates single-rule-with-direct-conjuncts"
        )
    return flags


def _scc_discard(vertices: set[str], edges: set[tuple[str, str]]) -> set[str]:
    """Vertices on directed cycles, that is, the vertices that reach themselves."""
    succ: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in edges:
        succ[a].append(b)

    def reaches_itself(v: str) -> bool:
        seen: set[str] = set()
        todo = list(succ[v])
        while todo:
            w = todo.pop()
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                todo.extend(succ[w])
        return False

    return {v for v in vertices if reaches_itself(v)}


def group_phase(instance: ProblemInstance, q: ReachabilityQuery) -> PlanResult:
    """Assign-only plan ordered by the group precedence graph; never Unreachable."""
    _require_srd(instance)
    h = instance.hierarchy
    state0 = instance.initial_state

    assign_rules = {r.target_group: r for r in instance.rules if r.relation == Relation.ASSIGN}

    vertices = {
        g for g in assign_rules
        if g not in state0.user_groups and _group_admissible(state0, h, q, g)
    }

    def shape(g):
        return direct_conjunct_shape(assign_rules[g].pre)

    def satisfiable(g, live):
        """Whether g's single rule can hold when only the groups in ``live``
        can be assigned; a held group is never removed."""
        for positive, lit in shape(g):
            if not isinstance(lit, DirectGroup):  # read in the user's starting values
                ok = (lit.val in state0.user_values(lit.att)) == positive
            elif positive:
                ok = lit.group == g or lit.group in state0.user_groups or lit.group in live
            else:
                ok = lit.group not in state0.user_groups
            if not ok:
                return False
        return True

    def prune(live):
        """The greatest subset of ``live`` whose groups are all satisfiable;
        dropping a group never makes another one satisfiable."""
        while True:
            kept = {g for g in live if satisfiable(g, live)}
            if kept == live:
                return live
            live = kept

    vertices = prune(vertices)
    edges: set[tuple[str, str]] = set()
    for g in vertices:
        for positive, lit in shape(g):
            if not isinstance(lit, DirectGroup) or lit.group == g:
                continue
            if lit.group in vertices:
                if positive:
                    edges.add((lit.group, g))   # dependency assigned first
                else:
                    edges.add((g, lit.group))   # assign g while lit.group absent
    discard = _scc_discard(vertices, edges)
    if discard:
        vertices = prune(vertices - discard)  # discarding may strand positive dependencies
        edges = {(a, b) for a, b in edges if a in vertices and b in vertices}

    order = _topo_order(vertices, edges)
    assert order is not None  # cycles were just removed

    state = state0
    requests: list[Request] = []
    for g in order:
        req = _request(assign_rules[g])
        try:
            state = step(state, h, instance.rules, req)
        except NotAuthorized:
            continue  # a skipped dependency cascades; drop this assignment too
        requests.append(req)
    return PlanResult.found(Plan(tuple(requests)), notes=(NOTE_GROUP_CYCLE,) if discard else ())


def _topo_order(vertices, edges) -> Optional[list]:
    """Kahn's order, taking the smallest ready vertex first; None on a cycle."""
    indeg = {v: 0 for v in vertices}
    succ = {v: [] for v in vertices}
    for a, b in edges:
        indeg[b] += 1
        succ[a].append(b)
    ready = [v for v in vertices if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(out) != len(vertices):
        return None  # cycle
    return out


# --------------------------------------------------------------------------
# Attribute phase: backward chaining over (scope, attribute, value) needs
# --------------------------------------------------------------------------

USER_SCOPE = ""  # sorts before any group id and is not a valid identifier


class _PhaseFailure(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def attr_phase(
    instance: ProblemInstance, start_state: DirectState, q: ReachabilityQuery
) -> PlanResult:
    _require_srd(instance)
    h = instance.hierarchy
    state = start_state

    if _has_surplus(state, h, q):
        return PlanResult.failed(EXTRA_VALUES)
    if eval_query(state, h, q):
        return PlanResult.found(Plan())

    pair_rule: dict[tuple[str, str], Rule] = {
        (r.target_attr, r.target_val): r for r in instance.rules
        if r.relation in (Relation.ADD_U, Relation.ADD_UG)}
    eff_groups = sorted(effective_groups(state, h))

    def held(scope: str, att: str, val: str) -> bool:
        return val in (state.user_values(att) if scope == USER_SCOPE
                       else state.group_values(scope, att))

    def closure(scope: str, att: str, val: str, have: set, trail: frozenset = frozenset()):
        """The (scope, att, val) requirements beyond ``have`` that giving
        scope the value needs: itself and, transitively, every positive
        prerequisite not held.  Also whether one of them met its own trail,
        a cyclic requirement that surfaces in the graph cycle check."""
        if (scope, att, val) in have:
            return set(), False
        if (att, val) in trail:
            return set(), True
        rule = pair_rule.get((att, val))
        expected = Relation.ADD_U if scope == USER_SCOPE else Relation.ADD_UG
        if rule is None or rule.relation != expected:
            # no rule, or the single rule for this pair lives in the other
            # sub-model, so this scope cannot acquire the value directly
            raise _PhaseFailure(MISSING_RULE)
        # adding to the user or to any effective group makes it effective
        if not _value_wanted(q, att, val):
            raise _PhaseFailure(FORBIDDEN_EDGE)
        new, cyclic = set(), False
        for positive, lit in direct_conjunct_shape(rule.pre):
            if not isinstance(lit, DirectVal):
                raise _PhaseFailure(MISSING_RULE)  # group literal in a value rule
            if not positive:
                if held(scope, lit.att, lit.val):
                    raise _PhaseFailure(NEGATIVE_CONJUNCT)
            elif not held(scope, lit.att, lit.val):
                # copy ``have`` only once there is something to add: a long
                # chain of single prerequisites then stays linear
                more, more_cyclic = closure(scope, lit.att, lit.val, have | new if new else have,
                                            trail | {(att, val)})
                new = new | more if new else more
                cyclic = cyclic or more_cyclic
        new.add((scope, att, val))
        return new, cyclic

    # each required query pair not yet effective, with its closure in the
    # first scope that closes without a cycle, else the first cyclic one
    vertices: set[tuple[str, str, str]] = set()
    for att, vset in q.entries.items():
        for val in sorted(vset - effective_user_attr(state, h, att)):
            rule = pair_rule.get((att, val))
            if rule is None:
                return PlanResult.failed(MISSING_RULE)
            scopes = [USER_SCOPE] if rule.relation == Relation.ADD_U else eff_groups
            failure = chosen = None
            for scope in scopes:
                try:
                    new, cyclic = closure(scope, att, val, vertices)
                except _PhaseFailure as f:
                    failure = failure or f.reason
                    continue
                if chosen is None or not cyclic:
                    chosen = new
                if not cyclic:
                    break
            if chosen is None:  # with no effective group to try, the pair is missing-rule
                return PlanResult.failed(failure or MISSING_RULE)
            vertices |= chosen

    # precedence graph over all needed vertices
    edges: set[tuple[tuple, tuple]] = set()
    for scope, att, val in vertices:
        for positive, lit in direct_conjunct_shape(pair_rule[att, val].pre):
            other = (scope, lit.att, lit.val)
            if positive:
                if not held(scope, lit.att, lit.val):
                    edges.add((other, (scope, att, val)))  # prerequisite first
            else:
                # a rule negating its own target is fine: the guard runs
                # before the add, so only distinct blockers need ordering
                if other in vertices and other != (scope, att, val):
                    edges.add(((scope, att, val), other))  # add before the blocker

    order = _topo_order(vertices, edges)
    if order is None:
        return PlanResult.failed(CYCLE_IN_VALSET)
    return PlanResult.found(Plan(tuple(_request(pair_rule[att, val], scope or None)
                                       for scope, att, val in order)))


def solve_srd_no_delete(instance: ProblemInstance, q: ReachabilityQuery) -> PlanResult:
    """Compose the group phase (only at the group-administration level) with
    the attribute phase."""
    flags = _require_srd(instance)
    gp = group_phase(instance, q) if flags.level == Level.G1PLUS else PlanResult.found(Plan())
    state = instance.initial_state
    for req in gp.plan:  # each one authorized when group_phase built it
        state = apply_request(state, req)
    ap = attr_phase(instance, state, q)
    if not ap.reachable:
        return PlanResult.failed(ap.reason, notes=gp.notes)
    return PlanResult.found(Plan(gp.plan.requests + ap.plan.requests), notes=gp.notes)
