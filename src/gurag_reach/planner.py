"""Polynomial-time planners for restricted rule sets.

Two engines:

* ``solve_no_negation``: forward fixpoint over add/assign rules, valid when no
  precondition uses negation.

* ``solve_srd_no_delete``: valid when there are no delete/remove rules and each
  value assignment (or group) has a single rule with direct-only conjuncts.
  Runs in two phases: a group-assignment phase ordered by a precedence graph
  over groups, whose groups on a cycle are discarded, then a backward-chaining
  phase over (scope, attribute, value) requirements ordered by a second
  precedence graph.

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
            if rule.relation == Relation.ADD_U:
                if rule.target_val in state.user_values(rule.target_attr):
                    continue
                if not eval_precondition(rule.pre, state, h, None):
                    continue
                req = Request(Relation.ADD_U, rule.role,
                              att=rule.target_attr, val=rule.target_val)
            elif rule.relation == Relation.ADD_UG:
                req = None
                for g in sorted(effective_groups(state, h)):
                    if rule.target_val in state.group_values(g, rule.target_attr):
                        continue
                    if not eval_precondition(rule.pre, state, h, g):
                        continue
                    req = Request(Relation.ADD_UG, rule.role, att=rule.target_attr,
                                  val=rule.target_val, group=g)
                    break
                if req is None:
                    continue
            else:  # ASSIGN
                g = rule.target_group
                if g in state.user_groups or not _group_admissible(state, h, q, g):
                    continue
                if not eval_precondition(rule.pre, state, h, None):
                    continue
                req = Request(Relation.ASSIGN, rule.role, group=g)
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
    notes: list[str] = []

    assign_rules = {r.target_group: r for r in instance.rules if r.relation == Relation.ASSIGN}

    vertices = {
        g for g in assign_rules
        if g not in state0.user_groups and _group_admissible(state0, h, q, g)
    }

    def shape(g):
        return direct_conjunct_shape(assign_rules[g].pre) or []

    def prune():
        # drop groups whose single rule can never be satisfied: a negated group
        # already held (never removable), a positive dependence on a group that
        # is neither held nor assignable, or a value conjunct false in the
        # start state
        changed = True
        while changed:
            changed = False
            for g in sorted(vertices):
                ok = True
                for positive, lit in shape(g):
                    if isinstance(lit, DirectGroup):
                        if positive:
                            if lit.group != g and lit.group not in state0.user_groups \
                                    and lit.group not in vertices:
                                ok = False
                        else:
                            if lit.group in state0.user_groups:
                                ok = False
                    else:  # DirectVal, checked against the user's starting values
                        holds = lit.val in state0.user_values(lit.att)
                        if holds != positive:
                            ok = False
                if not ok:
                    vertices.discard(g)
                    changed = True

    prune()
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
        notes.append(NOTE_GROUP_CYCLE)
        vertices -= discard
        prune()  # discarding may strand positive dependencies
        edges = {(a, b) for a, b in edges if a in vertices and b in vertices}

    order = _topo_order(vertices, edges)
    assert order is not None  # cycles were just removed

    state = state0
    requests: list[Request] = []
    for g in order:
        req = Request(Relation.ASSIGN, assign_rules[g].role, group=g)
        try:
            state = step(state, h, instance.rules, req)
        except NotAuthorized:
            continue  # a skipped dependency cascades; drop this assignment too
        requests.append(req)
    return PlanResult.found(Plan(tuple(requests)), notes=tuple(notes))


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

    pair_rule: dict[tuple[str, str], Rule] = {}
    for rule in instance.rules:
        if rule.relation in (Relation.ADD_U, Relation.ADD_UG):
            pair_rule[rule.target_attr, rule.target_val] = rule

    eff_groups = sorted(effective_groups(state, h))

    def current(scope: str, att: str) -> frozenset[str]:
        if scope == USER_SCOPE:
            return state.user_values(att)
        return state.group_values(scope, att)

    # vertices[scope] -> {(att, val)}; rule per vertex comes from pair_rule
    vertices: dict[str, set[tuple[str, str]]] = {}
    cycles: list[tuple[str, str]] = []  # requirements met again on their own trail

    def close(scope: str, att: str, val: str, trail: set):
        """Record the vertex and, transitively, every positive prerequisite."""
        pair = (att, val)
        if pair in vertices.get(scope, set()):
            return
        if pair in trail:
            cycles.append(pair)
            return  # cyclic requirement; surfaces in the graph cycle check
        rule = pair_rule.get(pair)
        if rule is None:
            raise _PhaseFailure(MISSING_RULE)
        expected = Relation.ADD_U if scope == USER_SCOPE else Relation.ADD_UG
        if rule.relation != expected:
            # the single rule for this pair lives in the other sub-model, so
            # this scope cannot acquire the value directly
            raise _PhaseFailure(MISSING_RULE)
        # adding to the user or to any effective group makes it effective
        if not _value_wanted(q, att, val):
            raise _PhaseFailure(FORBIDDEN_EDGE)
        trail = trail | {pair}
        for positive, lit in direct_conjunct_shape(rule.pre) or []:
            if not isinstance(lit, DirectVal):
                raise _PhaseFailure(MISSING_RULE)  # group literal in a value rule
            if positive:
                if lit.val not in current(scope, lit.att):
                    close(scope, lit.att, lit.val, trail)
            else:
                if lit.val in current(scope, lit.att):
                    raise _PhaseFailure(NEGATIVE_CONJUNCT)
        vertices.setdefault(scope, set()).add(pair)

    # required query pairs not currently effective
    toadd: list[tuple[str, str]] = []
    for att, vset in q.entries.items():
        eff = effective_user_attr(state, h, att)
        for val in sorted(vset - eff):
            toadd.append((att, val))

    for att, val in toadd:
        rule = pair_rule.get((att, val))
        if rule is None:
            return PlanResult.failed(MISSING_RULE)
        if rule.relation == Relation.ADD_U:
            try:
                close(USER_SCOPE, att, val, set())
            except _PhaseFailure as f:
                return PlanResult.failed(f.reason)
        else:
            # coverable through whichever effective group admits the full
            # closure; the smallest such group is chosen deterministically.  A
            # closure with a cyclic requirement fails the cycle check later,
            # so it is kept only when no group closes without one.
            if not eff_groups:
                return PlanResult.failed(MISSING_RULE)
            first_failure = None
            cyclic_choice = None
            for g in eff_groups:
                snapshot = {s: set(ps) for s, ps in vertices.items()}
                cycles.clear()
                try:
                    close(g, att, val, set())
                    if not cycles:
                        break
                    if cyclic_choice is None:
                        cyclic_choice = vertices
                except _PhaseFailure as f:
                    if first_failure is None:
                        first_failure = f.reason
                vertices = snapshot
            else:
                if cyclic_choice is None:
                    return PlanResult.failed(first_failure)
                vertices = cyclic_choice

    # precedence graph over all needed vertices
    all_vertices: set[tuple[str, str, str]] = {
        (scope, att, val) for scope, pairs in vertices.items() for att, val in pairs
    }
    edges: set[tuple[tuple, tuple]] = set()
    for scope, att, val in all_vertices:
        rule = pair_rule[att, val]
        for positive, lit in direct_conjunct_shape(rule.pre) or []:
            other = (scope, lit.att, lit.val)
            if positive:
                if lit.val not in current(scope, lit.att):
                    edges.add((other, (scope, att, val)))  # prerequisite first
            else:
                # a rule negating its own target is fine: the guard runs
                # before the add, so only distinct blockers need ordering
                if other in all_vertices and other != (scope, att, val):
                    edges.add(((scope, att, val), other))  # add before the blocker

    order = _topo_order(all_vertices, edges)
    if order is None:
        return PlanResult.failed(CYCLE_IN_VALSET)

    requests = []
    for scope, att, val in order:
        rule = pair_rule[att, val]
        if scope == USER_SCOPE:
            requests.append(Request(Relation.ADD_U, rule.role, att=att, val=val))
        else:
            requests.append(Request(Relation.ADD_UG, rule.role, att=att, val=val, group=scope))
    return PlanResult.found(Plan(tuple(requests)))


def solve_srd_no_delete(instance: ProblemInstance, q: ReachabilityQuery) -> PlanResult:
    """Compose the group phase (only at the group-administration level) with
    the attribute phase."""
    flags = _require_srd(instance)
    notes: tuple[str, ...] = ()
    state = instance.initial_state
    prefix: tuple[Request, ...] = ()
    if flags.level == Level.G1PLUS:
        gp = group_phase(instance, q)
        notes = gp.notes
        prefix = gp.plan.requests
        for req in prefix:
            state = step(state, instance.hierarchy, instance.rules, req)
    ap = attr_phase(instance, state, q)
    if not ap.reachable:
        return PlanResult.failed(ap.reason, notes=notes + ap.notes)
    return PlanResult.found(Plan(prefix + ap.plan.requests), notes=notes + ap.notes)
