"""Polynomial-time planners for restricted rule sets.

Two engines:

* ``solve_no_negation``: forward fixpoint over add/assign rules, valid when no
  precondition uses negation and there are no delete/remove rules.  It fires
  each request into one in-place ``WorkingState`` and keeps the set of target
  values not yet effective, so a firing copies no state and evaluates no
  query: the state updates cost time linear in the plan's length.

* ``solve_srd_no_delete``: valid for the paper's SR_d class with no
  delete/remove rules: each value assignment (or group) has a single rule, an
  assign rule reads only the user's direct groups, and a value rule only its
  subject's direct values, each literal possibly negated.  Group assignment
  is then independent of the values, so it runs in two phases: a
  group-assignment phase ordered by a precedence graph over groups, whose
  groups on a cycle are discarded, then a backward-chaining phase over
  (scope, attribute, value) requirements ordered by a second precedence
  graph.  A query value with a canAddU rule is required of the
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
from .policy import Relation, Rule
from .transition import (
    Plan,
    ReachabilityQuery,
    Request,
    WorkingState,
    eval_query,
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

def solve_no_negation(instance: ProblemInstance, q: ReachabilityQuery) -> PlanResult:
    """The forward fixpoint: sweep the wanted add and assign rules in a fixed
    order, firing each rule that can still change a subject, until the query
    holds or a sweep fires nothing.

    Each rule's relation, target and bound ``pre.holds`` are read once per
    run, and a sweep calls them directly; requests are applied to one
    ``WorkingState``.
    """
    flags = instance.rules.restrictions
    if not flags.no_negation:
        raise RestrictionViolation("rule set uses negation in preconditions")
    if not flags.no_deletion:
        raise RestrictionViolation("rule set contains delete/remove rules")

    h = instance.hierarchy
    # the initial state itself is read until the first firing copies it
    state = instance.initial_state
    if _has_surplus(state, h, q):
        return PlanResult.failed(EXTRA_VALUES)
    # the target pairs not yet effective; the guard keeps every effective
    # query value wanted, so a strict query's eff == vset iff vset <= eff,
    # and the query holds exactly when ``missing`` is empty
    missing = {(att, val) for att, vset in q.entries.items()
               for val in vset - effective_user_attr(state, h, att)}
    if not missing:
        return PlanResult.found(Plan())

    # the wanted rules in sweep order (relation, target, id), each with its
    # role, relation, target and bound ``pre.holds`` read once; an unwanted
    # value stays unwanted, so its rules are never fired
    firing = [entry[5:] for entry in sorted(
        (r.relation.order, r.target_attr or "", r.target_val or "", r.target_group or "",
         r.rule_id, r.role, r.relation, r.target_attr, r.target_val, r.target_group, r.pre.holds)
        for r in instance.rules
        if r.relation == Relation.ASSIGN
        or (r.relation in (Relation.ADD_U, Relation.ADD_UG)
            and _value_wanted(q, r.target_attr, r.target_val)))]
    add_u, assign = Relation.ADD_U, Relation.ASSIGN
    requests: list[Request] = []

    while True:
        fired = False
        for role, kind, att, val, group, holds in firing:
            # a rule fires on the first subject it could still change whose
            # precondition holds: the user for an add or an assign, else the
            # first effective group, in sorted order, lacking the value
            if kind is add_u:
                if val in state.user_values(att) or not holds(state, h, None):
                    continue
                subject = None
            elif kind is assign:
                if (group in state.user_groups or not _group_admissible(state, h, q, group)
                        or not holds(state, h, None)):
                    continue
                subject = None
            else:
                for subject in sorted(effective_groups(state, h)):
                    if val not in state.group_values(subject, att) and holds(state, h, subject):
                        break
                else:
                    continue
            req = Request(kind, role, att, val, group or subject)
            if not requests:  # the one working copy
                state = WorkingState(state)
            state.apply(req)
            requests.append(req)
            fired = True
            if kind is assign:
                # the user now inherits every value of the group's juniors
                missing.difference_update(
                    (a, v) for g in h.junior_closure(group)
                    for a in q.entries for v in state.group_values(g, a))
            else:  # a value added to the user or to an effective group
                missing.discard((att, val))
            if not missing:
                return PlanResult.found(Plan(tuple(requests)))
        if not fired:
            return PlanResult.failed(FIXPOINT_EXHAUSTED)


# --------------------------------------------------------------------------
# Group phase for the no-delete / single-rule engine
# --------------------------------------------------------------------------

def _require_srd(instance: ProblemInstance) -> tuple[dict, dict]:
    """The rule set's SR_d table, (att, val) -> (rule, literals) and
    group -> (rule, literals), if the srd engine applies."""
    if not instance.rules.restrictions.no_deletion:
        raise RestrictionViolation("rule set contains delete/remove rules")
    table = instance.rules.srd_table
    if table is None:
        raise RestrictionViolation(
            "rule set violates single-rule-with-direct-conjuncts"
        )
    return table


def _precedence(vertices: set, deps) -> set[tuple]:
    """Edges ordering the additions of ``vertices``, from the (vertex,
    positive, other) literals ``deps``: a positive dependency on a vertex goes
    first, a negated blocker goes after, and a rule's own negated target is
    ignored, since its guard runs before the addition."""
    edges = set()
    for v, positive, other in deps:
        if other in vertices:
            if positive:
                edges.add((other, v))  # a self-requirement stays a self-loop
            elif other != v:
                edges.add((v, other))
    return edges


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
    _, assign_rules = _require_srd(instance)
    h = instance.hierarchy
    state0 = instance.initial_state

    def satisfiable(g, live):
        """Whether g's single rule can hold when only the groups in ``live``
        can be assigned; a held group is never removed, and g is not held."""
        for positive, other in assign_rules[g][1]:
            if positive:
                ok = other != g and (other in state0.user_groups or other in live)
            else:
                ok = other not in state0.user_groups
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

    def edges_over(vertices):
        # a dependency is assigned first; g is assigned while a blocker is absent
        return _precedence(vertices, ((g, positive, other) for g in vertices
                                      for positive, other in assign_rules[g][1]))

    vertices = prune({
        g for g in assign_rules
        if g not in state0.user_groups and _group_admissible(state0, h, q, g)
    })
    edges = edges_over(vertices)
    discard = _scc_discard(vertices, edges)
    if discard:
        vertices = prune(vertices - discard)  # discarding may strand positive dependencies
        edges = edges_over(vertices)

    order = _topo_order(vertices, edges)
    assert order is not None  # cycles were just removed

    # every positive dependency is held or assigned earlier, and every
    # negated one is assigned later or never, so each assignment is authorized
    plan = Plan(tuple(_request(assign_rules[g][0]) for g in order))
    return PlanResult.found(plan, notes=(NOTE_GROUP_CYCLE,) if discard else ())


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
    instance: ProblemInstance, state: DirectState | WorkingState, q: ReachabilityQuery
) -> PlanResult:
    pair_rule, _ = _require_srd(instance)
    h = instance.hierarchy

    if _has_surplus(state, h, q):
        return PlanResult.failed(EXTRA_VALUES)
    if eval_query(state, h, q):
        return PlanResult.found(Plan())

    eff_groups = sorted(effective_groups(state, h))

    def held(scope: str, att: str, val: str) -> bool:
        return val in (state.user_values(att) if scope == USER_SCOPE
                       else state.group_values(scope, att))

    def closure(scope: str, att: str, val: str, have: set):
        """The (scope, att, val) requirements beyond ``have`` that giving
        scope the value needs: itself and, transitively, every positive
        prerequisite not held.  Also whether one of them met its own trail,
        a cyclic requirement that surfaces in the graph cycle check."""
        # depth first over the literals with an explicit stack; a requirement
        # joins ``new`` once its prerequisites have, so ``have`` and ``new``
        # hold every requirement settled before the one being entered
        new: set[tuple[str, str, str]] = set()
        trail: set[tuple[str, str]] = set()  # the pairs on the stack
        stack: list = []  # (pair, its literals not yet checked)
        cyclic = False

        def enter(pair: tuple[str, str]):
            nonlocal cyclic
            if (scope, *pair) in have or (scope, *pair) in new:
                return
            if pair in trail:
                cyclic = True
                return
            rule, lits = pair_rule.get(pair, (None, ()))
            expected = Relation.ADD_U if scope == USER_SCOPE else Relation.ADD_UG
            if rule is None or rule.relation != expected:
                # no rule, or the single rule for this pair lives in the other
                # sub-model, so this scope cannot acquire the value directly
                raise _PhaseFailure(MISSING_RULE)
            # adding to the user or to any effective group makes it effective
            if not _value_wanted(q, *pair):
                raise _PhaseFailure(FORBIDDEN_EDGE)
            trail.add(pair)
            stack.append((pair, iter(lits)))

        enter((att, val))
        while stack:
            pair, lits = stack[-1]
            for positive, lit in lits:
                if not positive:
                    if held(scope, *lit):
                        raise _PhaseFailure(NEGATIVE_CONJUNCT)
                elif not held(scope, *lit):
                    enter(lit)  # and close it before the literals after it
                    break
            else:
                stack.pop()
                trail.discard(pair)
                new.add((scope, *pair))
        return new, cyclic

    # each required query pair not yet effective, with its closure in the
    # first scope that closes without a cycle, else the first cyclic one
    vertices: set[tuple[str, str, str]] = set()
    for att, vset in q.entries.items():
        for val in sorted(vset - effective_user_attr(state, h, att)):
            rule, _ = pair_rule.get((att, val), (None, ()))
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

    # precedence graph over all needed vertices: no vertex is held, and every
    # positive prerequisite that is not held is a vertex
    order = _topo_order(vertices, _precedence(vertices, (
        ((scope, att, val), positive, (scope, *pair))
        for scope, att, val in vertices for positive, pair in pair_rule[att, val][1])))
    if order is None:
        return PlanResult.failed(CYCLE_IN_VALSET)
    return PlanResult.found(Plan(tuple(_request(pair_rule[att, val][0], scope or None)
                                       for scope, att, val in order)))


def solve_srd_no_delete(instance: ProblemInstance, q: ReachabilityQuery) -> PlanResult:
    """Compose the group phase with the attribute phase."""
    gp = group_phase(instance, q)
    work = WorkingState(instance.initial_state)
    for req in gp.plan:  # group_phase orders each assignment after what authorizes it
        work.apply(req)
    ap = attr_phase(instance, work, q)
    if not ap.reachable:
        return PlanResult.failed(ap.reason, notes=gp.notes)
    return PlanResult.found(Plan(gp.plan.requests + ap.plan.requests), notes=gp.notes)
