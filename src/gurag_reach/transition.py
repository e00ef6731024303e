"""Administrative requests, authorization, the transition function, and replay.

A request changes exactly one direct value set or the membership set.
Inserting a value that is already present (or removing an absent one) is a
legal no-op transition.  A request is authorized when at least one rule of the
matching relation, role and target has a satisfied precondition.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional, Union

from ._record import Frozen
from .model import (
    DirectState,
    GroupHierarchy,
    ProblemInstance,
    effective_user_attr,
)
from .policy import Relation, RuleSet, eval_precondition


# the request names of the text format and of rendered plans
REQUEST_NAMES = {
    Relation.ADD_U: "addU", Relation.DELETE_U: "deleteU",
    Relation.ADD_UG: "addUG", Relation.DELETE_UG: "deleteUG",
    Relation.ASSIGN: "assign", Relation.REMOVE: "remove",
}


class Request(Frozen):
    _fields = ("kind", "role", "att", "val", "group")

    def __init__(self, kind: Relation, role: str, att: Optional[str] = None,
                 val: Optional[str] = None, group: Optional[str] = None):
        if kind.is_membership:
            assert group is not None and att is None and val is None
        elif kind.is_group_subject:
            assert group is not None and att is not None and val is not None
        else:
            assert group is None and att is not None and val is not None
        self.__dict__.update(kind=kind, role=role, att=att, val=val, group=group)

    @property
    def sort_key(self) -> tuple:
        """Deterministic ordering used everywhere a traversal order matters."""
        return (self.kind.order, self.att or "", self.val or "", self.group or "", self.role)

    def render(self) -> str:
        # the fields a kind leaves None are exactly those its call omits
        args = (self.role, self.group, self.att, self.val)
        return f"{REQUEST_NAMES[self.kind]}({', '.join(a for a in args if a is not None)})"


class Plan(Frozen):
    _fields = ("requests",)

    def __init__(self, requests: tuple[Request, ...] = ()):
        self.__dict__.update(requests=tuple(requests))

    def __iter__(self):
        return iter(self.requests)

    def __len__(self):
        return len(self.requests)


class QueryType(enum.Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class ReachabilityQuery(Frozen):
    """Per-attribute target sets over the user's *effective* values.

    Strict queries demand exact set equality per mentioned attribute; relaxed
    queries demand a superset.  Unmentioned attributes are unconstrained.
    """

    _fields = ("entries", "query_type")

    def __init__(self, entries: Mapping[str, frozenset[str]],
                 query_type: QueryType = QueryType.STRICT):
        self.__dict__.update(entries={a: frozenset(vs) for a, vs in sorted(entries.items())},
                             query_type=query_type)

    @property
    def strict(self) -> bool:
        return self.query_type == QueryType.STRICT

    def relaxed_copy(self) -> "ReachabilityQuery":
        return ReachabilityQuery(self.entries, QueryType.RELAXED)


def authorized_rules(
    state: DirectState, hierarchy: GroupHierarchy, rules: RuleSet, req: Request
) -> list[int]:
    """Ids of rules authorizing the request, in rule-id order (empty = denied)."""
    subject = req.group if req.kind.is_group_subject else None
    return [r.rule_id for r in rules.matching(req)
            if eval_precondition(r.pre, state, hierarchy, subject)]


def apply_request(state: DirectState, req: Request) -> DirectState:
    """The raw state update, ignoring authorization."""
    if req.kind == Relation.ADD_U or req.kind == Relation.DELETE_U:
        vals = set(state.user_values(req.att))
        (vals.add if req.kind == Relation.ADD_U else vals.discard)(req.val)
        user_attrs = dict(state.user_attrs)
        user_attrs[req.att] = frozenset(vals)
        return DirectState(user_attrs, state.group_attrs, state.user_groups)
    if req.kind == Relation.ADD_UG or req.kind == Relation.DELETE_UG:
        vals = set(state.group_values(req.group, req.att))
        (vals.add if req.kind == Relation.ADD_UG else vals.discard)(req.val)
        group_attrs = {g: dict(attrs) for g, attrs in state.group_attrs.items()}
        group_attrs.setdefault(req.group, {})[req.att] = frozenset(vals)
        return DirectState(state.user_attrs, group_attrs, state.user_groups)
    membership = set(state.user_groups)
    (membership.add if req.kind == Relation.ASSIGN else membership.discard)(req.group)
    return DirectState(state.user_attrs, state.group_attrs, frozenset(membership))


class NotAuthorized(Exception):
    def __init__(self, req: Request, reason: str):
        super().__init__(f"request {req.render()} not authorized: {reason}")
        self.request = req
        self.reason = reason


def step(
    state: DirectState, hierarchy: GroupHierarchy, rules: RuleSet, req: Request
) -> DirectState:
    """One transition; raises NotAuthorized when no rule admits the request."""
    if not rules.matching(req):
        raise NotAuthorized(req, "no matching rule")
    if not authorized_rules(state, hierarchy, rules, req):
        raise NotAuthorized(req, "precondition failed")
    return apply_request(state, req)


def eval_query(state: DirectState, hierarchy: GroupHierarchy, q: ReachabilityQuery) -> bool:
    for att, vset in q.entries.items():
        eff = effective_user_attr(state, hierarchy, att)
        if q.strict:
            if eff != vset:
                return False
        else:
            if not vset <= eff:
                return False
    return True


# --- Plan replay verdicts ----------------------------------------------------

class Valid(Frozen):
    _fields = ("final_state",)

    def __init__(self, final_state: DirectState):
        self.__dict__.update(final_state=final_state)


class InvalidAt(Frozen):
    _fields = ("index", "reason")

    def __init__(self, index: int, reason: str):
        # index: zero-based position of the failing request
        self.__dict__.update(index=index, reason=reason)


class QueryUnsatisfied(Frozen):
    _fields = ("final_state",)

    def __init__(self, final_state: DirectState):
        self.__dict__.update(final_state=final_state)


Verdict = Union[Valid, InvalidAt, QueryUnsatisfied]


def validate_plan(instance: ProblemInstance, plan: Plan, q: ReachabilityQuery) -> Verdict:
    """Replay every request through the transition semantics, then check the query."""
    state = instance.initial_state
    for i, req in enumerate(plan):
        try:
            state = step(state, instance.hierarchy, instance.rules, req)
        except NotAuthorized as exc:
            return InvalidAt(i, exc.reason)
    if eval_query(state, instance.hierarchy, q):
        return Valid(state)
    return QueryUnsatisfied(state)
