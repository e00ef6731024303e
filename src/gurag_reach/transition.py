"""Administrative requests, authorization, the transition function, and replay.

A request changes exactly one direct value set or the membership set.
Inserting a value that is already present (or removing an absent one) is a
legal no-op transition.  A request is authorized when at least one rule of the
matching relation, role and target has a satisfied precondition.

``_denial`` is the one authorization check and ``WorkingState.apply`` the one
state update.  ``validate_plan`` runs both on one working state for the whole
plan and freezes that state once, so a replay costs time linear in the plan's
length rather than a copy per request.  An empty plan is checked on the
initial state itself and copies nothing.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Mapping, Optional, Union

from ._record import Frozen
from .model import (
    DirectState,
    GroupHierarchy,
    ProblemInstance,
    effective_user_attr,
)
from .policy import PolicyError, Relation, RuleSet


class Request(Frozen):
    _fields = ("kind", "role", "att", "val", "group")

    def __init__(self, kind: Relation, role: str, att: Optional[str] = None,
                 val: Optional[str] = None, group: Optional[str] = None):
        # a membership request names a group only, a group-subject one a
        # group and an (attribute, value) pair, and the rest a pair only
        pair = not kind.is_membership
        if ((group is None) == (kind.is_membership or kind.is_group_subject)
                or (att is None) == pair or (val is None) == pair):
            raise PolicyError(f"wrong fields for {kind.request_name}: {group=}, {att=}, {val=}")
        self.__dict__.update(kind=kind, role=role, att=att, val=val, group=group)

    def render(self) -> str:
        # the fields a kind leaves None are exactly those its call omits
        args = [a for a in (self.role, self.group, self.att, self.val) if a is not None]
        return f"{self.kind.request_name}({', '.join(args)})"


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


class WorkingState:
    """A direct state changed in place, one request at a time.

    It reads like a ``DirectState`` (``user_values``, ``group_values``,
    ``user_groups``), so preconditions, ``_denial``, ``eval_query``
    and the effective-value helpers take it as they are; the sets it hands
    out are its own and must not be changed by the reader.  A replay or a
    forward planner costs one copy in and one ``freeze`` out, and copies
    nothing per request in between.
    """

    __slots__ = ("user_attrs", "group_attrs", "user_groups")

    def __init__(self, state: DirectState):
        self.user_attrs = {att: set(vals) for att, vals in state.user_attrs.items()}
        self.group_attrs = {g: {att: set(vals) for att, vals in attrs.items()}
                            for g, attrs in state.group_attrs.items()}
        self.user_groups = set(state.user_groups)

    def user_values(self, att: str) -> AbstractSet[str]:
        return self.user_attrs.get(att, frozenset())

    def group_values(self, g: str, att: str) -> AbstractSet[str]:
        return self.group_attrs.get(g, {}).get(att, frozenset())

    def apply(self, req: Request) -> None:
        """The raw state update, ignoring authorization."""
        kind = req.kind
        if kind.is_membership:
            items, item = self.user_groups, req.group
        else:
            attrs = (self.group_attrs.setdefault(req.group, {}) if kind.is_group_subject
                     else self.user_attrs)
            items, item = attrs.setdefault(req.att, set()), req.val
        (items.discard if kind.is_delete else items.add)(item)

    def freeze(self) -> DirectState:
        return DirectState(self.user_attrs, self.group_attrs, self.user_groups)


def _denial(state, hierarchy: GroupHierarchy, rules: RuleSet, req: Request) -> Optional[str]:
    """Why no rule admits the request, or None when one does; the rules are
    tried in id order up to the first that holds."""
    matched = rules.matching(req)
    subject = req.group if req.kind.is_group_subject else None
    for rule in matched:
        if rule.pre.holds(state, hierarchy, subject):
            return None
    return "precondition failed" if matched else "no matching rule"


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
    state = instance.initial_state  # what an empty plan leaves, with no copy made
    if plan:
        work = WorkingState(state)
        for i, req in enumerate(plan):
            reason = _denial(work, instance.hierarchy, instance.rules, req)
            if reason is not None:
                return InvalidAt(i, reason)
            work.apply(req)
        state = work.freeze()
    if eval_query(state, instance.hierarchy, q):
        return Valid(state)
    return QueryUnsatisfied(state)
