"""Static model and direct state: attributes, scopes, group hierarchy, effective values.

Attribute names, atomic values, group ids and role names are opaque
case-sensitive tokens.  Tokens that look numeric ("2.03") are still compared
as strings.  All containers are frozen after construction; every operation in
this module is a pure function of its inputs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from ._record import Frozen


class ModelError(ValueError):
    """Raised for malformed inputs: unknown references, cyclic hierarchies."""


def _freeze_sets(mapping: Mapping[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    # An empty value set and an absent entry are the same thing; drop empties
    # so equality and canonical encodings do not depend on representation.
    out = {}
    for key in sorted(mapping):
        vals = frozenset(mapping[key])
        if vals:
            out[key] = vals
    return out


class GroupHierarchy(Frozen):
    """Seniority partial order over groups, given as direct (senior, junior) edges.

    The reflexive-transitive closure is computed internally; cyclic input is
    rejected because the closure must be a partial order.
    """

    _fields = ("groups", "direct_seniority")

    def __init__(self, groups: frozenset[str],
                 direct_seniority: frozenset[tuple[str, str]] = frozenset()):
        self.__dict__.update(groups=frozenset(groups), direct_seniority=frozenset(direct_seniority))
        for senior, junior in self.direct_seniority:
            for g in (senior, junior):
                if g not in self.groups:
                    raise ModelError(f"hierarchy references unknown group {g!r}")
        self._closures  # force cycle detection at construction time

    @cached_property
    def _juniors(self) -> dict[str, frozenset[str]]:
        direct: dict[str, set[str]] = {g: set() for g in self.groups}
        for senior, junior in self.direct_seniority:
            if senior != junior:
                direct[senior].add(junior)
        return {g: frozenset(js) for g, js in direct.items()}

    @cached_property
    def _closures(self) -> dict[str, frozenset[str]]:
        closures: dict[str, frozenset[str]] = {}
        visiting: set[str] = set()
        # depth first with an explicit stack of (group, juniors left to
        # visit), so a deep hierarchy cannot exhaust the interpreter's stack;
        # sorted, so a cycle is reported through the same group under every
        # hash seed
        for root in sorted(self.groups):
            if root in closures:
                continue
            visiting.add(root)
            stack = [(root, iter(sorted(self._juniors[root])))]
            while stack:
                g, juniors = stack[-1]
                for junior in juniors:
                    if junior in closures:
                        continue
                    if junior in visiting:
                        raise ModelError(f"cycle in group hierarchy through {junior!r}")
                    visiting.add(junior)
                    stack.append((junior, iter(sorted(self._juniors[junior]))))
                    break
                else:  # every junior is closed
                    stack.pop()
                    visiting.discard(g)
                    closures[g] = frozenset({g}.union(*(closures[j] for j in self._juniors[g])))
        return closures

    def junior_closure(self, g: str) -> frozenset[str]:
        """All groups the given group is senior to, reflexively and transitively."""
        try:
            return self._closures[g]
        except KeyError:
            raise ModelError(f"unknown group {g!r}") from None


class DirectState(Frozen):
    """The direct assignments for the single analyzed user and all groups.

    ``user_attrs``  maps attribute -> set of directly held values,
    ``group_attrs`` maps group -> attribute -> set of directly held values,
    ``user_groups`` is the set of groups the user is directly a member of.
    """

    _fields = ("user_attrs", "group_attrs", "user_groups")

    def __init__(
        self,
        user_attrs: Mapping[str, frozenset[str]] | None = None,
        group_attrs: Mapping[str, Mapping[str, frozenset[str]]] | None = None,
        user_groups: frozenset[str] = frozenset(),
    ):
        gattrs = {}
        for g in sorted(group_attrs or {}):
            frozen = _freeze_sets(group_attrs[g])
            if frozen:
                gattrs[g] = frozen
        self.__dict__.update(user_attrs=_freeze_sets(user_attrs or {}), group_attrs=gattrs,
                             user_groups=frozenset(user_groups))

    def user_values(self, att: str) -> frozenset[str]:
        return self.user_attrs.get(att, frozenset())

    def group_values(self, g: str, att: str) -> frozenset[str]:
        return self.group_attrs.get(g, {}).get(att, frozenset())

    def __hash__(self):
        return hash(canonical_key(self))


def canonical_key(state: DirectState) -> str:
    """Canonical, injective rendering of a state; equal states get equal keys."""
    parts = []
    for att in sorted(state.user_attrs):
        parts.append("u." + att + "=" + ",".join(sorted(state.user_attrs[att])))
    for g in sorted(state.group_attrs):
        for att in sorted(state.group_attrs[g]):
            parts.append(g + "." + att + "=" + ",".join(sorted(state.group_attrs[g][att])))
    parts.append("member=" + ",".join(sorted(state.user_groups)))
    return "|".join(parts)


def effective_groups(state: DirectState, hierarchy: GroupHierarchy) -> frozenset[str]:
    """Groups held directly plus everything junior to them."""
    acc: set[str] = set()
    for g in state.user_groups:
        acc |= hierarchy.junior_closure(g)
    return frozenset(acc)


def effective_group_attr(
    state: DirectState, hierarchy: GroupHierarchy, g: str, att: str
) -> frozenset[str]:
    """A group's direct values unioned with the effective values of its juniors."""
    acc: set[str] = set()
    for junior in hierarchy.junior_closure(g):
        acc |= state.group_values(junior, att)
    return frozenset(acc)


def effective_user_attr(state: DirectState, hierarchy: GroupHierarchy, att: str) -> frozenset[str]:
    """The user's direct values plus everything inherited via direct groups."""
    acc = set(state.user_values(att))
    for g in state.user_groups:
        acc |= effective_group_attr(state, hierarchy, g, att)
    return frozenset(acc)


class ProblemInstance(Frozen):
    """One fully specified analysis input: scopes, hierarchy, roles, rules, start state."""

    _fields = ("scopes", "hierarchy", "roles", "rules", "initial_state")

    def __init__(
        self,
        scopes: Mapping[str, frozenset[str]],
        hierarchy: GroupHierarchy,
        roles: frozenset[str],
        rules: "RuleSet",  # gurag_reach.policy.RuleSet
        initial_state: DirectState,
    ):
        self.__dict__.update(
            scopes={a: frozenset(vs) for a, vs in sorted(scopes.items())}, hierarchy=hierarchy,
            roles=frozenset(roles), rules=rules, initial_state=initial_state,
        )

    @property
    def groups(self) -> frozenset[str]:
        return self.hierarchy.groups

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(sorted(self.scopes))


def validate_instance(instance: ProblemInstance) -> list[str]:
    """Check every cross-reference and invariant; returns human-readable violations.

    An empty list means the instance is well formed.  This is the check for an
    instance built in code; one that ``dsl.parse`` returns cleanly passes it.
    Errors are data, not exceptions, so callers can report all problems at once.
    """
    # policy imports this module
    from .policy import (
        And, DirectGroup, DirectVal, EffGroup, EffVal, Not, PolicyError, TrueCond, clauses,
    )

    problems: list[str] = []
    scopes = instance.scopes
    groups = instance.groups

    for att, scope in scopes.items():
        if not scope:
            problems.append(f"attribute {att!r} has an empty scope")
    if "groups" in scopes:  # the text format's user block lists memberships under it
        problems.append("attribute name 'groups' is reserved for the user's groups")

    def check_values(where: str, att: str, vals: Iterable[str]):
        if att not in scopes:
            problems.append(f"{where}: unknown attribute {att!r}")
            return
        for val in sorted(vals):
            if val not in scopes[att]:
                problems.append(f"{where}: value {val!r} outside scope of {att!r}")

    state = instance.initial_state
    for att, vals in state.user_attrs.items():
        check_values("user state", att, vals)
    for g, attrs in state.group_attrs.items():
        if g not in groups:
            problems.append(f"group state: unknown group {g!r}")
        for att, vals in attrs.items():
            check_values(f"group state of {g!r}", att, vals)
    for g in sorted(state.user_groups):
        if g not in groups:
            problems.append(f"user membership: unknown group {g!r}")

    roles = instance.roles
    for rule in instance.rules:
        # a rule with a known role, a target in scope and a ``true`` or
        # single-literal precondition that resolves has nothing to report, so
        # it builds no message; every other rule is checked in full
        pre = rule.pre
        membership = rule.relation.is_membership
        if rule.role in roles and (
                rule.target_group in groups if membership
                else rule.target_val in scopes.get(rule.target_attr, ())) and (
                isinstance(pre, TrueCond)
                or isinstance(pre, (DirectVal, EffVal)) and pre.val in scopes.get(pre.att, ())
                or membership and isinstance(pre, (DirectGroup, EffGroup))
                and pre.group in groups):
            continue
        where = f"rule #{rule.rule_id}"
        if rule.role not in instance.roles:
            problems.append(f"{where}: unknown role {rule.role!r}")
        if rule.target_attr is not None:
            check_values(where, rule.target_attr, [rule.target_val])
        if rule.target_group is not None and rule.target_group not in groups:
            problems.append(f"{where}: unknown group {rule.target_group!r}")
        negated_and = False
        for node in rule.pre.walk():
            if isinstance(node, Not):
                negated_and |= isinstance(node.child, And)
            elif isinstance(node, (DirectVal, EffVal)):
                check_values(f"{where} precondition", node.att, [node.val])
            elif isinstance(node, (DirectGroup, EffGroup)):
                if node.group not in groups:
                    problems.append(f"{where} precondition: unknown group {node.group!r}")
                if not rule.relation.is_membership:
                    problems.append(
                        f"{where}: group membership literal outside an assign/remove rule"
                    )
        if negated_and:  # without one, a precondition is at most one clause
            literals: dict = {}
            try:
                clauses(rule.pre, lambda lit: literals.setdefault(lit, len(literals)))
            except PolicyError as exc:
                problems.append(f"{where}: {exc}")
    return problems
