"""Administrative rules: precondition formulas, the six relations, classifiers.

A rule set is classified along two independent axes: its *level* (whether
preconditions may mention attributes other than the rule's own target, and
whether group membership is administered at all) and its *restriction flags*
(no negation anywhere, no delete/remove rules, single-rule-with-direct-conjuncts).
The planners consult these classifications to decide applicability.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Iterator, Optional

from ._record import Frozen
from .model import DirectState, GroupHierarchy, effective_group_attr, effective_groups, effective_user_attr


class PolicyError(ValueError):
    """Contract violation, e.g. a group literal evaluated for a group subject."""


class Relation(enum.Enum):
    ADD_U = "canAddU"
    DELETE_U = "canDeleteU"
    ADD_UG = "canAddUG"
    DELETE_UG = "canDeleteUG"
    ASSIGN = "canAssign"
    REMOVE = "canRemove"

    def __init__(self, value: str):
        # plain member attributes: rules and requests read them as they are built
        self.order = len(type(self)._member_names_)  # declaration order
        self.is_membership = value in ("canAssign", "canRemove")
        # whether preconditions are evaluated against the target group
        self.is_group_subject = value in ("canAddUG", "canDeleteUG")
        self.is_delete = value in ("canDeleteU", "canDeleteUG", "canRemove")


# --- Precondition formula AST -------------------------------------------------
#
# Subjects: a value literal refers to the rule's subject (the user for
# canAddU/canDeleteU/canAssign/canRemove, the target group for
# canAddUG/canDeleteUG).  Group membership literals always refer to the user
# and are only legal in assign/remove rules.

class Precondition(Frozen):
    def walk(self) -> Iterator["Precondition"]:
        yield self

    def holds(self, state: DirectState, hierarchy: GroupHierarchy, subject: Optional[str]) -> bool:
        """Evaluate against a state; ``subject`` is None for the user, else a group id."""
        raise NotImplementedError


class TrueCond(Precondition):
    """Always satisfied; lets unconditional rules be written."""

    def holds(self, state, hierarchy, subject):
        return True


class Not(Precondition):
    _fields = ("child",)

    def __init__(self, child: Precondition):
        self.__dict__.update(child=child)

    def walk(self):
        yield self
        yield from self.child.walk()

    def holds(self, state, hierarchy, subject):
        return not self.child.holds(state, hierarchy, subject)


class And(Precondition):
    _fields = ("left", "right")

    def __init__(self, left: Precondition, right: Precondition):
        self.__dict__.update(left=left, right=right)

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def holds(self, state, hierarchy, subject):
        return self.left.holds(state, hierarchy, subject) and self.right.holds(
            state, hierarchy, subject
        )


class DirectVal(Precondition):
    _fields = ("att", "val")

    def __init__(self, att: str, val: str):
        self.__dict__.update(att=att, val=val)

    def holds(self, state, hierarchy, subject):
        if subject is None:
            return self.val in state.user_values(self.att)
        return self.val in state.group_values(subject, self.att)


class EffVal(Precondition):
    _fields = ("att", "val")

    def __init__(self, att: str, val: str):
        self.__dict__.update(att=att, val=val)

    def holds(self, state, hierarchy, subject):
        if subject is None:
            return self.val in effective_user_attr(state, hierarchy, self.att)
        return self.val in effective_group_attr(state, hierarchy, subject, self.att)


class DirectGroup(Precondition):
    _fields = ("group",)

    def __init__(self, group: str):
        self.__dict__.update(group=group)

    def holds(self, state, hierarchy, subject):
        if subject is not None:
            raise PolicyError("group membership literal evaluated for a group subject")
        return self.group in state.user_groups


class EffGroup(Precondition):
    _fields = ("group",)

    def __init__(self, group: str):
        self.__dict__.update(group=group)

    def holds(self, state, hierarchy, subject):
        if subject is not None:
            raise PolicyError("group membership literal evaluated for a group subject")
        return self.group in effective_groups(state, hierarchy)


def conjunction(parts: list[Precondition]) -> Precondition:
    """N-ary conjunction stored as a right-nested binary tree."""
    if not parts:
        return TrueCond()
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = And(part, result)
    return result


def conjuncts(pre: Precondition) -> list[Precondition]:
    """Flatten top-level conjunction back into its parts."""
    if isinstance(pre, And):
        return conjuncts(pre.left) + conjuncts(pre.right)
    return [pre]


def direct_conjunct_shape(pre: Precondition) -> Optional[list[tuple[bool, Precondition]]]:
    """Decompose into (positive, literal) pairs if the formula is a conjunction of
    possibly-negated Direct* literals (or True); None if it has any other shape."""
    out: list[tuple[bool, Precondition]] = []
    for part in conjuncts(pre):
        positive = True
        while isinstance(part, Not):
            positive = not positive
            part = part.child
        if isinstance(part, TrueCond):
            if not positive:
                return None
            continue
        if isinstance(part, (DirectVal, DirectGroup)):
            out.append((positive, part))
        else:
            return None
    return out


MAX_CLAUSES = 64


def clauses(pre: Precondition, bit, positive: bool = True) -> list[tuple[int, int]]:
    """``pre`` (``not(pre)`` if not ``positive``) as a disjunction of clauses
    ``(care, want)`` over literal bits.

    ``bit(literal)`` numbers the literals; a clause holds when the literal bits
    selected by ``care`` read ``want``, so a negated literal is a care bit with
    a clear want bit.  ``[(0, 0)]`` is true and ``[]`` false.  Negation is
    pushed to the literals (``not(a and b)`` becomes ``not a or not b``) and
    self-contradictory clauses are dropped.  Raises ``PolicyError`` when a
    sub-formula needs more than ``MAX_CLAUSES`` clauses.
    """
    if isinstance(pre, Not):
        return clauses(pre.child, bit, not positive)
    if isinstance(pre, TrueCond):
        return [(0, 0)] if positive else []
    if not isinstance(pre, And):
        b = 1 << bit(pre)
        return [(b, b if positive else 0)]
    left, right = clauses(pre.left, bit, positive), clauses(pre.right, bit, positive)
    if positive:
        out = [(c1 | c2, w1 | w2) for c1, w1 in left for c2, w2 in right
               if not c1 & c2 & (w1 ^ w2)]
    else:
        out = left + right
    if len(out) > MAX_CLAUSES:
        raise PolicyError(f"precondition expands to more than {MAX_CLAUSES} clauses")
    return out


# --- Rules -------------------------------------------------------------------

class Rule(Frozen):
    _fields = ("relation", "role", "pre", "target_attr", "target_val", "target_group", "rule_id")

    def __init__(
        self,
        relation: Relation,
        role: str,
        pre: Precondition,
        target_attr: Optional[str] = None,   # value relations only
        target_val: Optional[str] = None,    # value relations only
        target_group: Optional[str] = None,  # assign/remove only
        rule_id: int = 0,
    ):
        if relation.is_membership:
            if target_group is None or target_attr is not None or target_val is not None:
                raise PolicyError(f"{relation.value} rule must target a group only")
        else:
            if target_attr is None or target_val is None or target_group is not None:
                raise PolicyError(f"{relation.value} rule must target an (attribute, value)")
        self.__dict__.update(relation=relation, role=role, pre=pre, target_attr=target_attr,
                             target_val=target_val, target_group=target_group, rule_id=rule_id)


class RuleSet(Frozen):
    _fields = ("rules",)

    def __init__(self, rules: tuple[Rule, ...] = ()):
        rules = tuple(rules)
        for i, rule in enumerate(rules):
            if rule.rule_id != i:
                raise PolicyError(f"rule ids must be dense declaration order; got {rule.rule_id} at {i}")
        self.__dict__.update(rules=rules)

    @classmethod
    def build(cls, rules) -> "RuleSet":
        """Assign dense ids in declaration order."""
        numbered = []
        for i, rule in enumerate(rules):
            numbered.append(
                Rule(rule.relation, rule.role, rule.pre, rule.target_attr,
                     rule.target_val, rule.target_group, rule_id=i)
            )
        return cls(tuple(numbered))

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    @cached_property
    def _index(self) -> dict[tuple, tuple[Rule, ...]]:
        index: dict[tuple, list[Rule]] = {}
        for r in self.rules:
            key = (r.relation, r.role, r.target_attr, r.target_val, r.target_group)
            index.setdefault(key, []).append(r)
        return {key: tuple(rules) for key, rules in index.items()}

    def matching(self, req) -> tuple[Rule, ...]:
        """Rules of the request's relation, role and target, in rule-id order."""
        # canAddUG/canDeleteUG rules apply to every group, so a request's
        # group is not part of their key
        group = req.group if req.kind.is_membership else None
        return self._index.get((req.kind, req.role, req.att, req.val, group), ())

    @cached_property
    def restrictions(self) -> "RestrictionFlags":
        """The restriction flags and level, derived once per rule set."""
        no_negation = not any(
            isinstance(node, Not) for rule in self.rules for node in rule.pre.walk()
        )
        no_deletion = not any(rule.relation.is_delete for rule in self.rules)

        # Single rule with direct conjuncts: every precondition is a conjunction
        # of possibly-negated direct literals (negated direct literals are fine;
        # only effective literals break the shape), and each value assignment or
        # group has at most one add/assign rule.
        single = True
        seen_pairs: set[tuple[str, str]] = set()
        seen_assign: set[str] = set()
        for rule in self.rules:
            if direct_conjunct_shape(rule.pre) is None:
                single = False
                break
            if rule.relation in (Relation.ADD_U, Relation.ADD_UG):
                # one rule per (att, val) across both add relations: a value
                # pair is addable through the user or through groups, never both
                key = (rule.target_attr, rule.target_val)
                if key in seen_pairs:
                    single = False
                    break
                seen_pairs.add(key)
            elif rule.relation == Relation.ASSIGN:
                if rule.target_group in seen_assign:
                    single = False
                    break
                seen_assign.add(rule.target_group)
        return RestrictionFlags(no_negation, no_deletion, single, classify_level(self))


def eval_precondition(
    pre: Precondition,
    state: DirectState,
    hierarchy: GroupHierarchy,
    subject: Optional[str] = None,
) -> bool:
    """Standard boolean semantics; ``subject`` None means the user."""
    return pre.holds(state, hierarchy, subject)


class Level(enum.Enum):
    G0 = "G0"
    G1 = "G1"
    G1PLUS = "G1plus"


class RestrictionFlags(Frozen):
    _fields = ("no_negation", "no_deletion", "single_rule_direct", "level")

    def __init__(self, no_negation: bool, no_deletion: bool, single_rule_direct: bool,
                 level: Level):
        self.__dict__.update(no_negation=no_negation, no_deletion=no_deletion,
                             single_rule_direct=single_rule_direct, level=level)


def classify_level(rules: RuleSet) -> Level:
    """G1plus if membership is administered or group literals appear; G1 if a
    value rule's precondition mentions a foreign attribute; G0 otherwise."""
    cross_attribute = False
    for rule in rules:
        if rule.relation.is_membership:
            return Level.G1PLUS
        for node in rule.pre.walk():
            if isinstance(node, (DirectGroup, EffGroup)):
                return Level.G1PLUS
            if isinstance(node, (DirectVal, EffVal)) and node.att != rule.target_attr:
                cross_attribute = True
    return Level.G1 if cross_attribute else Level.G0


def check_restrictions(rules: RuleSet) -> RestrictionFlags:
    return rules.restrictions
