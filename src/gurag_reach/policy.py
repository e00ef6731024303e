"""Administrative rules: precondition formulas, the six relations, classifiers.

A rule set is classified along two independent axes: its *level* (whether
preconditions may mention attributes other than the rule's own target, and
whether group membership is administered at all) and its *restriction flags*
(no negation anywhere, no delete/remove rules, single-rule-with-direct-conjuncts).
``RuleSet.restrictions`` derives both in one pass, and the planners' gates and
``analyze``'s engine choice read it; ``_srd_literals`` is the one per-rule
SR_d shape test, shared by ``restrictions`` and ``RuleSet.srd_table``.
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
        # the request it admits, as the text format and rendered plans name
        # it (``canAddU`` admits ``addU``), and that request's arguments in
        # the order it renders them
        self.request_name = value[3].lower() + value[4:]
        self.request_fields = (("role", "group") if self.is_membership
                               else ("role", "group", "att", "val") if self.is_group_subject
                               else ("role", "att", "val"))


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
    """The conjunction of two or more ``parts``; an ``And`` given as a part is
    spliced in, so no ``And`` holds another directly."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[Precondition, ...]):
        parts = tuple(q for p in parts for q in (p.parts if isinstance(p, And) else (p,)))
        if len(parts) < 2:
            raise PolicyError("a conjunction needs two or more parts")
        self.__dict__.update(parts=parts)

    def walk(self):
        yield self
        for part in self.parts:
            yield from part.walk()

    def holds(self, state, hierarchy, subject):
        for part in self.parts:
            if not part.holds(state, hierarchy, subject):
                return False
        return True


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
    """The conjunction of ``parts``: ``True`` for none, the part itself for one."""
    return And(parts) if len(parts) > 1 else parts[0] if parts else TrueCond()


def conjuncts(pre: Precondition) -> list[Precondition]:
    """The parts of a top-level conjunction, or ``[pre]``."""
    return list(pre.parts) if isinstance(pre, And) else [pre]


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
    # the parts in order, so ``bit`` meets the literals left to right; then a
    # fold from the right, as over the binary tree ``a and (b and (c ...))``
    parts = [clauses(part, bit, positive) for part in pre.parts]
    out = parts.pop()
    while parts:
        left = parts.pop()
        if positive:
            out = [(c1 | c2, w1 | w2) for c1, w1 in left for c2, w2 in out
                   if not c1 & c2 & (w1 ^ w2)]
        else:
            out = left + out
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
                     rule.target_val, rule.target_group, i)
            )
        return cls(tuple(numbered))

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    @cached_property
    def _index(self) -> dict[tuple, tuple[Rule, ...]]:
        # keyed on the relation's ``order``: an int hashes in C, a member
        # through ``Enum.__hash__``
        index: dict[tuple, list[Rule]] = {}
        for r in self.rules:
            key = (r.relation.order, r.role, r.target_attr, r.target_val, r.target_group)
            index.setdefault(key, []).append(r)
        return {key: tuple(rules) for key, rules in index.items()}

    def matching(self, req) -> tuple[Rule, ...]:
        """Rules of the request's relation, role and target, in rule-id order."""
        kind = req.kind
        # canAddUG/canDeleteUG rules apply to every group, so a request's
        # group is not part of their key
        group = req.group if kind.is_membership else None
        return self._index.get((kind.order, req.role, req.att, req.val, group), ())

    @cached_property
    def srd_table(self) -> Optional[tuple[dict, dict]]:
        """The rule table of the paper's SR_d class, or None outside it.

        SR_d (single rule with direct conjuncts): every precondition is a
        conjunction of possibly-negated direct literals of its own kind,
        memberships for a membership rule and the subject's values for a value
        rule, so group assignment is independent of the values; and each value
        pair or group has at most one add/assign rule.  The table maps each
        (att, val) to its canAddU or canAddUG rule, and each group to its
        canAssign rule, with the rule's literals as (positive, (att, val)) and
        (positive, group) pairs.  Only the srd engine reads it: ``restrictions``
        decides the class with the same per-rule test, ``_srd_literals``, and
        builds no table.
        """
        pairs: dict[tuple[str, str], tuple[Rule, list]] = {}
        groups: dict[str, tuple[Rule, list]] = {}
        for rule in self.rules:
            shape = _srd_literals(rule)
            if shape is None:
                return None
            if rule.relation.is_delete:
                continue
            membership = rule.relation.is_membership
            # one rule per (att, val) across both add relations: a value pair
            # is addable through the user or through groups, never both
            table, key = ((groups, rule.target_group) if membership
                          else (pairs, (rule.target_attr, rule.target_val)))
            if key in table:
                return None
            table[key] = (rule, [(positive, lit.group) for positive, lit in shape] if membership
                          else [(positive, (lit.att, lit.val)) for positive, lit in shape])
        return pairs, groups

    @cached_property
    def restrictions(self) -> "RestrictionFlags":
        """The restriction flags and level, derived once per rule set in one
        pass; only a compound precondition is walked.

        The level is G1plus if membership is administered or group literals
        appear, G1 if a value rule's precondition mentions a foreign
        attribute, and G0 otherwise.  ``single_rule_direct`` is SR_d as
        ``srd_table`` defines it: every rule passes ``_srd_literals`` and no
        two add/assign rules share a target; the table itself is not built.
        """
        no_negation = no_deletion = srd = True
        group_level = cross_attribute = False
        targets: set = set()  # of the add/assign rules: groups and (att, val) pairs
        for rule in self.rules:
            relation = rule.relation
            membership = relation.is_membership
            no_deletion &= not relation.is_delete
            group_level |= membership
            pre = rule.pre
            kind = pre.__class__
            if srd:
                # ``true`` and a bare literal of the rule's own kind pass
                # ``_srd_literals`` without a call
                if (kind is not TrueCond and kind is not (DirectGroup if membership else DirectVal)
                        and _srd_literals(rule) is None):
                    srd = False
                elif not relation.is_delete:
                    target = (rule.target_group if membership
                              else (rule.target_attr, rule.target_val))
                    srd = target not in targets
                    targets.add(target)
            if kind is DirectVal or kind is EffVal:
                cross_attribute |= pre.att != rule.target_attr
            elif kind is DirectGroup or kind is EffGroup:
                group_level = True
            else:
                for node in pre.walk():
                    if isinstance(node, Not):
                        no_negation = False
                    elif isinstance(node, (DirectGroup, EffGroup)):
                        group_level = True
                    elif isinstance(node, (DirectVal, EffVal)):
                        cross_attribute |= node.att != rule.target_attr
        level = (Level.G1PLUS if group_level else Level.G1 if cross_attribute
                 else Level.G0)
        return RestrictionFlags(no_negation, no_deletion, srd, level)


def _srd_literals(rule: Rule) -> Optional[list[tuple[bool, Precondition]]]:
    """The rule's precondition as SR_d's (positive, literal) pairs, or None
    when it is not a conjunction of ``true`` and possibly-negated direct
    literals of the rule's own kind: memberships for a membership rule, the
    subject's values for a value rule."""
    kind = DirectGroup if rule.relation.is_membership else DirectVal
    out: list[tuple[bool, Precondition]] = []
    for part in conjuncts(rule.pre):
        positive = True
        while isinstance(part, Not):
            positive = not positive
            part = part.child
        if isinstance(part, kind):
            out.append((positive, part))
        elif not (positive and isinstance(part, TrueCond)):
            return None
    return out


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
    """The rule set's level, as ``RuleSet.restrictions`` derives it."""
    return rules.restrictions.level


def check_restrictions(rules: RuleSet) -> RestrictionFlags:
    return rules.restrictions
