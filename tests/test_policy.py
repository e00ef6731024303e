import pytest

from gurag_reach import fuzz
from gurag_reach.model import DirectState, GroupHierarchy
from gurag_reach.policy import (
    And,
    DirectGroup,
    DirectVal,
    EffGroup,
    EffVal,
    Level,
    Not,
    PolicyError,
    Relation,
    Rule,
    RuleSet,
    TrueCond,
    conjunction,
    conjuncts,
    _srd_literals,
)

from test_planner_answers import SEEDS as SRD_GROUPS_SEEDS, srd_groups_case

H = GroupHierarchy(frozenset({"G1", "G2"}), frozenset({("G1", "G2")}))


def rule(relation, pre, **kw):
    return Rule(relation, "r", pre, **kw)


def srd_flag_and_table(rules):
    """The SR_d flag of one fresh rule set, which must be decided without
    building its table, and the table of a second fresh one."""
    first = RuleSet(rules.rules)
    flag = first.restrictions.single_rule_direct
    assert "srd_table" not in first.__dict__
    return flag, RuleSet(rules.rules).srd_table


class TestPreconditionSemantics:
    state = DirectState(
        user_attrs={"a": {"x"}},
        group_attrs={"G1": {"a": {"g"}}, "G2": {"a": {"j"}}},
        user_groups={"G1"},
    )

    def test_direct_vs_effective_for_user(self):
        assert DirectVal("a", "x").holds(self.state, H, None)
        assert not DirectVal("a", "g").holds(self.state, H, None)
        assert EffVal("a", "g").holds(self.state, H, None)
        assert EffVal("a", "j").holds(self.state, H, None)

    def test_group_subject_uses_group_segment(self):
        assert DirectVal("a", "g").holds(self.state, H, "G1")
        assert not DirectVal("a", "j").holds(self.state, H, "G1")
        # effective for a group includes its juniors
        assert EffVal("a", "j").holds(self.state, H, "G1")

    def test_membership_literals(self):
        assert DirectGroup("G1").holds(self.state, H, None)
        assert not DirectGroup("G2").holds(self.state, H, None)
        assert EffGroup("G2").holds(self.state, H, None)

    def test_membership_literal_rejected_for_group_subject(self):
        for literal in (DirectGroup("G1"), EffGroup("G1")):
            with pytest.raises(PolicyError, match="evaluated for a group subject"):
                literal.holds(self.state, H, "G2")

    def test_boolean_connectives(self):
        pre = And((DirectVal("a", "x"), Not(DirectVal("a", "g"))))
        assert pre.holds(self.state, H, None)
        assert TrueCond().holds(DirectState(), H, None)


def test_conjunction_roundtrip():
    parts = [DirectVal("a", "x"), Not(DirectVal("a", "y")), TrueCond()]
    assert conjuncts(conjunction(parts)) == parts
    assert conjunction([]) == TrueCond()
    assert conjunction([parts[0]]) == parts[0]


def test_and_splices_nested_conjunctions():
    a, b, c = DirectVal("a", "x"), Not(DirectVal("a", "y")), EffGroup("G1")
    assert And((And((a, b)), c)) == And((a, b, c))
    assert And((a, And((b, c)))).parts == (a, b, c)
    with pytest.raises(PolicyError):
        And((a,))


def test_srd_literals_shape():
    # a value rule reads its subject's direct values, ``true`` adds nothing,
    # and a literal under an odd number of ``not`` is negated
    value = rule(Relation.ADD_U, conjunction([DirectVal("a", "x"), TrueCond(),
                                              Not(Not(Not(DirectVal("a", "y"))))]),
                 target_attr="a", target_val="z")
    assert _srd_literals(value) == [(True, DirectVal("a", "x")), (False, DirectVal("a", "y"))]
    # an assign rule reads the user's direct groups
    assign = rule(Relation.ASSIGN, conjunction([DirectGroup("G2"), Not(DirectGroup("G1"))]),
                  target_group="G1")
    assert _srd_literals(assign) == [(True, DirectGroup("G2")), (False, DirectGroup("G1"))]
    assert _srd_literals(rule(Relation.ADD_UG, TrueCond(), target_attr="a", target_val="x")) == []
    # a literal of the other kind, an effective literal and a negated true
    # each break the shape
    value_target, group_target = {"target_attr": "a", "target_val": "z"}, {"target_group": "G1"}
    for broken in [
        rule(Relation.ADD_U, conjunction([DirectVal("a", "x"), DirectGroup("G1")]), **value_target),
        rule(Relation.ASSIGN, DirectVal("a", "x"), **group_target),
        rule(Relation.ADD_U, EffVal("a", "x"), **value_target),
        rule(Relation.ASSIGN, Not(EffGroup("G2")), **group_target),
        rule(Relation.ADD_UG, Not(TrueCond()), **value_target),
    ]:
        assert _srd_literals(broken) is None, broken


class TestRuleShape:
    def test_value_rule_requires_attr_and_val(self):
        with pytest.raises(PolicyError):
            rule(Relation.ADD_U, TrueCond(), target_group="G1")
        with pytest.raises(PolicyError):
            rule(Relation.ADD_U, TrueCond(), target_attr="a")

    def test_membership_rule_requires_group_only(self):
        with pytest.raises(PolicyError):
            rule(Relation.ASSIGN, TrueCond(), target_attr="a", target_val="x")

    def test_ruleset_ids_are_dense(self):
        rs = RuleSet.build([
            rule(Relation.ADD_U, TrueCond(), target_attr="a", target_val="x"),
            rule(Relation.ASSIGN, TrueCond(), target_group="G1"),
        ])
        assert [r.rule_id for r in rs] == [0, 1]
        with pytest.raises(PolicyError):
            RuleSet((rs.rules[1],))  # id 1 at position 0


class TestClassification:
    def test_level_g0(self):
        rs = RuleSet.build([
            rule(Relation.ADD_U, DirectVal("a", "x"), target_attr="a", target_val="y"),
        ])
        assert rs.restrictions.level == Level.G0

    def test_level_g1_cross_attribute(self):
        rs = RuleSet.build([
            rule(Relation.ADD_U, DirectVal("b", "x"), target_attr="a", target_val="y"),
        ])
        assert rs.restrictions.level == Level.G1

    def test_level_g1plus_membership(self):
        rs = RuleSet.build([rule(Relation.ASSIGN, TrueCond(), target_group="G1")])
        assert rs.restrictions.level == Level.G1PLUS
        assert Level.G1PLUS.value == "G1plus"

    def test_restriction_flags(self):
        rs = RuleSet.build([
            rule(Relation.ADD_U, Not(DirectVal("a", "x")), target_attr="a", target_val="y"),
            rule(Relation.DELETE_U, TrueCond(), target_attr="a", target_val="y"),
            rule(Relation.ASSIGN, conjunction([DirectGroup("G2"), Not(DirectGroup("G1")),
                                               TrueCond()]), target_group="G1"),
        ])
        flags = rs.restrictions
        assert not flags.no_negation
        assert not flags.no_deletion
        # negated direct literals of the rule's own kind keep the shape
        assert flags.single_rule_direct
        # derived once per rule set, and not part of its equality
        assert rs.restrictions is flags
        assert rs == RuleSet(rs.rules) and repr(rs) == repr(RuleSet(rs.rules))

    @pytest.mark.parametrize("pre, target, no_negation, level", [
        # a negation nested under a conjunction
        (conjunction([DirectVal("a", "x"), Not(DirectVal("a", "y"))]), "z", False, Level.G0),
        # a foreign attribute read only under a negation
        (Not(DirectVal("b", "x")), "y", False, Level.G1),
        (conjunction([DirectVal("a", "x"), EffVal("b", "x")]), "y", True, Level.G1),
        # a group literal only inside a negated conjunction of a value rule
        (Not(conjunction([DirectVal("a", "x"), EffGroup("G1")])), "y", False, Level.G1PLUS),
    ], ids=["not-under-and", "cross-under-not", "cross-under-and", "group-under-not-and"])
    def test_restriction_flags_of_compound_preconditions(self, pre, target, no_negation, level):
        rs = RuleSet.build([
            rule(Relation.ADD_U, DirectVal("a", "x"), target_attr="a", target_val="x"),
            rule(Relation.ADD_U, pre, target_attr="a", target_val=target),
        ])
        flags = rs.restrictions
        assert (flags.no_negation, flags.no_deletion, flags.level) == (no_negation, True, level)

    def test_srd_table(self):
        rs = RuleSet.build([
            rule(Relation.ADD_U, Not(DirectVal("a", "x")), target_attr="a", target_val="y"),
            rule(Relation.DELETE_U, TrueCond(), target_attr="a", target_val="y"),
            rule(Relation.ADD_UG, TrueCond(), target_attr="a", target_val="x"),
            rule(Relation.ASSIGN, conjunction([DirectGroup("G2"), Not(DirectGroup("G1")),
                                               TrueCond()]), target_group="G1"),
        ])
        add_u, _, add_ug, assign = rs.rules
        # the delete rule is checked for the class but has no entry
        assert rs.srd_table == (
            {("a", "y"): (add_u, [(False, ("a", "x"))]), ("a", "x"): (add_ug, [])},
            {"G1": (assign, [(True, "G2"), (False, "G1")])},
        )
        assert rs.srd_table is rs.srd_table

    @pytest.mark.parametrize("cls", fuzz.CLASSES)
    def test_srd_table_exists_exactly_for_single_rule_direct(self, cls):
        for seed in range(2000):
            rules = fuzz.generate(cls, seed)[0].rules
            flag, table = srd_flag_and_table(rules)
            assert (table is not None) == flag, seed
            if table is not None:
                pairs, groups = table
                assert sorted(r.rule_id for r, _ in (*pairs.values(), *groups.values())) == [
                    r.rule_id for r in rules
                    if r.relation in (Relation.ADD_U, Relation.ADD_UG, Relation.ASSIGN)], seed

    def test_srd_table_exists_exactly_for_single_rule_direct_on_srd_groups(self):
        # the 3-5 group envelope, where an assign rule now and then reads a value
        kinds = set()
        for seed in SRD_GROUPS_SEEDS:
            flag, table = srd_flag_and_table(srd_groups_case(seed)[0].rules)
            assert (table is not None) == flag, seed
            kinds.add(flag)
        assert kinds == {True, False}

    @pytest.mark.parametrize("rules, single_rule_direct", [
        ([rule(Relation.ADD_U, Not(TrueCond()), target_attr="a", target_val="y")], False),
        ([rule(Relation.ADD_U, conjunction([DirectVal("a", "x"), Not(TrueCond())]),
               target_attr="a", target_val="y")], False),
        ([rule(Relation.ADD_U, Not(Not(TrueCond())), target_attr="a", target_val="y")], True),
        ([rule(Relation.ADD_U, Not(Not(DirectVal("a", "x"))), target_attr="a",
               target_val="y")], True),
        ([rule(Relation.ASSIGN, Not(Not(DirectGroup("G2"))), target_group="G1")], True),
        ([rule(Relation.ADD_U, Not(Not(EffVal("a", "x"))), target_attr="a",
               target_val="y")], False),
        ([rule(Relation.ADD_UG, EffVal("a", "x"), target_attr="a", target_val="y")], False),
        ([rule(Relation.ASSIGN, EffGroup("G2"), target_group="G1")], False),
        ([rule(Relation.ASSIGN, conjunction([DirectGroup("G2"), Not(EffGroup("G2"))]),
               target_group="G1")], False),
        ([rule(Relation.ASSIGN, DirectVal("a", "x"), target_group="G1")], False),
        ([rule(Relation.ADD_UG, DirectGroup("G1"), target_attr="a", target_val="y")], False),
        # a delete rule is checked for its shape, but shares targets freely
        ([rule(Relation.ADD_U, TrueCond(), target_attr="a", target_val="y"),
          rule(Relation.DELETE_U, EffVal("a", "x"), target_attr="a", target_val="y")], False),
        ([rule(Relation.ASSIGN, TrueCond(), target_group="G1"),
          rule(Relation.REMOVE, Not(DirectVal("a", "x")), target_group="G1")], False),
        ([rule(Relation.ADD_U, TrueCond(), target_attr="a", target_val="y"),
          rule(Relation.DELETE_U, DirectVal("a", "x"), target_attr="a", target_val="y"),
          rule(Relation.DELETE_U, TrueCond(), target_attr="a", target_val="y")], True),
        ([rule(Relation.ADD_U, TrueCond(), target_attr="a", target_val="y"),
          rule(Relation.ADD_UG, DirectVal("a", "x"), target_attr="a", target_val="y")], False),
        ([rule(Relation.ADD_UG, TrueCond(), target_attr="a", target_val="y"),
          rule(Relation.ADD_UG, TrueCond(), target_attr="a", target_val="y")], False),
        ([rule(Relation.ADD_U, TrueCond(), target_attr="a", target_val="x"),
          rule(Relation.ADD_UG, TrueCond(), target_attr="a", target_val="y"),
          rule(Relation.ASSIGN, TrueCond(), target_group="G1"),
          rule(Relation.ASSIGN, TrueCond(), target_group="G2")], True),
    ], ids=["not-true", "not-true-under-and", "double-not-true", "double-not-value",
            "double-not-group", "double-not-effective", "eff-value", "eff-group",
            "eff-group-under-and", "assign-reads-value", "addUG-reads-group",
            "delete-reads-effective", "remove-reads-value", "deletes-share-a-target",
            "pair-through-addU-and-addUG", "pair-twice-through-addUG", "distinct-targets"])
    def test_single_rule_direct_by_hand(self, rules, single_rule_direct):
        rs = RuleSet.build(rules)
        flag, table = srd_flag_and_table(rs)
        assert flag == single_rule_direct
        assert (table is not None) == single_rule_direct

    def test_single_rule_violated_across_add_relations(self):
        # one pair addable both directly and through groups breaks the
        # single-rule restriction even though the relations differ
        rs = RuleSet.build([
            rule(Relation.ADD_U, TrueCond(), target_attr="a", target_val="x"),
            rule(Relation.ADD_UG, TrueCond(), target_attr="a", target_val="x"),
        ])
        assert not rs.restrictions.single_rule_direct
        assert rs.srd_table is None

    def test_single_rule_violated_by_duplicate_assign(self):
        rs = RuleSet.build([
            rule(Relation.ASSIGN, TrueCond(), target_group="G1"),
            rule(Relation.ASSIGN, DirectGroup("G2"), target_group="G1"),
        ])
        assert not rs.restrictions.single_rule_direct
        assert rs.srd_table is None

    def test_single_rule_violated_by_effective_literal(self):
        rs = RuleSet.build([
            rule(Relation.ADD_U, EffVal("a", "x"), target_attr="a", target_val="y"),
        ])
        assert not rs.restrictions.single_rule_direct
        assert rs.srd_table is None

    @pytest.mark.parametrize("relation, pre", [
        (Relation.ASSIGN, DirectVal("a", "x")),
        (Relation.ASSIGN, Not(DirectVal("a", "x"))),
        # rejected by instance validation, but classified on its own
        (Relation.ADD_U, DirectGroup("G1")),
    ], ids=["assign-value", "assign-negated-value", "addU-group"])
    def test_single_rule_violated_by_literal_of_the_other_kind(self, relation, pre):
        # an assign rule reads only memberships and a value rule only values
        target = ({"target_group": "G1"} if relation.is_membership
                  else {"target_attr": "a", "target_val": "y"})
        rs = RuleSet.build([rule(relation, pre, **target)])
        assert not rs.restrictions.single_rule_direct
        assert rs.srd_table is None
