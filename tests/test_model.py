import pytest
from hypothesis import given, strategies as st

from gurag_reach.model import (
    DirectState,
    GroupHierarchy,
    ModelError,
    ProblemInstance,
    canonical_key,
    effective_group_attr,
    effective_groups,
    effective_user_attr,
    validate_instance,
)
from gurag_reach.policy import (
    And, DirectGroup, DirectVal, EffGroup, EffVal, Not, Relation, Rule, RuleSet, TrueCond,
)


def hierarchy():
    return GroupHierarchy(
        frozenset({"G1", "G2", "G3"}),
        frozenset({("G1", "G2"), ("G1", "G3")}),
    )


class TestGroupHierarchy:
    def test_junior_closure_is_reflexive_and_transitive(self):
        h = GroupHierarchy(frozenset("ABC"), frozenset({("A", "B"), ("B", "C")}))
        assert h.junior_closure("A") == {"A", "B", "C"}
        assert h.junior_closure("B") == {"B", "C"}
        assert h.junior_closure("C") == {"C"}

    def test_unknown_group_in_edge_rejected(self):
        with pytest.raises(ModelError):
            GroupHierarchy(frozenset({"A"}), frozenset({("A", "B")}))

    def test_cycle_rejected_at_construction(self):
        with pytest.raises(ModelError):
            GroupHierarchy(frozenset("AB"), frozenset({("A", "B"), ("B", "A")}))

    def test_self_edge_is_harmless(self):
        # reflexivity is implicit; an explicit self edge is not a cycle
        h = GroupHierarchy(frozenset({"A"}), frozenset({("A", "A")}))
        assert h.junior_closure("A") == {"A"}

    def test_unknown_group_lookup(self):
        with pytest.raises(ModelError):
            hierarchy().junior_closure("nope")


class TestDirectState:
    def test_empty_sets_are_normalized_away(self):
        a = DirectState(user_attrs={"a": set()}, group_attrs={"G": {"a": set()}})
        b = DirectState()
        assert a == b
        assert canonical_key(a) == canonical_key(b)

    def test_construction_order_does_not_matter(self):
        a = DirectState(user_attrs={"a": {"x", "y"}, "b": {"z"}})
        b = DirectState(user_attrs={"b": {"z"}, "a": {"y", "x"}})
        assert a == b and hash(a) == hash(b)

    def test_canonical_key_distinguishes_scopes(self):
        # the same (att, val) held by the user vs by a group must differ
        u = DirectState(user_attrs={"a": {"x"}})
        g = DirectState(group_attrs={"G": {"a": {"x"}}})
        assert canonical_key(u) != canonical_key(g)


class TestEffectiveValues:
    def test_inheritance_flows_senior_from_junior(self):
        h = hierarchy()
        state = DirectState(
            group_attrs={"G1": {"r": {"2.03", "2.04"}}, "G2": {"r": {"3.02"}}},
            user_attrs={"r": {"1.2"}},
            user_groups={"G1"},
        )
        assert effective_group_attr(state, h, "G2", "r") == {"3.02"}
        assert effective_group_attr(state, h, "G3", "r") == frozenset()
        assert effective_group_attr(state, h, "G1", "r") == {"2.03", "2.04", "3.02"}
        assert effective_user_attr(state, h, "r") == {"1.2", "2.03", "2.04", "3.02"}

    def test_effective_groups_includes_juniors(self):
        h = hierarchy()
        state = DirectState(user_groups={"G1"})
        assert effective_groups(state, h) == {"G1", "G2", "G3"}
        assert effective_groups(DirectState(user_groups={"G2"}), h) == {"G2"}

    def test_no_membership_means_direct_only(self):
        h = hierarchy()
        state = DirectState(user_attrs={"r": {"1.2"}},
                            group_attrs={"G1": {"r": {"9"}}})
        assert effective_user_attr(state, h, "r") == {"1.2"}


names = st.sampled_from(["a", "b", "c"])
vals = st.sampled_from(["x", "y", "z"])


@given(st.dictionaries(names, st.frozensets(vals, max_size=3), max_size=3))
def test_canonical_key_is_injective_on_user_attrs(attrs):
    state = DirectState(user_attrs=attrs)
    rebuilt = DirectState(user_attrs={k: set(v) for k, v in attrs.items() if v})
    assert canonical_key(state) == canonical_key(rebuilt)
    assert state == rebuilt


def test_validate_instance_reports_each_problem():
    inst = ProblemInstance(
        scopes={"a": frozenset({"x"}), "empty": frozenset()},
        hierarchy=GroupHierarchy(frozenset({"G"})),
        roles=frozenset({"r"}),
        rules=RuleSet(),
        initial_state=DirectState(
            user_attrs={"a": {"bad"}},
            group_attrs={"Ghost": {"a": {"x"}}},
            user_groups={"Ghost"},
        ),
    )
    problems = validate_instance(inst)
    joined = "\n".join(problems)
    assert "empty scope" in joined
    assert "outside scope" in joined
    assert "'Ghost'" in joined
    assert len(problems) >= 4


def test_validate_instance_clean():
    inst = ProblemInstance(
        scopes={"a": frozenset({"x"})},
        hierarchy=GroupHierarchy(frozenset()),
        roles=frozenset({"r"}),
        rules=RuleSet(),
        initial_state=DirectState(user_attrs={"a": {"x"}}),
    )
    assert validate_instance(inst) == []


NOT_PAIR = Not(And((DirectVal("a", "x"), EffVal("a", "x"))))


def test_validate_instance_reports_each_rule_problem():
    rules = RuleSet.build([
        Rule(Relation.ADD_U, "r", TrueCond(), "nope", "x"),
        Rule(Relation.ADD_U, "boss", TrueCond(), "a", "x"),
        Rule(Relation.ASSIGN, "r", TrueCond(), target_group="Ghost"),
        Rule(Relation.REMOVE, "r", EffGroup("Phantom"), target_group="G"),
        Rule(Relation.ADD_U, "r", DirectGroup("G"), "a", "x"),
        # each in a shape a well-formed rule shares, one problem apart
        Rule(Relation.ADD_U, "r", DirectVal("a", "zz"), "a", "x"),
        Rule(Relation.ASSIGN, "r", EffGroup("G"), target_group="G"),  # well formed
        Rule(Relation.ADD_U, "r", EffVal("nope", "x"), "a", "x"),
        Rule(Relation.ADD_UG, "r", TrueCond(), "a", "zz"),
        Rule(Relation.ADD_U, "r", EffVal("a", "x"), "a", "x"),  # well formed
        # negated pairs expand to 2**7 clauses, past the bound of 64, and to 2**6
        Rule(Relation.ADD_U, "r", And((NOT_PAIR,) * 7), "a", "x"),
        Rule(Relation.ADD_U, "r", And((NOT_PAIR,) * 6), "a", "x"),  # well formed
    ])
    inst = ProblemInstance(
        scopes={"a": frozenset({"x"})},
        hierarchy=GroupHierarchy(frozenset({"G"})),
        roles=frozenset({"r"}),
        rules=rules,
        initial_state=DirectState(),
    )
    assert validate_instance(inst) == [
        "rule #0: unknown attribute 'nope'",
        "rule #1: unknown role 'boss'",
        "rule #2: unknown group 'Ghost'",
        "rule #3 precondition: unknown group 'Phantom'",
        "rule #4: group membership literal outside an assign/remove rule",
        "rule #5 precondition: value 'zz' outside scope of 'a'",
        "rule #7 precondition: unknown attribute 'nope'",
        "rule #8: value 'zz' outside scope of 'a'",
        "rule #10: precondition expands to more than 64 clauses",
    ]
