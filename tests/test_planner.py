import pytest
from hypothesis import given, settings, strategies as st

from gurag_reach import fuzz
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance
from gurag_reach.planner import (
    CYCLE_IN_VALSET,
    EXTRA_VALUES,
    FIXPOINT_EXHAUSTED,
    MISSING_RULE,
    NEGATIVE_CONJUNCT,
    NOTE_GROUP_CYCLE,
    RestrictionViolation,
    _scc_discard,
    attr_phase,
    group_phase,
    solve_no_negation,
    solve_srd_no_delete,
)
from gurag_reach.policy import (
    DirectGroup,
    DirectVal,
    EffVal,
    Not,
    Relation,
    Rule,
    RuleSet,
    TrueCond,
    conjunction,
)
from gurag_reach.search import Reachable, Unreachable, bfs_solve
from gurag_reach.transition import QueryType, ReachabilityQuery, Valid, validate_plan


def make(rules, scopes=None, groups=(), seniority=(), state=None, roles=("r",)):
    return ProblemInstance(
        scopes=scopes or {"a": frozenset({"x", "y", "z"})},
        hierarchy=GroupHierarchy(frozenset(groups), frozenset(seniority)),
        roles=frozenset(roles),
        rules=RuleSet.build(rules),
        initial_state=state or DirectState(),
    )


def addu(val, pre=None, att="a"):
    return Rule(Relation.ADD_U, "r", pre or TrueCond(), target_attr=att, target_val=val)


def addug(val, pre=None, att="a"):
    return Rule(Relation.ADD_UG, "r", pre or TrueCond(), target_attr=att, target_val=val)


def assign(g, pre=None):
    return Rule(Relation.ASSIGN, "r", pre or TrueCond(), target_group=g)


class TestSolveNoNegation:
    def test_simple_chain(self):
        inst = make([addu("x"), addu("y", DirectVal("a", "x"))])
        q = ReachabilityQuery({"a": frozenset({"x", "y"})})
        res = solve_no_negation(inst, q)
        assert res.reachable
        assert isinstance(validate_plan(inst, res.plan, q), Valid)

    def test_strict_rejects_present_surplus(self):
        inst = make([addu("x")], state=DirectState(user_attrs={"a": {"z"}}))
        res = solve_no_negation(inst, ReachabilityQuery({"a": frozenset({"x"})}))
        assert res.reason == EXTRA_VALUES

    def test_strict_guard_skips_surplus_additions(self):
        # the y-rule is a trap: firing it would overshoot the strict target
        inst = make([addu("y"), addu("x", DirectVal("a", "y"))])
        res = solve_no_negation(inst, ReachabilityQuery({"a": frozenset({"x"})}))
        assert res.reason == FIXPOINT_EXHAUSTED
        assert isinstance(bfs_solve(inst, ReachabilityQuery({"a": frozenset({"x"})})),
                          Unreachable)

    def test_relaxed_uses_the_trap_rule(self):
        inst = make([addu("y"), addu("x", DirectVal("a", "y"))])
        q = ReachabilityQuery({"a": frozenset({"x"})}, QueryType.RELAXED)
        res = solve_no_negation(inst, q)
        assert res.reachable
        assert isinstance(validate_plan(inst, res.plan, q), Valid)

    def test_group_route(self):
        inst = make(
            [addug("x"), assign("G1")],
            groups=("G1",),
        )
        q = ReachabilityQuery({"a": frozenset({"x"})}, QueryType.RELAXED)
        res = solve_no_negation(inst, q)
        assert res.reachable
        assert isinstance(validate_plan(inst, res.plan, q), Valid)

    def test_strict_group_guard(self):
        # G1 carries a surplus value, assigning it would be irreversible
        inst = make(
            [assign("G1"), addu("x")],
            groups=("G1",),
            state=DirectState(group_attrs={"G1": {"a": {"z"}}}),
        )
        res = solve_no_negation(inst, ReachabilityQuery({"a": frozenset({"x"})}))
        assert res.reachable
        assert all(req.kind == Relation.ADD_U for req in res.plan)

    def test_negation_rejected(self):
        inst = make([addu("x", Not(DirectVal("a", "y")))])
        with pytest.raises(RestrictionViolation):
            solve_no_negation(inst, ReachabilityQuery({}))

    def test_empty_plan_when_satisfied(self):
        inst = make([], state=DirectState(user_attrs={"a": {"x"}}))
        res = solve_no_negation(inst, ReachabilityQuery({"a": frozenset({"x"})}))
        assert res.reachable and len(res.plan) == 0


class TestSrdRestrictions:
    def test_delete_rule_rejected(self):
        inst = make([Rule(Relation.DELETE_U, "r", TrueCond(),
                          target_attr="a", target_val="x")])
        with pytest.raises(RestrictionViolation):
            solve_srd_no_delete(inst, ReachabilityQuery({}))

    def test_duplicate_pair_rule_rejected(self):
        inst = make([addu("x"), addu("x", DirectVal("a", "y"))])
        with pytest.raises(RestrictionViolation):
            solve_srd_no_delete(inst, ReachabilityQuery({}))

    def test_effective_literal_rejected(self):
        inst = make([addu("x", EffVal("a", "y"))])
        with pytest.raises(RestrictionViolation):
            solve_srd_no_delete(inst, ReachabilityQuery({}))


class TestAttrPhase:
    def test_backward_chaining_orders_prerequisites(self):
        inst = make([addu("x"), addu("y", DirectVal("a", "x")),
                     addu("z", DirectVal("a", "y"))])
        q = ReachabilityQuery({"a": frozenset({"x", "y", "z"})})
        res = attr_phase(inst, inst.initial_state, q)
        assert res.reachable
        assert [r.val for r in res.plan] == ["x", "y", "z"]

    def test_missing_rule(self):
        inst = make([addu("x")])
        res = attr_phase(inst, inst.initial_state,
                         ReachabilityQuery({"a": frozenset({"x", "y"})}))
        assert res.reason == MISSING_RULE

    def test_negative_conjunct_already_held(self):
        inst = make([addu("x", Not(DirectVal("a", "z")))],
                    state=DirectState(user_attrs={"a": {"z"}}))
        q = ReachabilityQuery({"a": frozenset({"x", "z"})})
        res = attr_phase(inst, inst.initial_state, q)
        assert res.reason == NEGATIVE_CONJUNCT
        assert isinstance(bfs_solve(inst, q), Unreachable)

    def test_add_before_blocker_ordering(self):
        # y must be added while z is still absent, so y precedes z
        inst = make([addu("y", Not(DirectVal("a", "z"))), addu("z")])
        q = ReachabilityQuery({"a": frozenset({"y", "z"})})
        res = attr_phase(inst, inst.initial_state, q)
        assert res.reachable
        assert [r.val for r in res.plan] == ["y", "z"]
        assert isinstance(validate_plan(inst, res.plan, q), Valid)

    def test_self_negating_rule_is_not_a_cycle(self):
        # regression: a rule guarding against its own target must not
        # produce a self-edge in the precedence graph
        inst = make([addu("x", Not(DirectVal("a", "x")))])
        q = ReachabilityQuery({"a": frozenset({"x"})})
        res = attr_phase(inst, inst.initial_state, q)
        assert res.reachable
        assert isinstance(validate_plan(inst, res.plan, q), Valid)

    def test_mutual_negation_is_a_cycle(self):
        inst = make([addu("y", Not(DirectVal("a", "z"))),
                     addu("z", Not(DirectVal("a", "y")))])
        q = ReachabilityQuery({"a": frozenset({"y", "z"})})
        res = attr_phase(inst, inst.initial_state, q)
        assert res.reason == CYCLE_IN_VALSET
        assert isinstance(bfs_solve(inst, q), Unreachable)

    def test_group_scope_closure(self):
        inst = make(
            [addug("x"), addug("y", DirectVal("a", "x")), assign("G1")],
            groups=("G1",),
            state=DirectState(user_groups={"G1"}),
        )
        q = ReachabilityQuery({"a": frozenset({"x", "y"})}, QueryType.RELAXED)
        res = attr_phase(inst, inst.initial_state, q)
        assert res.reachable
        assert [(r.group, r.val) for r in res.plan] == [("G1", "x"), ("G1", "y")]

    def test_group_whose_closure_is_cyclic_is_passed_over(self):
        # in G1, x needs y and y needs x; G2 already holds y, so x closes there
        inst = make(
            [addug("x", DirectVal("a", "y")), addug("y", DirectVal("a", "x"))],
            groups=("G1", "G2"),
            state=DirectState(group_attrs={"G2": {"a": {"y"}}}, user_groups={"G1", "G2"}),
        )
        q = ReachabilityQuery({"a": frozenset({"x"})}, QueryType.RELAXED)
        res = attr_phase(inst, inst.initial_state, q)
        assert [(r.group, r.val) for r in res.plan] == [("G2", "x")]
        assert isinstance(validate_plan(inst, res.plan, q), Valid)

    def test_cyclic_closure_kept_when_no_group_closes_without_one(self):
        inst = make(
            [addug("x", DirectVal("a", "y")), addug("y", DirectVal("a", "x"))],
            groups=("G1", "G2"),
            state=DirectState(user_groups={"G1", "G2"}),
        )
        q = ReachabilityQuery({"a": frozenset({"x"})}, QueryType.RELAXED)
        res = attr_phase(inst, inst.initial_state, q)
        assert res.reason == CYCLE_IN_VALSET
        assert isinstance(bfs_solve(inst, q), Unreachable)

    @pytest.mark.parametrize("seed", [2545, 6970, 7752, 10121])
    def test_fuzz_seeds_once_called_unreachable_agree(self, seed):
        # the planner used to keep the first group whose closure was cyclic
        # and answered cycle-in-valset on these reachable instances
        assert fuzz.check_case("srd", seed).status == "agree"


class TestGroupPhase:
    def test_dependency_order(self):
        inst = make(
            [assign("G1", DirectGroup("G2")), assign("G2")],
            groups=("G1", "G2"),
        )
        res = group_phase(inst, ReachabilityQuery({}, QueryType.RELAXED))
        assert [r.group for r in res.plan] == ["G2", "G1"]

    def test_negation_orders_before_blocker(self):
        inst = make(
            [assign("G1", Not(DirectGroup("G2"))), assign("G2")],
            groups=("G1", "G2"),
        )
        res = group_phase(inst, ReachabilityQuery({}, QueryType.RELAXED))
        assert [r.group for r in res.plan] == ["G1", "G2"]

    def test_cycle_discard_sets_note(self):
        inst = make(
            [assign("G1", Not(DirectGroup("G2"))),
             assign("G2", Not(DirectGroup("G1")))],
            groups=("G1", "G2"),
        )
        res = group_phase(inst, ReachabilityQuery({}, QueryType.RELAXED))
        assert NOTE_GROUP_CYCLE in res.notes
        assert len(res.plan) == 0

    def test_only_groups_on_cycles_are_discarded(self):
        # negation cycles A<->B and C<->D; X lies between them (A -> X -> C)
        # but on no cycle, so it survives the discard and is assigned
        inst = make(
            [assign("A", conjunction([Not(DirectGroup("B")), Not(DirectGroup("X"))])),
             assign("B", Not(DirectGroup("A"))),
             assign("C", Not(DirectGroup("D"))),
             assign("D", Not(DirectGroup("C"))),
             assign("X", Not(DirectGroup("C")))],
            groups=("A", "B", "C", "D", "X"),
        )
        res = group_phase(inst, ReachabilityQuery({}, QueryType.RELAXED))
        assert res.notes == (NOTE_GROUP_CYCLE,)
        assert [r.render() for r in res.plan] == ["assign(r, X)"]

    def test_prune_after_discard_drops_stranded_groups(self):
        # D and E need each other, so both are discarded; that strands A,
        # which needs D.  Left in, A (ordered before its negated blocker B,
        # after Z) would hold B back, fail at replay, and give C, Z, B.
        inst = make(
            [assign("A", conjunction([DirectGroup("D"), DirectGroup("Z"),
                                      Not(DirectGroup("B"))])),
             assign("B"), assign("C"), assign("Z"),
             assign("D", DirectGroup("E")), assign("E", DirectGroup("D"))],
            groups=("A", "B", "C", "D", "E", "Z"),
        )
        res = group_phase(inst, ReachabilityQuery({"a": frozenset()}, QueryType.RELAXED))
        assert res.notes == (NOTE_GROUP_CYCLE,)
        assert [r.group for r in res.plan] == ["B", "C", "Z"]

    def test_strict_admissibility_excludes_polluting_group(self):
        inst = make(
            [assign("G1"), assign("G2"), addu("x")],
            groups=("G1", "G2"),
            state=DirectState(group_attrs={"G2": {"a": {"z"}}}),
        )
        res = group_phase(inst, ReachabilityQuery({"a": frozenset({"x"})}))
        assert [r.group for r in res.plan] == ["G1"]


class TestTwoPhase:
    def test_group_then_attr(self, golden):
        doc = golden("srd_groups.gurag")
        res = solve_srd_no_delete(doc.instance, doc.queries[0])
        assert res.reachable
        assert isinstance(validate_plan(doc.instance, res.plan, doc.queries[0]), Valid)

    def test_known_cycle_divergence(self, golden):
        doc = golden("srd_cycle.gurag")
        res = solve_srd_no_delete(doc.instance, doc.queries[0])
        assert not res.reachable
        assert NOTE_GROUP_CYCLE in res.notes
        oracle = bfs_solve(doc.instance, doc.queries[0])
        assert isinstance(oracle, Reachable)  # the documented incompleteness


def _tarjan_discard(vertices, edges):
    """The iterative Tarjan that the group phase once used, kept as the
    reference for the cycle finder: vertices of non-trivial SCCs."""
    index, low, on_stack, stack, counter, discard = {}, {}, set(), [], [0], set()
    succ = {v: [] for v in vertices}
    for a, b in edges:
        succ[a].append(b)

    def strongconnect(v):
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(pi, len(succ[node])):
                w = succ[node][i]
                if w not in index:
                    work[-1] = (node, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    discard.update(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for v in sorted(vertices):
        if v not in index:
            strongconnect(v)
    return discard


@st.composite
def loop_free_digraphs(draw):
    n = draw(st.integers(0, 8))
    vertices = {f"G{i}" for i in range(n)}
    pairs = [(a, b) for a in sorted(vertices) for b in sorted(vertices) if a != b]
    if not pairs:
        return vertices, set()
    # one to two edges per vertex: dense enough for several cycles, sparse
    # enough to leave vertices between them that are on none
    size = draw(st.integers(n, 2 * n))
    return vertices, set(draw(st.lists(st.sampled_from(pairs), min_size=size, max_size=size)))


@settings(max_examples=1000)
@given(loop_free_digraphs())
def test_cycle_finder_matches_tarjan(graph):
    vertices, edges = graph
    assert _scc_discard(set(vertices), set(edges)) == _tarjan_discard(vertices, edges)
