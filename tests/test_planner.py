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
from gurag_reach.search import Reachable, Unreachable, analyze, bfs_solve
from gurag_reach.transition import (
    Plan,
    QueryType,
    QueryUnsatisfied,
    ReachabilityQuery,
    Request,
    Valid,
    WorkingState,
    validate_plan,
)

from test_planner_answers import srd_groups_case
from test_search import bench_kernel


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

    def test_delete_rule_rejected(self):
        # the oracle's plan adds y, then deletes x; a fixpoint that never
        # removes anything would answer unreachable
        inst = make([Rule(Relation.DELETE_U, "r", TrueCond(), target_attr="a", target_val="x"),
                     addu("y")], state=DirectState(user_attrs={"a": {"x"}}))
        q = ReachabilityQuery({"a": frozenset({"y"})})
        plan = bfs_solve(inst, q).plan
        assert [r.render() for r in plan] == ["addU(r, a, y)", "deleteU(r, a, x)"]
        with pytest.raises(RestrictionViolation, match="delete/remove rules"):
            solve_no_negation(inst, q)
        with pytest.raises(RestrictionViolation, match="delete/remove rules"):
            analyze(inst, q, "nonneg")

    def test_empty_plan_when_satisfied(self):
        inst = make([], state=DirectState(user_attrs={"a": {"x"}}))
        res = solve_no_negation(inst, ReachabilityQuery({"a": frozenset({"x"})}))
        assert res.reachable and len(res.plan) == 0

    @pytest.mark.parametrize("query_type", list(QueryType))
    def test_assign_brings_last_value_from_two_levels_down(self, query_type):
        # S > M > J, and only J holds y: assigning S makes y effective, so the
        # plan ends there rather than exhausting the fixpoint
        inst = make([addu("x"), assign("S", DirectVal("a", "x"))],
                    groups=("S", "M", "J"), seniority=(("S", "M"), ("M", "J")),
                    state=DirectState(group_attrs={"J": {"a": {"y"}}}))
        q = ReachabilityQuery({"a": frozenset({"x", "y"})}, query_type)
        res = solve_no_negation(inst, q)
        assert [r.render() for r in res.plan] == ["addU(r, a, x)", "assign(r, S)"]
        assert isinstance(validate_plan(inst, res.plan, q), Valid)


def test_replay_and_nonneg_copy_no_state_per_request(monkeypatch):
    # both work on one state in place: the replay builds its final state
    # once, and the planner, which reports only a plan, builds none
    inst, q = bench_kernel.chain(1024)
    plan = solve_no_negation(inst, q).plan
    assert len(plan) == 1024
    built = []
    init = DirectState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DirectState, "__init__", counting_init)
    assert isinstance(validate_plan(inst, plan, q), Valid)
    assert len(built) == 1
    built.clear()
    assert solve_no_negation(inst, q).plan == plan
    assert len(built) == 0


def test_step_paths_hash_no_relation(monkeypatch):
    # the planner, replay and rendering look rules and names up by plain
    # fields; hashing an enum member runs ``Enum.__hash__`` in Python
    group_inst = make([addu("x"), assign("G1", DirectVal("a", "x")),
                       addug("y", DirectVal("a", "z")), addug("z")],
                      groups=("G1", "G2"), seniority=(("G1", "G2"),))
    group_q = ReachabilityQuery({"a": frozenset({"x", "y", "z"})}, QueryType.RELAXED)
    chain_inst, chain_q = bench_kernel.chain(300)
    calls = []
    enum_hash = Relation.__hash__

    def counting_hash(self):
        calls.append(self)
        return enum_hash(self)

    monkeypatch.setattr(Relation, "__hash__", counting_hash)
    assert {Relation.ADD_U: 1}[Relation.ADD_U] == 1 and len(calls) == 2
    calls.clear()
    every_kind = [Request(Relation.DELETE_U, "r", "a", "x"),
                  Request(Relation.DELETE_UG, "r", "a", "x", "G1"),
                  Request(Relation.REMOVE, "r", group="G1")]
    for inst, q in ((chain_inst, chain_q), (group_inst, group_q)):
        # fresh rule sets, so their flags and index are built under the count
        inst = ProblemInstance(inst.scopes, inst.hierarchy, inst.roles,
                               RuleSet(inst.rules.rules), inst.initial_state)
        plan = solve_no_negation(inst, q).plan
        assert isinstance(validate_plan(inst, plan, q), Valid)
        assert isinstance(validate_plan(inst, Plan(plan.requests + (plan.requests[0],)), q),
                          Valid)
        assert validate_plan(inst, Plan(tuple(every_kind)), q).reason == "no matching rule"
        rendered = [req.render() for req in (*plan, *every_kind)]
    assert calls == []
    assert {req.kind for req in plan} == {Relation.ADD_U, Relation.ASSIGN, Relation.ADD_UG}
    assert rendered[-3:] == ["deleteU(r, a, x)", "deleteUG(r, G1, a, x)", "remove(r, G1)"]


def test_empty_plan_and_unfired_planner_copy_no_state(monkeypatch):
    # an empty plan is checked on the initial state itself, and the planner
    # copies the state only when it fires its first request
    inst = make([addu("x", DirectVal("a", "y"))], state=DirectState({"a": {"z"}}))
    copies = []
    init = WorkingState.__init__

    def counting_init(self, state):
        copies.append(state)
        init(self, state)

    monkeypatch.setattr(WorkingState, "__init__", counting_init)
    wanted = ReachabilityQuery({"a": frozenset({"x"})}, QueryType.RELAXED)
    held = ReachabilityQuery({"a": frozenset({"z"})})
    assert validate_plan(inst, Plan(), wanted) == QueryUnsatisfied(inst.initial_state)
    assert validate_plan(inst, Plan(), held) == Valid(inst.initial_state)
    assert solve_no_negation(inst, held).plan == Plan()
    # nothing can fire: x needs y, which no rule adds
    assert solve_no_negation(inst, wanted).reason == FIXPOINT_EXHAUSTED
    assert copies == []
    assert solve_no_negation(make([addu("x")]), wanted).plan == Plan(
        (Request(Relation.ADD_U, "r", "a", "x"),))
    assert len(copies) == 1


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

    def test_auto_matches_oracle_across_assign_rules_reading_values(self):
        # an assign rule that reads a value puts the instance outside the
        # class: the group phase runs before any value is added, and on these
        # five seeds every oracle plan adds the value before the assignment
        wrong_once = (254, 2190, 2731, 2746, 2958)
        for seed in sorted({*range(300), *wrong_once}):
            instance, q = srd_groups_case(seed)
            for query in (q, q.relaxed_copy()):
                oracle = analyze(instance, query, "bfs")
                assert oracle.outcome != "bound-exceeded", seed
                assert analyze(instance, query).outcome == oracle.outcome, seed
            if seed in wrong_once:
                with pytest.raises(RestrictionViolation):
                    solve_srd_no_delete(instance, q)


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

    def test_self_requiring_rule_is_a_cycle(self):
        # x is addable only once x is held: a self-loop in the precedence graph
        inst = make([addu("x", DirectVal("a", "x"))])
        q = ReachabilityQuery({"a": frozenset({"x"})})
        res = attr_phase(inst, inst.initial_state, q)
        assert res.reason == CYCLE_IN_VALSET
        assert isinstance(bfs_solve(inst, q), Unreachable)

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

    def test_self_dependent_group_strands_its_dependents(self):
        # G1 needs itself, so it is never assigned, and neither is G2, which
        # needs G1; G3 needs G2 absent and is assigned alone
        inst = make(
            [assign("G1", DirectGroup("G1")), assign("G2", DirectGroup("G1")),
             assign("G3", Not(DirectGroup("G2")))],
            groups=("G1", "G2", "G3"),
        )
        res = group_phase(inst, ReachabilityQuery({}, QueryType.RELAXED))
        assert [r.render() for r in res.plan] == ["assign(r, G3)"]
        assert res.notes == ()

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
