import pytest

from gurag_reach import kernel
from gurag_reach.encoding import compile_instance
from gurag_reach.fuzz import generate
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance
from gurag_reach.policy import DirectVal, Relation, Rule, RuleSet, TrueCond
from gurag_reach.search import (
    BoundExceeded,
    Reachable,
    SearchBounds,
    Unreachable,
    analyze,
    bfs_solve,
    enumerate_reachable,
)
from gurag_reach.transition import Plan, ReachabilityQuery, Valid, validate_plan

needs_compiled = pytest.mark.skipif(
    not kernel.HAVE_COMPILED, reason="compiled kernel not built")


def chain_instance(n):
    vals = [f"v{i:02d}" for i in range(n)]
    rules = [Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val=vals[0])]
    for prev, cur in zip(vals, vals[1:]):
        rules.append(Rule(Relation.ADD_U, "r", DirectVal("a", prev),
                          target_attr="a", target_val=cur))
    inst = ProblemInstance(
        scopes={"a": frozenset(vals)},
        hierarchy=GroupHierarchy(frozenset()),
        roles=frozenset({"r"}),
        rules=RuleSet.build(rules),
        initial_state=DirectState(),
    )
    return inst, ReachabilityQuery({"a": frozenset(vals)})


class TestEncoding:
    def test_state_roundtrip(self):
        inst, _ = generate("any", 7)
        ci = compile_instance(inst)
        bits = ci.encode_state(inst.initial_state)
        assert ci.decode_state(bits) == inst.initial_state

    def test_zero_state(self):
        inst, _ = generate("any", 7)
        ci = compile_instance(inst)
        assert ci.decode_state(0) == DirectState()

    def test_candidates_sorted_deterministically(self):
        inst, _ = generate("any", 11)
        ci = compile_instance(inst)
        keys = [(c.request.sort_key, c.rule_id) for c in ci.candidates]
        assert keys == sorted(keys)


class TestBfsSolve:
    def test_empty_plan_when_already_satisfied(self):
        inst, _ = chain_instance(3)
        out = bfs_solve(inst, ReachabilityQuery({"a": frozenset()}))
        assert out == Reachable(Plan(), 1)

    def test_shortest_plan_on_chain(self):
        inst, q = chain_instance(5)
        out = bfs_solve(inst, q)
        assert isinstance(out, Reachable)
        assert len(out.plan) == 5
        assert isinstance(validate_plan(inst, out.plan, q), Valid)

    def test_unreachable_is_definitive(self):
        inst, _ = chain_instance(3)
        # strict empty target can never hold again after any addition, and
        # the start state already violates it only if nonempty; here the
        # start satisfies it, so ask for an impossible singleton instead
        out = bfs_solve(inst, ReachabilityQuery({"a": frozenset({"v01"})}))
        assert isinstance(out, Unreachable)

    def test_depth_bound(self):
        inst, q = chain_instance(6)
        out = bfs_solve(inst, q, SearchBounds(max_depth=3))
        assert out == BoundExceeded("depth", out.states_explored)

    def test_states_bound(self):
        inst, q = chain_instance(6)
        out = bfs_solve(inst, q, SearchBounds(max_states=3))
        assert isinstance(out, BoundExceeded) and out.bound == "states"

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchBounds(max_depth=0)

    @pytest.mark.parametrize("bounds", [{"max_depth": 2**31}, {"max_states": 2**32}])
    def test_bounds_must_fit_the_compiled_kernel(self, bounds):
        with pytest.raises(ValueError):
            SearchBounds(**bounds)
        SearchBounds(max_depth=2**31 - 1, max_states=2**32 - 1)

    def test_unknown_engine_rejected(self):
        inst, q = chain_instance(3)
        with pytest.raises(ValueError):
            bfs_solve(inst, q, engine="turbo")


class TestAnalyze:
    @pytest.mark.parametrize("name,engine,kernel_name", [
        ("chain.gurag", "nonneg", None),
        ("srd_groups.gurag", "srd", None),
        ("roomadmin.gurag", "bfs", "python"),
        ("srd_cycle.gurag", "srd+bfs", "python"),
    ])
    def test_auto_engine_and_kernel(self, golden, name, engine, kernel_name):
        doc = golden(name)
        res = analyze(doc.instance, doc.queries[0], kernel="python")
        assert (res.engine, res.outcome, res.kernel) == (engine, "reachable", kernel_name)
        assert isinstance(validate_plan(doc.instance, res.plan, doc.queries[0]), Valid)


class TestEnumerate:
    def test_depths_are_minimal(self):
        inst, _ = chain_instance(4)
        reach = enumerate_reachable(inst)
        assert len(reach) == 5  # prefixes of the chain
        assert sorted(reach.values()) == [0, 1, 2, 3, 4]

    def test_raises_when_states_bound_hit(self):
        inst, _ = chain_instance(6)
        with pytest.raises(RuntimeError, match="states"):
            enumerate_reachable(inst, SearchBounds(max_states=3))


@needs_compiled
class TestKernelEquivalence:
    """The compiled kernel must be indistinguishable from the reference."""

    @pytest.mark.parametrize("cls", ["nonneg", "srd", "any"])
    def test_solve_outcomes_identical(self, cls):
        for seed in range(120):
            inst, q = generate(cls, seed)
            a = bfs_solve(inst, q, engine="python")
            b = bfs_solve(inst, q, engine="compiled")
            assert a == b, (cls, seed)

    @pytest.mark.parametrize("cls", ["nonneg", "srd", "any"])
    def test_enumerations_identical(self, cls):
        for seed in range(60):
            inst, _ = generate(cls, seed)
            assert enumerate_reachable(inst, engine="python") == \
                enumerate_reachable(inst, engine="compiled"), (cls, seed)

    def test_bound_outcomes_identical(self):
        inst, q = chain_instance(8)
        for bounds in (SearchBounds(max_depth=3), SearchBounds(max_states=4)):
            assert bfs_solve(inst, q, bounds, engine="python") == \
                bfs_solve(inst, q, bounds, engine="compiled")

    def test_visited_table_growth(self):
        # enough states to force several hash-table doublings
        vals = [f"v{i:02d}" for i in range(13)]
        rules = RuleSet.build([
            Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val=v)
            for v in vals
        ])
        inst = ProblemInstance(
            scopes={"a": frozenset(vals)}, hierarchy=GroupHierarchy(frozenset()),
            roles=frozenset({"r"}), rules=rules, initial_state=DirectState())
        bounds = SearchBounds(max_states=1 << 16)
        assert enumerate_reachable(inst, bounds, engine="python") == \
            enumerate_reachable(inst, bounds, engine="compiled")

    def test_wide_instance_falls_back(self):
        import gurag_reach._kernel as ck
        vals = [f"v{i:03d}" for i in range(ck.MAX_BITS + 1)]
        inst = ProblemInstance(
            scopes={"a": frozenset(vals)}, hierarchy=GroupHierarchy(frozenset()),
            roles=frozenset({"r"}), rules=RuleSet(), initial_state=DirectState())
        ci = compile_instance(inst)
        assert not kernel.compiled_supports(ci)
        assert kernel.select(ci, "auto").KERNEL_NAME == "python"
        with pytest.raises(RuntimeError):
            kernel.select(ci, "compiled")
