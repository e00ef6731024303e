import random

import pytest

from gurag_reach import _kernel_py, kernel
from gurag_reach.encoding import compile_instance
from gurag_reach.fuzz import CLASSES, generate
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance
from gurag_reach.policy import (
    And,
    DirectGroup,
    DirectVal,
    EffGroup,
    EffVal,
    Not,
    Relation,
    Rule,
    RuleSet,
    TrueCond,
    eval_precondition,
)
from gurag_reach.search import (
    BoundExceeded,
    Reachable,
    SearchBounds,
    Unreachable,
    analyze,
    bfs_solve,
    enumerate_reachable,
)
from gurag_reach.transition import Plan, QueryType, ReachabilityQuery, Valid, validate_plan

from conftest import GOLDEN, load_golden


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


def wide_random_instance(seed):
    """A random instance of up to 256 bits: one attribute of many values, up to
    three groups, random preconditions with negated conjunctions."""
    rng = random.Random(seed)
    groups = [f"G{i}" for i in range(rng.randint(0, 3))]
    width = (256 - len(groups)) // (1 + len(groups))
    vals = [f"v{i:03d}" for i in range(rng.randint(width // 2, width))]

    def pre(membership, depth=0):
        r = rng.random()
        if r < 0.15:
            return TrueCond()
        if depth > 2 or r < 0.45:
            if membership and groups and rng.random() < 0.3:
                return rng.choice((DirectGroup, EffGroup))(rng.choice(groups))
            return rng.choice((DirectVal, EffVal))("a", rng.choice(vals))
        if r < 0.65:
            return Not(pre(membership, depth + 1))
        return And(pre(membership, depth + 1), pre(membership, depth + 1))

    relations = [Relation.ADD_U, Relation.DELETE_U]
    if groups:
        relations += [Relation.ADD_UG, Relation.DELETE_UG, Relation.ASSIGN, Relation.REMOVE]
    rules = []
    for _ in range(rng.randint(10, 40)):
        rel = rng.choice(relations)
        if rel.is_membership:
            rules.append(Rule(rel, "r", pre(True), target_group=rng.choice(groups)))
        else:
            rules.append(Rule(rel, "r", pre(False), target_attr="a", target_val=rng.choice(vals)))
    some = lambda: frozenset(v for v in vals if rng.random() < 0.2)  # noqa: E731
    inst = ProblemInstance(
        scopes={"a": frozenset(vals)},
        hierarchy=GroupHierarchy(frozenset(groups), frozenset(
            (g, h) for i, g in enumerate(groups) for h in groups[i + 1:] if rng.random() < 0.5)),
        roles=frozenset({"r"}), rules=RuleSet.build(rules),
        initial_state=DirectState({"a": some()}, {g: {"a": some()} for g in groups},
                                  frozenset(g for g in groups if rng.random() < 0.5)))
    added = sorted({r.target_val for r in rules if r.relation is Relation.ADD_U}) or vals
    return inst, ReachabilityQuery({"a": frozenset(rng.sample(added, min(2, len(added))))},
                                   QueryType.RELAXED)


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


def guard_holds(ci, cand, bits):
    view = _kernel_py._view(ci, bits, cand.subject, ci.seg_mask())
    return any(view & care == want for care, want in cand.guard)


def assert_guards_agree(instance, states):
    """Each candidate's clauses read, on every state, what its precondition says."""
    ci = compile_instance(instance)
    pre = {r.rule_id: r.pre for r in instance.rules}
    for bits in states:
        state = ci.decode_state(bits)
        for cand in ci.candidates:
            subject = None if cand.subject < 0 else ci.groups[cand.subject]
            assert guard_holds(ci, cand, bits) == eval_precondition(
                pre[cand.rule_id], state, instance.hierarchy, subject), (cand.request, state)


def reachable_states(instance):
    """The states ``enumerate_reachable`` keys, as the kernel's bit words."""
    ci = compile_instance(instance)
    b = SearchBounds()
    _, pairs, _ = _kernel_py.bfs(ci, ci.encode_state(instance.initial_state), None, False,
                                 b.max_depth, b.max_states, b.max_millis)
    return [bits for bits, _ in pairs]


class TestGuards:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_fuzz_guards_match_preconditions(self, cls):
        for seed in range(60):
            inst, _ = generate(cls, seed)
            assert_guards_agree(inst, reachable_states(inst))

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.gurag")), ids=lambda p: p.stem)
    def test_golden_guards_match_preconditions(self, path):
        inst = load_golden(path.name).instance
        assert_guards_agree(inst, reachable_states(inst))

    def test_negated_compounds_on_every_state(self):
        # shapes the fuzz generator never makes: negation over a conjunction,
        # double negation, negated true, and a self-contradiction
        x, y = DirectVal("a", "x"), EffVal("a", "y")
        pres = [Not(And(x, EffGroup("G2"))), Not(Not(y)), Not(TrueCond()), And(x, Not(x)),
                Not(And(Not(DirectGroup("G1")), Not(And(y, Not(x)))))]
        rules = [Rule(Relation.ASSIGN, "r", p, target_group="G1") for p in pres]
        rules += [Rule(Relation.ADD_UG, "r", Not(And(y, Not(x))), target_attr="a", target_val="x"),
                  Rule(Relation.ADD_U, "r", Not(Not(x)), target_attr="a", target_val="y")]
        inst = ProblemInstance(
            scopes={"a": frozenset({"x", "y"})},
            hierarchy=GroupHierarchy(frozenset({"G1", "G2"}), frozenset({("G1", "G2")})),
            roles=frozenset({"r"}), rules=RuleSet.build(rules), initial_state=DirectState())
        ci = compile_instance(inst)
        assert_guards_agree(inst, range(1 << ci.nbits))
        guards = {c.rule_id: c.guard for c in ci.candidates}
        assert guards[2] == guards[3] == ()  # never holds
        assert guards[1] == ((1 << 3, 1 << 3),)  # y is slot 1, so effective y is view bit 2 + 1


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


@pytest.mark.usefixtures("compiled_kernel")
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

    def test_multiword_states_identical(self):
        # states and guard views spanning several 64-bit words
        for seed in range(40):
            inst, q = wide_random_instance(seed)
            for bounds in (SearchBounds(max_depth=6, max_states=3000),
                           SearchBounds(max_depth=2, max_states=3000)):
                assert bfs_solve(inst, q, bounds, engine="python") == \
                    bfs_solve(inst, q, bounds, engine="compiled"), seed
            bounds = SearchBounds(max_depth=2, max_states=3000)
            assert enumerate_reachable(inst, bounds, engine="python") == \
                enumerate_reachable(inst, bounds, engine="compiled"), seed

    def test_wide_instance_falls_back(self, compiled_kernel):
        vals = [f"v{i:03d}" for i in range(compiled_kernel.MAX_BITS + 1)]
        inst = ProblemInstance(
            scopes={"a": frozenset(vals)}, hierarchy=GroupHierarchy(frozenset()),
            roles=frozenset({"r"}), rules=RuleSet(), initial_state=DirectState())
        ci = compile_instance(inst)
        assert not kernel.compiled_supports(ci)
        assert kernel.select(ci, "auto").KERNEL_NAME == "python"
        with pytest.raises(RuntimeError):
            kernel.select(ci, "compiled")
