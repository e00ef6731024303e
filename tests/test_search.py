import importlib.util
import itertools
import pathlib
import random
import sys
import time
import tracemalloc
from collections import deque

import pytest

from gurag_reach import _kernel_py, kernel
from gurag_reach.dsl import parse, serialize
from gurag_reach.encoding import ALWAYS, QueryEntry, compile_instance
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
    conjunction,
)
from gurag_reach.search import (
    BoundExceeded,
    Reachable,
    SearchBounds,
    Unreachable,
    analyze,
    bfs_solve,
)
from gurag_reach.transition import (
    Plan,
    QueryType,
    ReachabilityQuery,
    Valid,
    validate_plan,
)

from conftest import GOLDEN, load_golden
from test_transition import reference_apply, reference_authorized

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def wide_random_instance(seed, bits=256):
    """A random instance of up to ``bits`` bits: one attribute of many values,
    up to three groups, random preconditions with negated conjunctions."""
    rng = random.Random(seed)
    groups = [f"G{i}" for i in range(rng.randint(0, 3))]
    width = (bits - len(groups)) // (1 + len(groups))
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
        return And((pre(membership, depth + 1), pre(membership, depth + 1)))

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
    def test_candidates_sorted_deterministically(self):
        inst, _ = generate("any", 11)
        ci = compile_instance(inst)
        # by request (relation, att, val, group, role), then by rule id
        keys = [(c.request.kind.order, c.request.att or "", c.request.val or "",
                 c.request.group or "", c.request.role, c.rule_id) for c in ci.candidates]
        assert keys == sorted(keys)


def guard_holds(ci, cand, bits):
    view = _ref_view(ci, bits, cand.subject, ci.seg_mask())
    return any(view & care == want for care, want in cand.guard)


def assert_guards_agree(instance, states):
    """Each candidate's clauses read, on every state, what its precondition says."""
    ci = compile_instance(instance)
    pre = {r.rule_id: r.pre for r in instance.rules}
    for state in states:
        bits = ci.encode_state(state)
        for cand in ci.candidates:
            subject = None if cand.subject < 0 else ci.groups[cand.subject]
            assert guard_holds(ci, cand, bits) == pre[cand.rule_id].holds(
                state, instance.hierarchy, subject), (cand.request, state)


def reachable_states(instance):
    """Every state reachable from the initial one, found breadth first through
    the transition semantics on the candidates' requests."""
    requests = [c.request for c in compile_instance(instance).candidates]
    seen = {instance.initial_state}
    frontier = [instance.initial_state]
    while frontier:
        nxt = []
        for state in frontier:
            for req in requests:
                if reference_authorized(state, instance.hierarchy, instance.rules, req):
                    succ = reference_apply(state, req)
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
        frontier = nxt
    return seen


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
        pres = [Not(And((x, EffGroup("G2")))), Not(Not(y)), Not(TrueCond()), And((x, Not(x))),
                Not(And((Not(DirectGroup("G1")), Not(And((y, Not(x)))))))]
        rules = [Rule(Relation.ASSIGN, "r", p, target_group="G1") for p in pres]
        rules += [Rule(Relation.ADD_UG, "r", Not(And((y, Not(x)))), target_attr="a",
                       target_val="x"),
                  Rule(Relation.ADD_U, "r", Not(Not(x)), target_attr="a", target_val="y")]
        inst = ProblemInstance(
            scopes={"a": frozenset({"x", "y"})},
            hierarchy=GroupHierarchy(frozenset({"G1", "G2"}), frozenset({("G1", "G2")})),
            roles=frozenset({"r"}), rules=RuleSet.build(rules), initial_state=DirectState())
        ci = compile_instance(inst)
        values = [set(), {"x"}, {"y"}, {"x", "y"}]
        memberships = [set(), {"G1"}, {"G2"}, {"G1", "G2"}]
        states = [DirectState({"a": user}, {"G1": {"a": g1}, "G2": {"a": g2}}, groups)
                  for user, g1, g2, groups in itertools.product(values, values, values,
                                                                 memberships)]
        assert len({ci.encode_state(state) for state in states}) == 1 << ci.nbits
        assert_guards_agree(inst, states)
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

    @pytest.mark.parametrize("bounds", [{"max_depth": 2**31}, {"max_states": 2**32},
                                        {"max_millis": 2**63}])
    def test_bounds_must_fit_their_limits(self, bounds):
        with pytest.raises(ValueError):
            SearchBounds(**bounds)
        SearchBounds(max_depth=2**31 - 1, max_states=2**32 - 1, max_millis=2**63 - 1)

    def test_unknown_kernel_rejected(self):
        # "auto" is the one spelling of the default
        ci = compile_instance(chain_instance(3)[0])
        for name in ("turbo", None):
            with pytest.raises(ValueError, match="unknown kernel"):
                kernel.select(ci, name)

    def test_kernel_names_left_for_the_benchmark(self):
        # what perfbench/worker.py's cross-check and pipeline.search call
        ci = compile_instance(chain_instance(3)[0])
        assert kernel.select(ci) is kernel.select(ci, "python") is _kernel_py
        with pytest.raises(RuntimeError, match="compiled kernel is not available"):
            kernel.select(ci, "compiled")
        assert kernel.HAVE_COMPILED is False
        assert kernel.compiled_supports(ci) is False


class TestAnalyze:
    # the last column names the kernel where a bfs search ran, which alone
    # counts states
    @pytest.mark.parametrize("name,engine,kernel_name", [
        ("chain.gurag", "nonneg", None),
        ("srd_groups.gurag", "srd", None),
        ("roomadmin.gurag", "bfs", "python"),
        ("srd_cycle.gurag", "srd+bfs", "python"),
    ])
    def test_auto_engine_and_kernel(self, golden, name, engine, kernel_name):
        doc = golden(name)
        res = analyze(doc.instance, doc.queries[0])
        assert (res.engine, res.outcome) == (engine, "reachable")
        assert (res.states_explored is None) == (kernel_name is None)
        assert isinstance(validate_plan(doc.instance, res.plan, doc.queries[0]), Valid)

    def test_unknown_engine_rejected(self, golden):
        doc = golden("chain.gurag")
        with pytest.raises(ValueError, match="unknown engine 'typo'"):
            analyze(doc.instance, doc.queries[0], "typo")


def with_tautology(instance):
    """``instance`` with each rule's precondition ``pre`` written as
    ``pre and not(t and not(t))``, where ``t`` is the rule's own target
    literal, or ``G in directUg`` for an assign/remove rule on ``G``: the same
    rules, each under a guard that expands to more clauses."""
    rules = []
    for rule in instance.rules:
        t = (DirectGroup(rule.target_group) if rule.relation.is_membership
             else DirectVal(rule.target_attr, rule.target_val))
        pre = conjunction([rule.pre, Not(conjunction([t, Not(t)]))])
        rules.append(Rule(rule.relation, rule.role, pre, rule.target_attr, rule.target_val,
                          rule.target_group, rule.rule_id))
    return ProblemInstance(instance.scopes, instance.hierarchy, instance.roles,
                           RuleSet(rules), instance.initial_state)


class TestMultiClauseGuards:
    """``fuzz.generate`` writes no negated conjunction, so no fuzz guard has
    more than one clause per literal of its precondition; rewritten with a
    tautology, every fuzz rule carries a multi-clause guard end to end."""

    @pytest.mark.parametrize("cls", CLASSES)
    def test_tautology_changes_no_answer(self, cls):
        multi_clause = 0
        for seed in range(200):
            inst, q = generate(cls, seed)
            taut = with_tautology(inst)
            ci, ci_taut = compile_instance(inst), compile_instance(taut)
            multi_clause += sum(len(c.guard) > 1 for c in ci_taut.candidates)
            start, goal = ci.encode_state(inst.initial_state), ci.compile_query(q)
            for strict in (True, False):
                args = (start, goal, strict, 32, 1 << 20, 30_000)
                out = _kernel_py.bfs(ci, *args)
                assert _kernel_py.bfs(ci_taut, *args) == out, (cls, seed, strict)
            assert analyze(taut, q, "bfs") == analyze(inst, q, "bfs")
            assert analyze(taut, q).outcome == analyze(inst, q).outcome
            text = serialize(taut, [q])
            result = parse(text)
            assert result.ok, [d.render() for d in result.diagnostics]
            assert result.instance == taut and result.queries == [q]
            assert serialize(result.instance, result.queries) == text
        assert multi_clause > 200


# --- reference kernel --------------------------------------------------------
# The queue-based pure kernel that the level-by-level one replaced, kept as
# it was: parallel discovery arrays, a FIFO of indices and a goal test per
# query attribute.  ``_kernel_py.bfs`` must return exactly what it returns.

def reference_goal(ci, q):
    """The query as one ``QueryEntry`` per attribute."""
    entries = []
    for att, vset in q.entries.items():
        off, width = ci.att_spans[att]
        mask = ((1 << width) - 1) << off
        target = 0
        for val in vset:
            target |= 1 << ci.slot[att, val]
        entries.append(QueryEntry(mask, target))
    return tuple(entries)


def _ref_eff_group_bits(ci, state, j, smask):
    bits = 0
    for k in ci.closure_idx[j]:
        bits |= (state >> ci.seg_offsets[k]) & smask
    return bits


def _ref_eff_user_bits(ci, state, smask):
    bits = state & smask
    mem = state >> ci.mem_offset
    for j in range(ci.n_groups):
        if mem >> j & 1:
            bits |= _ref_eff_group_bits(ci, state, j, smask)
    return bits


def _ref_senior_mask(ci):
    """Per group j, the membership bits of the groups whose closure holds j."""
    return [sum(1 << k for k, closure in enumerate(ci.closure_idx) if j in closure)
            for j in range(ci.n_groups)]


def _ref_view(ci, state, subject, smask):
    mem = state >> ci.mem_offset
    if subject < 0:
        direct = state & smask
        eff = _ref_eff_user_bits(ci, state, smask)
    else:
        direct = (state >> ci.seg_offsets[subject]) & smask
        eff = _ref_eff_group_bits(ci, state, subject, smask)
    effmem = 0
    for j, seniors in enumerate(_ref_senior_mask(ci)):
        if mem & seniors:
            effmem |= 1 << j
    s = ci.n_slots
    return direct | eff << s | mem << 2 * s | effmem << (2 * s + ci.n_groups)


def _ref_goal_holds(ci, state, goal, strict, smask):
    eff = _ref_eff_user_bits(ci, state, smask)
    for entry in goal:
        if strict:
            if eff & entry.mask != entry.target:
                return False
        else:
            if entry.target & ~eff:
                return False
    return True


def reference_bfs(ci, start, goal, strict, max_depth, max_states, max_millis):
    smask = ci.seg_mask()
    candidates = [(i, 1 << c.bit, c.add, c.subject, None if c.guard == ALWAYS else c.guard)
                  for i, c in enumerate(ci.candidates)]

    if _ref_goal_holds(ci, start, goal, strict, smask):
        return _kernel_py.REACHABLE, [], 1

    states = [start]
    parents = [-1]
    via = [-1]
    depths = [0]
    seen = {start: 0}
    queue = deque([0])
    deadline = time.monotonic() + max_millis / 1000.0
    depth_cut = False
    expanded = 0

    while queue:
        idx = queue.popleft()
        state = states[idx]
        depth = depths[idx]
        if depth >= max_depth:
            depth_cut = True
            continue
        expanded += 1
        if expanded % 2048 == 0 and time.monotonic() > deadline:
            return _kernel_py.MILLIS_EXCEEDED, None, len(states)
        views = {}
        for ci_idx, bit, add, subject, guard in candidates:
            succ = state | bit if add else state & ~bit
            if succ == state or succ in seen:
                continue
            if guard is not None:
                view = views.get(subject)
                if view is None:
                    view = views[subject] = _ref_view(ci, state, subject, smask)
                for care, want in guard:
                    if view & care == want:
                        break
                else:
                    continue
            if len(states) >= max_states:
                return _kernel_py.STATES_EXCEEDED, None, len(states)
            seen[succ] = len(states)
            states.append(succ)
            parents.append(idx)
            via.append(ci_idx)
            depths.append(depth + 1)
            if _ref_goal_holds(ci, succ, goal, strict, smask):
                plan = []
                at = len(states) - 1
                while at > 0:
                    plan.append(via[at])
                    at = parents[at]
                plan.reverse()
                return _kernel_py.REACHABLE, plan, len(states)
            queue.append(len(states) - 1)

    if depth_cut:
        return _kernel_py.DEPTH_EXCEEDED, None, len(states)
    return _kernel_py.UNREACHABLE, None, len(states)


REFERENCE_BOUNDS = [SearchBounds(), SearchBounds(max_depth=1), SearchBounds(max_depth=2),
                    SearchBounds(max_states=1), SearchBounds(max_states=2),
                    SearchBounds(max_states=7)]


def assert_matches_reference(instance, q, bounds=REFERENCE_BOUNDS):
    """Equal ``bfs`` tuples, strict and relaxed."""
    ci = compile_instance(instance)
    start = ci.encode_state(instance.initial_state)
    goal, entries = ci.compile_query(q), reference_goal(ci, q)
    for b in bounds:
        limits = (b.max_depth, b.max_states, b.max_millis)
        for strict in (True, False):
            assert _kernel_py.bfs(ci, start, goal, strict, *limits) == \
                reference_bfs(ci, start, entries, strict, *limits), (strict, b)


def three_level_instance():
    """A > B > C, where only A can be assigned: C's values reach the user
    through two levels of the closure, and group-subject deletes clear B."""
    hierarchy = GroupHierarchy(frozenset({"A", "B", "C"}), frozenset({("A", "B"), ("B", "C")}))
    rules = [
        Rule(Relation.ASSIGN, "r", TrueCond(), target_group="A"),
        Rule(Relation.REMOVE, "r", DirectVal("a", "z"), target_group="A"),
        Rule(Relation.ADD_UG, "r", Not(EffGroup("A")), target_attr="a", target_val="y"),
        Rule(Relation.DELETE_UG, "r", TrueCond(), target_attr="a", target_val="x"),
        Rule(Relation.DELETE_UG, "r", EffVal("a", "z"), target_attr="a", target_val="y"),
        Rule(Relation.ADD_U, "r", EffGroup("C"), target_attr="a", target_val="z"),
        Rule(Relation.DELETE_U, "r", TrueCond(), target_attr="a", target_val="x"),
    ]
    return ProblemInstance(
        scopes={"a": frozenset({"x", "y", "z"}), "b": frozenset({"w"})},
        hierarchy=hierarchy, roles=frozenset({"r"}), rules=RuleSet.build(rules),
        initial_state=DirectState({"a": {"x"}}, {"B": {"a": {"x"}}, "C": {"a": {"y"}}}))


def two_rules_one_request_instance():
    """Two rules authorize ``add y``; the first holds only once x is held."""
    rules = [
        Rule(Relation.ADD_U, "r", DirectVal("a", "x"), target_attr="a", target_val="y"),
        Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val="y"),
        Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val="x"),
        Rule(Relation.DELETE_U, "r", DirectVal("a", "y"), target_attr="a", target_val="x"),
    ]
    return ProblemInstance(
        scopes={"a": frozenset({"x", "y"})}, hierarchy=GroupHierarchy(frozenset()),
        roles=frozenset({"r"}), rules=RuleSet.build(rules), initial_state=DirectState())


class TestMatchesReferenceKernel:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_fuzz(self, cls):
        for seed in range(200):
            assert_matches_reference(*generate(cls, seed))

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.gurag")), ids=lambda p: p.stem)
    def test_golden(self, path):
        doc = load_golden(path.name)
        for q in doc.queries:
            assert_matches_reference(doc.instance, q)

    @pytest.mark.parametrize("entries", [{"a": {"y", "z"}}, {"a": {"y"}, "b": set()},
                                         {"a": {"z"}}])
    def test_three_level_hierarchy(self, entries):
        inst = three_level_instance()
        q = ReachabilityQuery({att: frozenset(vals) for att, vals in entries.items()})
        assert isinstance(bfs_solve(inst, q), Reachable)
        assert_matches_reference(inst, q)

    def test_two_rules_for_one_request(self):
        inst = two_rules_one_request_instance()
        ci = compile_instance(inst)
        assert [c.request for c in ci.candidates].count(ci.candidates[1].request) == 2
        for vals in ({"y"}, {"x", "y"}):
            assert_matches_reference(inst, ReachabilityQuery({"a": frozenset(vals)}))

    def test_commuting_adds_and_deletes(self):
        # every state of 2^8 is reached from each neighbour; the cuts land
        # inside levels 2, 4 and 5 (level sizes 1, 8, 28, 56, 70, ...)
        vals = [f"v{i:02d}" for i in range(8)]
        rules = [Rule(rel, "r", TrueCond(), target_attr="a", target_val=v)
                 for v in vals for rel in (Relation.ADD_U, Relation.DELETE_U)]
        inst = ProblemInstance(
            scopes={"a": frozenset(vals)}, hierarchy=GroupHierarchy(frozenset()),
            roles=frozenset({"r"}), rules=RuleSet.build(rules),
            initial_state=DirectState({"a": {"v06", "v07"}}))
        bounds = REFERENCE_BOUNDS + [SearchBounds(max_states=n) for n in (20, 100, 200)]
        assert_matches_reference(inst, ReachabilityQuery({"a": frozenset({"v00", "v01"})}),
                                 bounds)

    def test_criterion8_cuts(self):
        # ~26 of 29 candidates live at every state, none guarded
        bounds = [SearchBounds(max_states=1000), SearchBounds(max_states=4099),
                  SearchBounds(max_depth=3)]
        assert_matches_reference(*perfbench_gen.criterion8_wide(), bounds)

    # states and guard views spanning several 64-bit words
    def test_multiword_states(self):
        for seed in range(40):
            inst, q = wide_random_instance(seed, (256, 600, 900)[seed % 3])
            assert_matches_reference(inst, q, [SearchBounds(max_depth=6, max_states=3000),
                                               SearchBounds(max_depth=2, max_states=3000)])

    @pytest.mark.parametrize("n", [300, 700])
    def test_chains_wider_than_256_bits(self, n):
        bounds = [SearchBounds(), SearchBounds(max_depth=n // 2)]
        assert_matches_reference(*chain_instance(n), bounds)

    def test_visited_table_growth(self):
        # all 8,192 states of independent(13) are visited
        inst, q = bench_kernel.independent(13)
        assert_matches_reference(inst, q, [SearchBounds(max_states=1 << 16)])


# --- live sets ---------------------------------------------------------------
# The pure kernel re-tests a candidate only when the bit a step flipped may
# change whether it is live.  In each instance below one kind of dependency
# decides the answer: a kernel that missed it would leave a needed candidate
# dead, or make a denied one live.  It also skips, at a state reached through
# candidate c, each live c' < c that was live at the parent and writes no bit
# c's guard may read (a sleep set).  In each "sleep" case every shortest plan
# runs through a state that a skip without the condition named never reaches.

def live_instance(rules, user="", groups=None, seniority=(), held=()):
    """Attribute ``a`` with values w, x, y and z; ``user`` and each group of
    ``groups`` hold the values named, and the user is in the groups ``held``."""
    groups = groups or {}
    return ProblemInstance(
        scopes={"a": frozenset("wxyz")},
        hierarchy=GroupHierarchy(frozenset(groups), frozenset(seniority)),
        roles=frozenset({"r"}), rules=RuleSet.build(rules),
        initial_state=DirectState({"a": set(user)}, {g: {"a": set(v)} for g, v in groups.items()},
                                  frozenset(held)))


def _add(val, pre=TrueCond(), relation=Relation.ADD_U):
    return Rule(relation, "r", pre, target_attr="a", target_val=val)


def _delete(val, pre=TrueCond(), relation=Relation.DELETE_U):
    return Rule(relation, "r", pre, target_attr="a", target_val=val)


def _assign(group, pre=TrueCond()):
    return Rule(Relation.ASSIGN, "r", pre, target_group=group)


# name -> (instance, the values the user must hold effectively, plan length or None)
LIVE_DEPENDENCIES = {
    # adding x to G makes the user's effective x hold: the guard reads G's segment
    "group add enables user EffVal": (live_instance(
        [_add("x", relation=Relation.ADD_UG), _add("y", EffVal("a", "x"))],
        groups={"G": ""}, held={"G"}), "xy", 2),
    # joining G, which holds x, makes the user's effective x hold
    "assign enables user EffVal": (live_instance(
        [_assign("G"), _add("y", EffVal("a", "x"))], groups={"G": "x"}), "xy", 2),
    # joining A puts the user effectively in C, two levels down
    "assign enables EffGroup through two levels": (live_instance(
        [_assign("A"), _assign("D", EffGroup("C"))],
        groups={"A": "", "B": "", "C": "", "D": "y"}, seniority={("A", "B"), ("B", "C")}), "y", 2),
    # only B can take x; A's guard reads x in its junior B's segment
    "group EffVal reads a junior's segment": (live_instance(
        [_add("x", DirectVal("a", "w"), Relation.ADD_UG),
         _add("y", And((EffVal("a", "x"), Not(DirectVal("a", "w")))), Relation.ADD_UG)],
        groups={"A": "", "B": "w"}, seniority={("A", "B")}, held={"A"}), "wxy", 2),
    # deleting x turns the unconditional add of x back on, two steps later
    "delete re-enables an ALWAYS add": (live_instance(
        [_delete("x"), _add("x"), _add("z", Not(DirectVal("a", "x"))),
         _add("y", And((DirectVal("a", "x"), DirectVal("a", "z"))))], user="x"), "xyz", 4),
    # deleting x lets the guarded add of x, whose guard already holds, fire again
    "guarded writer re-tested after an ALWAYS one": (live_instance(
        [_delete("x"), _add("x", DirectVal("a", "w")), _add("z", Not(DirectVal("a", "x"))),
         _add("y", And((DirectVal("a", "x"), DirectVal("a", "z"))))], user="wx"), "wxyz", 4),
    # deleting x must not turn on the add of x, whose guard never holds
    "guarded writer stays off after an ALWAYS one": (live_instance(
        [_delete("x"), _add("x", DirectVal("a", "w")), _add("y", Not(DirectVal("a", "x")))],
        user="x"), "xy", None),
    # sleep sets: adding x turns on the add of w, which was not live at the parent
    "sleep reads the parent's live mask": (live_instance(
        [_add("w", DirectVal("a", "x")), _add("x")]), "wx", 2),
    # adding w, then x: only the later add may skip the earlier one
    "sleep only below the step's candidate": (live_instance([_add("w"), _add("x")]), "wx", 2),
    # adding x turns off the add of y: add y, then x
    "sleep keeps what the step's guard reads": (live_instance(
        [_add("x"), _add("y", Not(DirectVal("a", "x")))]), "xy", 2),
    # deleting x from B, the user's junior group through A, keeps the user
    # out of D: join D, then delete
    "sleep keeps a user EffVal through a junior": (live_instance(
        [_delete("x", relation=Relation.DELETE_UG), _assign("D", EffVal("a", "x"))],
        groups={"A": "", "B": "x", "D": "y"}, seniority={("A", "B")}, held={"A"}), "y", 2),
    # only B can take x, and x in A's junior B stops A deleting w: delete, then add
    "sleep keeps a group EffVal through a junior": (live_instance(
        [_add("x", DirectVal("a", "z"), Relation.ADD_UG),
         _delete("w", Not(EffVal("a", "x")), Relation.DELETE_UG)],
        groups={"A": "w", "B": "z"}, seniority={("A", "B")}, held={"A"}), "xz", 2),
    # joining A puts the user in C, which stops leaving D: leave, then join
    "sleep keeps an EffGroup": (live_instance(
        [_assign("A"), Rule(Relation.REMOVE, "r", Not(EffGroup("C")), target_group="D")],
        groups={"A": "w", "C": "", "D": "y"}, seniority={("A", "C")}, held={"D"}), "w", 2),
}


@pytest.mark.parametrize("name", LIVE_DEPENDENCIES)
def test_live_set_follows_each_dependency(name):
    inst, vals, steps = LIVE_DEPENDENCIES[name]
    q = ReachabilityQuery({"a": frozenset(vals)})
    out = bfs_solve(inst, q)
    if steps is None:
        assert isinstance(out, Unreachable)
    else:
        assert isinstance(out, Reachable) and len(out.plan) == steps
    assert_matches_reference(inst, q)


def test_sleep_masks_of_four_candidates():
    # candidate i sleeps on the candidates below it that write no bit its
    # guard reads; delete w writes add w's bit, which parent and child
    # liveness already rule out, so no term drops it here
    inst = live_instance([_add("w"), _add("x", DirectVal("a", "w")),
                          _add("y", Not(DirectVal("a", "x"))),
                          _delete("w", And((DirectVal("a", "x"), DirectVal("a", "y"))))])
    ci = compile_instance(inst)
    assert [c.request.val for c in ci.candidates] == ["w", "x", "y", "w"]
    table = _kernel_py._LiveTable(ci)
    table.build(0)  # indexes the guards' reads
    assert [table.sleep(i) for i in range(4)] == [0b0000, 0b0000, 0b0001, 0b0001]


# --- the benchmark's instances -----------------------------------------------

def _load_script(path):
    """A benchmark script as a module; ``sys.path`` is restored after it loads."""
    saved = sys.path[:]
    try:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = saved


bench_kernel = _load_script(ROOT / "benchmarks" / "bench_kernel.py")
perfbench_gen = _load_script(ROOT / "perfbench" / "gen.py")


@pytest.fixture(params=[_kernel_py.KERNEL_NAME])
def each_kernel(request):
    """The one kernel's name, as ``oracle`` reports it, which the tests that
    take it are parametrized by; no outcome names it."""
    return request.param


class TestBenchmarkExpectations:
    def test_independent_explores_every_state(self, each_kernel):
        inst, q = bench_kernel.independent(12)
        plan = Plan(tuple(c.request for c in compile_instance(inst).candidates))
        assert len(plan) == 12
        out = bfs_solve(inst, q)
        assert out == Reachable(plan, 4096)

    def test_criterion8_stops_at_the_state_bound(self, each_kernel):
        inst, q = perfbench_gen.criterion8_wide()
        out = bfs_solve(inst, q, SearchBounds(max_states=4096))
        assert out == BoundExceeded("states", 4096)

    def test_time_bound(self, each_kernel):
        # the states explored before the clock is read depend on the machine
        inst, q = bench_kernel.independent(20)
        out = bfs_solve(inst, q, SearchBounds(max_millis=1))
        assert isinstance(out, BoundExceeded) and out.bound == "millis"

    def test_largest_time_bound_never_stops_the_search(self, each_kernel):
        # the largest limit accepted, about 292 million years
        inst, q = bench_kernel.independent(12)
        out = bfs_solve(inst, q, SearchBounds(max_millis=2**63 - 1))
        assert isinstance(out, Reachable) and out.states_explored == 4096
        with pytest.raises(ValueError):
            SearchBounds(max_millis=2**63 + 5)

    def test_time_bound_counts_candidate_tests(self, each_kernel):
        # few states, each testing thousands of live candidates: the clock has
        # to be read within the first states, not after 2,048 of them
        inst, q = bench_kernel.independent(4000)
        begun = time.monotonic()
        out = bfs_solve(inst, q, SearchBounds(max_depth=4001, max_millis=20))
        assert time.monotonic() - begun < 1
        assert out == BoundExceeded("millis", out.states_explored)


def test_pure_kernel_keeps_one_small_link_per_visited_state():
    # a visited state maps to the index of the candidate that reached it: on
    # CPython 3.11 the search peaks at ~84 bytes a state with the frontier's
    # parent live masks, where a (parent state, candidate) tuple in each
    # visited value brought it to ~123 without them
    inst, q = bench_kernel.independent(14)
    ci = compile_instance(inst)
    goal, start = ci.compile_query(q), ci.encode_state(inst.initial_state)
    tracemalloc.start()
    try:
        code, _, states = _kernel_py.bfs(ci, start, goal, True, 32, 1 << 20, 30_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, states) == (_kernel_py.REACHABLE, 1 << 14)
    assert peak / states < 100


def test_pure_kernel_tests_only_live_candidates():
    # each state of chain(512) has one live candidate of 512: testing only the
    # live ones is many times faster than testing all of them, as the
    # reference kernel does (~20 times on CPython 3.11)
    inst, q = bench_kernel.chain(512)
    ci = compile_instance(inst)
    start, goal, entries = ci.encode_state(inst.initial_state), ci.compile_query(q), \
        reference_goal(ci, q)
    limits = (True, 1000, 1 << 20, 30_000)

    def fastest(search, goal):
        runs = []
        for _ in range(3):
            begun = time.perf_counter()
            out = search(ci, start, goal, *limits)
            runs.append(time.perf_counter() - begun)
        return min(runs), out

    pure, out = fastest(_kernel_py.bfs, goal)
    reference, expected = fastest(reference_bfs, entries)
    assert out == expected and out[0] == _kernel_py.REACHABLE
    assert 4 * pure <= reference, (pure, reference)


# --- idle values -------------------------------------------------------------
# A scope value that no rule writes and no segment of the initial state holds
# is idle: every idle value shares one slot, always 0.  Its "keeper twin" adds,
# per idle value v of a, the rule ``v in direct(a) -> v``, which never fires
# (it adds only what is held) but gives v a slot of its own.  The twin must
# answer every query as the instance does.

def idle_values(instance):
    """The idle (att, val) pairs of ``instance``, sorted."""
    kept = {(rule.target_attr, rule.target_val) for rule in instance.rules}
    state = instance.initial_state
    kept |= {(att, val) for attrs in (state.user_attrs, *state.group_attrs.values())
             for att, vals in attrs.items() for val in vals}
    return sorted((att, val) for att, vals in instance.scopes.items() for val in vals
                  if (att, val) not in kept)


def keeper_twin(instance):
    role = min(instance.roles)
    keepers = [Rule(Relation.ADD_U, role, DirectVal(att, val), target_attr=att, target_val=val)
               for att, val in idle_values(instance)]
    return ProblemInstance(instance.scopes, instance.hierarchy, instance.roles,
                           RuleSet.build(list(instance.rules) + keepers), instance.initial_state)


TWIN_BOUNDS = [SearchBounds(), SearchBounds(max_depth=2), SearchBounds(max_states=5)]


def assert_twin_agrees(instance, q, bounds=TWIN_BOUNDS):
    """The instance compiles to its kept values plus one shared slot, its twin
    to one slot per value, and both give equal outcomes, strict and relaxed, at
    each bound; returns the instance's outcomes."""
    idle, twin = idle_values(instance), keeper_twin(instance)
    values, n_groups = sum(map(len, instance.scopes.values())), len(instance.groups)
    ci, ci_twin = compile_instance(instance), compile_instance(twin)
    assert ci_twin.n_slots == values and ci_twin.nbits == values * (1 + n_groups) + n_groups
    assert ci.n_slots == values - len(idle) + bool(idle)
    outcomes = []
    for query in (ReachabilityQuery(q.entries), q.relaxed_copy()):
        for b in bounds:
            out = bfs_solve(instance, query, b)
            assert out == bfs_solve(twin, query, b), (query, b)
            outcomes.append(out)
    return outcomes


def unwritten_instance():
    """The user holds w and group G, which the user may join, holds x; no rule
    writes either.  z, u and v are idle.  One guard reads ``(z and not u) or
    x``, whose first clause reads the shared slot both ways."""
    z_not_u = And((DirectVal("a", "z"), Not(DirectVal("b", "u"))))
    rules = [
        _assign("G", And((DirectVal("a", "w"), Not(DirectVal("b", "u"))))),
        _add("y", EffVal("a", "x")),
        _add("y", Not(And((Not(z_not_u), Not(EffVal("a", "x"))))), Relation.ADD_UG),
        _delete("y", And((EffVal("a", "y"), Not(EffVal("a", "z")))), Relation.DELETE_UG),
        Rule(Relation.REMOVE, "r", EffVal("b", "v"), target_group="G"),
    ]
    return ProblemInstance(
        scopes={"a": frozenset("wxyz"), "b": frozenset("uv")},
        hierarchy=GroupHierarchy(frozenset({"G", "H"}), frozenset({("G", "H")})),
        roles=frozenset({"r"}), rules=RuleSet.build(rules),
        initial_state=DirectState({"a": {"w"}}, {"G": {"a": {"x"}}, "H": {"a": {"x"}}}))


class TestIdleValues:
    def test_layout(self):
        inst = unwritten_instance()
        assert idle_values(inst) == [("a", "z"), ("b", "u"), ("b", "v")]
        ci = compile_instance(inst)
        # w, x, y kept in a; b has none; z, u and v share slot 3
        assert ci.att_spans == {"a": (0, 3), "b": (3, 0)}
        assert [ci.slot[key] for key in sorted(ci.slot)] == [0, 1, 2, 3, 3, 3]
        assert (ci.n_slots, ci.nbits) == (4, 14)
        # the collapsed clause is dropped; in the twin it stays
        guard = {c.rule_id: c.guard for c in ci.candidates}[2]
        twin_guard = {c.rule_id: c.guard for c in compile_instance(keeper_twin(inst)).candidates}[2]
        assert (len(guard), len(twin_guard)) == (1, 2)

    def test_widths_of_the_benchmark_instances(self):
        # criterion 8: 9 kept values of 50 and one idle slot, in 3 segments, plus 2 groups
        assert compile_instance(perfbench_gen.criterion8_wide()[0]).nbits == 32
        for n in (1, 12, 64):
            assert compile_instance(bench_kernel.chain(n)[0]).nbits == n
            assert compile_instance(bench_kernel.independent(n)[0]).nbits == n

    def test_encode_state_refuses_an_idle_value(self):
        inst = unwritten_instance()
        ci = compile_instance(inst)
        assert ci.encode_state(inst.initial_state) == 0b1 | 0b10 << 4 | 0b10 << 8
        for state in (DirectState({"a": {"w", "z"}}), DirectState({}, {"H": {"b": {"u"}}})):
            with pytest.raises(ValueError, match="idle"):
                ci.encode_state(state)

    @pytest.mark.parametrize("cls", CLASSES)
    def test_keeper_twin_on_fuzz(self, cls, each_kernel):
        twins = 0
        for seed in range(500):
            inst, q = generate(cls, seed)
            if idle_values(inst):
                assert_twin_agrees(inst, q)
                twins += 1
        assert twins > 100

    @pytest.mark.parametrize("entries,outcomes", [
        # the target holds idle z: never, strict or relaxed
        ({"a": "wxyz"}, ("unreachable",) * 2),
        # a's idle z lies outside the strict target: reached as in the twin
        ({"a": "wxy"}, ("reachable",) * 2),
        ({"a": "wxy", "b": ""}, ("reachable",) * 2),
        ({"b": "v"}, ("unreachable",) * 2),
    ])
    def test_queries_naming_idle_values(self, each_kernel, entries, outcomes):
        inst = unwritten_instance()
        q = ReachabilityQuery({att: frozenset(vals) for att, vals in entries.items()})
        bounds = TWIN_BOUNDS[:1] + [SearchBounds(max_depth=1), SearchBounds(max_states=3)]
        out = assert_twin_agrees(inst, q, bounds)
        # strict then relaxed, each uncut, then cut by depth and by states
        assert (out[0].outcome, out[3].outcome) == outcomes
        assert [o.bound for o in out] == [None, "depth", "states"] * 2
