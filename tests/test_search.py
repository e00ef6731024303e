import ctypes
import importlib.util
import itertools
import json
import pathlib
import random
import re
import shutil
import subprocess
import sys
import time
from collections import deque

import pytest

from gurag_reach import _kernel_ctypes, _kernel_py, kernel
from gurag_reach.dsl import serialize
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
    eval_precondition,
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
    apply_request,
    authorized_rules,
    validate_plan,
)

from conftest import GOLDEN, KERNEL_SOURCE, child_env, load_golden

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
    def test_candidates_sorted_deterministically(self):
        inst, _ = generate("any", 11)
        ci = compile_instance(inst)
        keys = [(c.request.sort_key, c.rule_id) for c in ci.candidates]
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
            assert guard_holds(ci, cand, bits) == eval_precondition(
                pre[cand.rule_id], state, instance.hierarchy, subject), (cand.request, state)


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
                if authorized_rules(state, instance.hierarchy, instance.rules, req):
                    succ = apply_request(state, req)
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
    def test_bounds_must_fit_the_compiled_kernel(self, bounds):
        with pytest.raises(ValueError):
            SearchBounds(**bounds)
        SearchBounds(max_depth=2**31 - 1, max_states=2**32 - 1, max_millis=2**63 - 1)

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

    def test_unknown_engine_rejected(self, golden):
        doc = golden("chain.gurag")
        with pytest.raises(ValueError, match="unknown engine 'typo'"):
            analyze(doc.instance, doc.queries[0], "typo")


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

    def test_bound_outcomes_identical(self):
        inst, q = chain_instance(8)
        for bounds in (SearchBounds(max_depth=3), SearchBounds(max_states=4)):
            assert bfs_solve(inst, q, bounds, engine="python") == \
                bfs_solve(inst, q, bounds, engine="compiled")

    def test_visited_table_growth(self):
        # enough states to force several doublings of the 4,096-slot table
        inst, q = bench_kernel.independent(13)
        out = bfs_solve(inst, q, SearchBounds(max_states=1 << 16), engine="compiled")
        assert out == bfs_solve(inst, q, SearchBounds(max_states=1 << 16), engine="python")
        assert out.states_explored > 4096

    def test_multiword_states_identical(self):
        # states and guard views spanning several 64-bit words, up to 900 bits
        for seed in range(40):
            inst, q = wide_random_instance(seed, (256, 600, 900)[seed % 3])
            for bounds in (SearchBounds(max_depth=6, max_states=3000),
                           SearchBounds(max_depth=2, max_states=3000)):
                assert bfs_solve(inst, q, bounds, engine="python") == \
                    bfs_solve(inst, q, bounds, engine="compiled"), seed

    def test_raw_bfs_tuples_identical(self, compiled_kernel):
        # what ``perfbench`` compares: the tuples themselves
        codes = set()
        cases = [generate(cls, seed) for cls in CLASSES for seed in range(60)]
        cases += [wide_random_instance(seed, bits) for seed in range(10) for bits in (256, 600, 900)]
        for inst, q in cases:
            ci = compile_instance(inst)
            start, goal = ci.encode_state(inst.initial_state), ci.compile_query(q)
            for max_depth, max_states in ((32, 1 << 20), (2, 1 << 20), (32, 5)):
                for strict in (True, False):
                    args = (ci, start, goal, strict, max_depth, max_states, 30_000)
                    out = _kernel_py.bfs(*args)
                    assert compiled_kernel.bfs(*args) == out, (q, args[2:])
                    codes.add(out[0])
        # found, closed, depth-cut and state-cut searches
        assert codes == {_kernel_py.REACHABLE, _kernel_py.UNREACHABLE,
                         _kernel_py.DEPTH_EXCEEDED, _kernel_py.STATES_EXCEEDED}

    @pytest.mark.parametrize("n", [300, 700])
    def test_chains_wider_than_256_bits_identical(self, n):
        inst, q = chain_instance(n)
        for bounds in (SearchBounds(), SearchBounds(max_depth=n // 2)):
            assert bfs_solve(inst, q, bounds, engine="python") == \
                bfs_solve(inst, q, bounds, engine="compiled")

    def test_wide_instance_runs_compiled(self, compiled_kernel):
        inst, _ = chain_instance(257)
        ci = compile_instance(inst)
        assert ci.nbits == 257
        assert kernel.select(ci, "auto") is kernel.select(ci, "compiled") is compiled_kernel


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


def assert_matches_reference(instance, q):
    """Equal ``bfs`` tuples, strict and relaxed."""
    ci = compile_instance(instance)
    start = ci.encode_state(instance.initial_state)
    goal, entries = ci.compile_query(q), reference_goal(ci, q)
    for b in REFERENCE_BOUNDS:
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
        assert isinstance(bfs_solve(inst, q, engine="python"), Reachable)
        assert_matches_reference(inst, q)

    def test_two_rules_for_one_request(self):
        inst = two_rules_one_request_instance()
        ci = compile_instance(inst)
        assert [c.request for c in ci.candidates].count(ci.candidates[1].request) == 2
        for vals in ({"y"}, {"x", "y"}):
            assert_matches_reference(inst, ReachabilityQuery({"a": frozenset(vals)}))


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


@pytest.fixture(params=["python", "compiled"])
def engine(request):
    """Each kernel in turn, the compiled one built from the checkout."""
    if request.param == "compiled":
        request.getfixturevalue("compiled_kernel")
    return request.param


class TestBinding:
    C_TYPES = {"int32_t": ctypes.c_int32, "uint32_t": ctypes.c_uint32,
               "int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64}

    def c_struct_fields(self, name):
        """The (name, ctypes type) of each field of a struct in ``_kernel.c``."""
        source = (ROOT / "src" / "gurag_reach" / "_kernel.c").read_text()
        body = re.search(r"^struct %s \{\n(.*?)^\};" % name, source, re.S | re.M).group(1)
        fields = []
        for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
            ctype, names = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*?)\s*", decl, re.S).groups()
            for field in names.split(","):
                field = field.strip()
                base = self.C_TYPES[ctype]
                fields.append((field.lstrip("* "), ctypes.POINTER(base) if field[0] == "*" else base))
        return fields

    def test_search_structure_mirrors_the_c_struct(self):
        # same names in the same order, with the same widths and signedness
        fields = self.c_struct_fields("gr_search")
        assert ("n_slots", ctypes.c_int32) in fields and ("start", _kernel_ctypes._u64) in fields
        assert _kernel_ctypes._Search._fields_ == fields


# Run in a child interpreter with AddressSanitizer preloaded: compares the raw
# ``bfs`` tuples of the library named by argv[1] with the pure kernel's on
# fuzz seeds 0-299 of each class and on the documents of the JSON list on
# stdin, at three bounds, strict and relaxed; prints the number of calls.
SANITIZED_CHECK = """
import json, sys
from gurag_reach import _kernel_py, kernel
from gurag_reach.dsl import parse
from gurag_reach.encoding import compile_instance
from gurag_reach.fuzz import CLASSES, generate

compiled = kernel.load(sys.argv[1])
cases = [generate(cls, seed) for cls in CLASSES for seed in range(300)]
cases += [(doc.instance, doc.queries[0]) for doc in map(parse, json.load(sys.stdin))]
calls = 0
for inst, q in cases:
    ci = compile_instance(inst)
    start, goal = ci.encode_state(inst.initial_state), ci.compile_query(q)
    for max_depth, max_states in ((32, 1 << 20), (2, 1 << 20), (32, 5)):
        for strict in (True, False):
            args = (ci, start, goal, strict, max_depth, max_states, 30_000)
            if compiled.bfs(*args) != _kernel_py.bfs(*args):
                sys.exit(f"differs on {q} with {args[2:]}")
            calls += 1
print(calls)
"""


def test_sanitized_kernel_matches_the_pure_one(tmp_path):
    """The compiled kernel built with AddressSanitizer and UndefinedBehaviorSanitizer:
    a bad memory access, a double free or undefined behaviour aborts the child.
    Leak checking is off, as it reports the interpreter's own allocations."""
    cc = shutil.which("gcc")
    if cc is None:
        pytest.skip("no gcc to build a sanitized kernel")
    runtimes = [subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                               text=True, check=True).stdout.strip()
                for name in ("libasan.so", "libubsan.so")]
    if not all(pathlib.Path(path).is_absolute() for path in runtimes):
        pytest.skip("gcc has no sanitizer runtime")
    lib = tmp_path / "_kernel_asan.so"
    subprocess.run([cc, "-std=c99", "-O1", "-g", "-fno-omit-frame-pointer",
                    "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-shared",
                    "-fPIC", "-o", str(lib), str(KERNEL_SOURCE)], check=True)
    # states and views of several 64-bit words
    wide = [wide_random_instance(seed, bits) for seed in range(3) for bits in (256, 600, 900)]
    wide += [chain_instance(n) for n in (300, 700)]
    child = subprocess.run(
        [sys.executable, "-c", SANITIZED_CHECK, str(lib)],
        input=json.dumps([serialize(inst, [q]) for inst, q in wide]), capture_output=True,
        text=True, env=child_env(LD_PRELOAD=runtimes[0], ASAN_OPTIONS="detect_leaks=0"))
    assert child.returncode == 0 and not child.stderr, child.stderr
    assert child.stdout == f"{6 * (3 * 300 + len(wide))}\n"


class TestBenchmarkExpectations:
    def test_independent_explores_every_state(self, engine):
        inst, q = bench_kernel.independent(12)
        plan = Plan(tuple(c.request for c in compile_instance(inst).candidates))
        assert len(plan) == 12
        assert bfs_solve(inst, q, engine=engine) == Reachable(plan, 4096)

    def test_criterion8_stops_at_the_state_bound(self, engine):
        inst, q = perfbench_gen.criterion8_wide()
        assert bfs_solve(inst, q, SearchBounds(max_states=4096), engine=engine) == \
            BoundExceeded("states", 4096)

    def test_time_bound(self, engine):
        # the states explored before the clock is read depend on the machine
        inst, q = bench_kernel.independent(20)
        out = bfs_solve(inst, q, SearchBounds(max_millis=1), engine=engine)
        assert isinstance(out, BoundExceeded) and out.bound == "millis"

    def test_largest_time_bound_never_stops_the_search(self, engine):
        # the compiled kernel takes the limit as an int64; a larger one used
        # to wrap there and stop the search after a few thousand states
        inst, q = bench_kernel.independent(12)
        out = bfs_solve(inst, q, SearchBounds(max_millis=2**63 - 1), engine=engine)
        assert isinstance(out, Reachable) and out.states_explored == 4096
        with pytest.raises(ValueError):
            SearchBounds(max_millis=2**63 + 5)

    def test_time_bound_counts_candidate_tests(self, engine):
        # few states, each testing 4,000 candidates: the clock has to be read
        # within the first states, not after 2,048 of them
        inst, q = bench_kernel.chain(4000)
        begun = time.monotonic()
        out = bfs_solve(inst, q, SearchBounds(max_depth=4001, max_millis=20), engine=engine)
        assert time.monotonic() - begun < 1
        assert out == BoundExceeded("millis", out.states_explored)
