import random
import subprocess
import sys

import pytest

from gurag_reach.fuzz import CLASSES, generate
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance, canonical_key
from gurag_reach.dsl import parse
from gurag_reach.policy import (
    DirectGroup,
    DirectVal,
    Not,
    PolicyError,
    Relation,
    Rule,
    RuleSet,
    TrueCond,
)
from gurag_reach.transition import (
    InvalidAt,
    NotAuthorized,
    Plan,
    QueryType,
    QueryUnsatisfied,
    ReachabilityQuery,
    Request,
    Valid,
    apply_request,
    authorized_rules,
    eval_query,
    step,
    validate_plan,
)

from conftest import child_env

H = GroupHierarchy(frozenset({"G1", "G2"}), frozenset({("G1", "G2")}))


def instance(rules, state=None):
    return ProblemInstance(
        scopes={"a": frozenset({"x", "y"}), "b": frozenset({"z"})},
        hierarchy=H,
        roles=frozenset({"r"}),
        rules=RuleSet.build(rules),
        initial_state=state or DirectState(),
    )


class TestApplyRequest:
    def test_add_and_delete_user_value(self):
        s = DirectState()
        s2 = apply_request(s, Request(Relation.ADD_U, "r", att="a", val="x"))
        assert s2.user_values("a") == {"x"}
        s3 = apply_request(s2, Request(Relation.DELETE_U, "r", att="a", val="x"))
        assert s3 == s

    def test_add_is_idempotent(self):
        req = Request(Relation.ADD_U, "r", att="a", val="x")
        s = apply_request(DirectState(), req)
        assert apply_request(s, req) == s

    def test_group_value_and_membership(self):
        s = apply_request(DirectState(),
                          Request(Relation.ADD_UG, "r", att="a", val="x", group="G1"))
        assert s.group_values("G1", "a") == {"x"}
        s = apply_request(s, Request(Relation.ASSIGN, "r", group="G1"))
        assert s.user_groups == {"G1"}
        s = apply_request(s, Request(Relation.REMOVE, "r", group="G1"))
        assert s.user_groups == frozenset()

    def test_request_shape_enforced(self):
        with pytest.raises(PolicyError):
            Request(Relation.ADD_U, "r", att="a", val="x", group="G1")
        with pytest.raises(PolicyError):
            Request(Relation.ASSIGN, "r", att="a", val="x")

    def test_request_shape_enforced_without_asserts(self):
        # ``python -O`` strips assert statements; the shape check is not one
        code = ("from gurag_reach.policy import PolicyError, Relation\n"
                "from gurag_reach.transition import Request\n"
                "for kind, fields in ((Relation.ADD_U, dict(att='a', val='x', group='G1')),\n"
                "                     (Relation.ADD_UG, dict(att='a', val='x')),\n"
                "                     (Relation.ASSIGN, dict(att='a', val='x'))):\n"
                "    try:\n"
                "        Request(kind, 'r', **fields)\n"
                "    except PolicyError as exc:\n"
                "        print(exc)\n")
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env=child_env())
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == (
            "wrong fields for addU: group='G1', att='a', val='x'\n"
            "wrong fields for addUG: group=None, att='a', val='x'\n"
            "wrong fields for assign: group=None, att='a', val='x'\n")


class TestStep:
    def test_no_matching_rule(self):
        inst = instance([Rule(Relation.ADD_U, "r", TrueCond(),
                              target_attr="a", target_val="x")])
        with pytest.raises(NotAuthorized) as exc:
            step(inst.initial_state, H, inst.rules,
                 Request(Relation.ADD_U, "r", att="a", val="y"))
        assert exc.value.reason == "no matching rule"

    def test_precondition_failed(self):
        inst = instance([Rule(Relation.ADD_U, "r", DirectVal("a", "y"),
                              target_attr="a", target_val="x")])
        with pytest.raises(NotAuthorized) as exc:
            step(inst.initial_state, H, inst.rules,
                 Request(Relation.ADD_U, "r", att="a", val="x"))
        assert exc.value.reason == "precondition failed"

    def test_any_matching_rule_suffices(self):
        inst = instance([
            Rule(Relation.ADD_U, "r", DirectVal("a", "y"), target_attr="a", target_val="x"),
            Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val="x"),
        ])
        out = step(inst.initial_state, H, inst.rules,
                   Request(Relation.ADD_U, "r", att="a", val="x"))
        assert out.user_values("a") == {"x"}

    def test_group_subject_precondition(self):
        # canAddUG guards are evaluated against the target group, not the user
        inst = instance([Rule(Relation.ADD_UG, "r", DirectVal("b", "z"),
                              target_attr="a", target_val="x")],
                        state=DirectState(group_attrs={"G1": {"b": {"z"}}}))
        out = step(inst.initial_state, H, inst.rules,
                   Request(Relation.ADD_UG, "r", att="a", val="x", group="G1"))
        assert out.group_values("G1", "a") == {"x"}
        with pytest.raises(NotAuthorized):
            step(inst.initial_state, H, inst.rules,
                 Request(Relation.ADD_UG, "r", att="a", val="x", group="G2"))


def test_authorized_rules_in_id_order():
    inst = instance([
        Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val="x"),
        Rule(Relation.ADD_U, "r", DirectVal("a", "y"), target_attr="a", target_val="x"),
        Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val="x"),
    ])
    req = Request(Relation.ADD_U, "r", att="a", val="x")
    assert authorized_rules(inst.initial_state, H, inst.rules, req) == [0, 2]


class TestQueries:
    def test_strict_demands_equality(self):
        s = DirectState(user_attrs={"a": {"x", "y"}})
        assert eval_query(s, H, ReachabilityQuery({"a": frozenset({"x", "y"})}))
        assert not eval_query(s, H, ReachabilityQuery({"a": frozenset({"x"})}))

    def test_relaxed_demands_superset(self):
        s = DirectState(user_attrs={"a": {"x", "y"}})
        q = ReachabilityQuery({"a": frozenset({"x"})}, QueryType.RELAXED)
        assert eval_query(s, H, q)

    def test_unmentioned_attributes_unconstrained(self):
        s = DirectState(user_attrs={"a": {"x"}, "b": {"z"}})
        assert eval_query(s, H, ReachabilityQuery({"a": frozenset({"x"})}))

    def test_query_over_effective_values(self):
        s = DirectState(group_attrs={"G2": {"a": {"x"}}}, user_groups={"G1"})
        assert eval_query(s, H, ReachabilityQuery({"a": frozenset({"x"})}))

    def test_strict_relaxed_copy(self):
        q = ReachabilityQuery({"a": frozenset({"x"})})
        assert q.strict and not q.relaxed_copy().strict
        assert q.relaxed_copy().entries == q.entries


class TestValidatePlan:
    def test_valid(self):
        inst = instance([Rule(Relation.ADD_U, "r", TrueCond(),
                              target_attr="a", target_val="x")])
        plan = Plan((Request(Relation.ADD_U, "r", att="a", val="x"),))
        verdict = validate_plan(inst, plan, ReachabilityQuery({"a": frozenset({"x"})}))
        assert isinstance(verdict, Valid)
        assert verdict.final_state.user_values("a") == {"x"}

    def test_invalid_at_reports_index(self):
        inst = instance([Rule(Relation.ADD_U, "r", TrueCond(),
                              target_attr="a", target_val="x")])
        plan = Plan((
            Request(Relation.ADD_U, "r", att="a", val="x"),
            Request(Relation.ADD_U, "r", att="a", val="y"),
        ))
        verdict = validate_plan(inst, plan, ReachabilityQuery({}))
        assert verdict == InvalidAt(1, "no matching rule")

    def test_query_unsatisfied(self):
        inst = instance([])
        verdict = validate_plan(inst, Plan(), ReachabilityQuery({"a": frozenset({"x"})}))
        assert isinstance(verdict, QueryUnsatisfied)


def test_request_render_formats():
    assert Request(Relation.ADD_U, "r", att="a", val="x").render() == "addU(r, a, x)"
    assert Request(Relation.DELETE_UG, "r", att="a", val="x", group="G1").render() \
        == "deleteUG(r, G1, a, x)"
    assert Request(Relation.REMOVE, "r", group="G1").render() == "remove(r, G1)"


# each request kind with a precondition on its subject that holds, one that
# does not, and a request whose target no rule names: the user's values, the
# target group's values and the user's memberships
DENIAL_CASES = {
    "user": (Request(Relation.ADD_U, "r", att="a", val="x"),
             DirectVal("b", "z"), DirectVal("a", "y"),
             {"target_attr": "a", "target_val": "x"},
             Request(Relation.ADD_U, "r", att="a", val="y")),
    "group-subject": (Request(Relation.ADD_UG, "r", att="a", val="x", group="G1"),
                      DirectVal("b", "z"), DirectVal("a", "y"),
                      {"target_attr": "a", "target_val": "x"},
                      Request(Relation.ADD_UG, "r", att="a", val="y", group="G1")),
    "membership": (Request(Relation.ASSIGN, "r", group="G1"),
                   DirectGroup("G2"), DirectGroup("G1"),
                   {"target_group": "G1"},
                   Request(Relation.ASSIGN, "r", group="G2")),
}


@pytest.mark.parametrize("case", sorted(DENIAL_CASES))
def test_replay_denial_reasons(case):
    req, holds, fails, target, unmatched = DENIAL_CASES[case]
    # the group's own b = z, and the user's, reached through neither subject's a
    state = DirectState(user_attrs={"b": {"z"}}, group_attrs={"G1": {"b": {"z"}}},
                        user_groups={"G2"})
    q = ReachabilityQuery({})

    def replay(pres, request=req):
        inst = instance([Rule(req.kind, "r", pre, **target) for pre in pres], state)
        return validate_plan(inst, Plan((request,)), q)

    # only the second rule holds, and the first is passed over
    assert isinstance(replay([fails, holds]), Valid)
    assert isinstance(replay([holds, fails]), Valid)
    assert replay([fails, fails]) == InvalidAt(0, "precondition failed")
    assert replay([fails, holds], unmatched) == InvalidAt(0, "no matching rule")


def test_render_parses_back_for_every_relation():
    requests = (
        Request(Relation.ADD_U, "r", att="a", val="x"),
        Request(Relation.DELETE_U, "r", att="b", val="z"),
        Request(Relation.ADD_UG, "r", att="a", val="y", group="G1"),
        Request(Relation.DELETE_UG, "r", att="b", val="z", group="G2"),
        Request(Relation.ASSIGN, "r", group="G2"),
        Request(Relation.REMOVE, "r", group="G1"),
    )
    assert {req.kind for req in requests} == set(Relation)
    document = ("attr a scope { x, y }\nattr b scope { z }\ngroup G1\ngroup G2\nrole r\n"
                "query relaxed { e_a(u) = { x } }\n"
                f"plan {{ {'; '.join(req.render() for req in requests)} }}\n")
    result = parse(document)
    assert result.ok, result.diagnostics
    assert result.plans[0].requests == requests


# --- Replay in place against a frozen-copy reference -------------------------

def reference_apply(state, req):
    """The state update as a fresh copy per request, the way replay once ran."""
    if req.kind == Relation.ADD_U or req.kind == Relation.DELETE_U:
        vals = set(state.user_values(req.att))
        (vals.add if req.kind == Relation.ADD_U else vals.discard)(req.val)
        user_attrs = dict(state.user_attrs)
        user_attrs[req.att] = frozenset(vals)
        return DirectState(user_attrs, state.group_attrs, state.user_groups)
    if req.kind == Relation.ADD_UG or req.kind == Relation.DELETE_UG:
        vals = set(state.group_values(req.group, req.att))
        (vals.add if req.kind == Relation.ADD_UG else vals.discard)(req.val)
        group_attrs = {g: dict(attrs) for g, attrs in state.group_attrs.items()}
        group_attrs.setdefault(req.group, {})[req.att] = frozenset(vals)
        return DirectState(state.user_attrs, group_attrs, state.user_groups)
    membership = set(state.user_groups)
    (membership.add if req.kind == Relation.ASSIGN else membership.discard)(req.group)
    return DirectState(state.user_attrs, state.group_attrs, frozenset(membership))


def reference_replay(inst, plan, q):
    """``validate_plan`` as a fold of ``authorized_rules`` and ``reference_apply``."""
    state = inst.initial_state
    for i, req in enumerate(plan):
        if not authorized_rules(state, inst.hierarchy, inst.rules, req):
            matched = inst.rules.matching(req)
            return InvalidAt(i, "precondition failed" if matched else "no matching rule")
        state = reference_apply(state, req)
    return (Valid if eval_query(state, inst.hierarchy, q) else QueryUnsatisfied)(state)


def every_request(inst):
    """Each request over the instance's roles, values and groups, whether a
    rule matches it or not."""
    pairs = [(att, val) for att in inst.attributes for val in sorted(inst.scopes[att])]
    groups = sorted(inst.groups)
    out = []
    for kind in Relation:
        for role in sorted(inst.roles):
            if kind.is_membership:
                out += [Request(kind, role, group=g) for g in groups]
            elif kind.is_group_subject:
                out += [Request(kind, role, att, val, g) for g in groups for att, val in pairs]
            else:
                out += [Request(kind, role, att, val) for att, val in pairs]
    return out


@pytest.mark.parametrize("cls", CLASSES)
def test_replay_matches_frozen_copy_reference(cls):
    replayed, verdicts = set(), set()
    for seed in range(300):
        inst, q = generate(cls, seed)
        h, rules = inst.hierarchy, inst.rules
        requests = every_request(inst)
        rng = random.Random(seed)
        # mostly authorized requests, and sometimes any request, which ends the replay
        state, plan = inst.initial_state, []
        for _ in range(rng.randint(0, 16)):
            allowed = [req for req in requests if authorized_rules(state, h, rules, req)]
            req = rng.choice(allowed if allowed and rng.random() < 0.8 else requests)
            plan.append(req)
            before = canonical_key(state)
            out = apply_request(state, req)
            assert type(out) is DirectState and out is not state
            assert out == reference_apply(state, req)
            assert canonical_key(state) == before
            if req not in allowed:
                break
            replayed.add(req.kind)
            state = out
        for query in (q, q.relaxed_copy()):
            verdict = validate_plan(inst, Plan(tuple(plan)), query)
            assert verdict == reference_replay(inst, Plan(tuple(plan)), query), (cls, seed)
            verdicts.add(getattr(verdict, "reason", type(verdict).__name__))
    assert verdicts == {"Valid", "QueryUnsatisfied", "precondition failed", "no matching rule"}
    assert replayed == (set(Relation) if cls == "any"
                        else {Relation.ADD_U, Relation.ADD_UG, Relation.ASSIGN})
