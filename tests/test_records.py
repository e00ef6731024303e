"""The value-type contract of every record class in the package.

Each row builds one instance with today's positional and keyword defaults and
pins its ``repr`` and its fields.  Every record is frozen and compares all of
its fields: equality is type-sensitive and compares them as a tuple, and
``hash`` is the hash of that tuple, so set and dict orders under a fixed
``PYTHONHASHSEED`` do not depend on how the classes are written.
"""

import subprocess
import sys
import textwrap

import pytest

from gurag_reach.dsl import Diagnostic, ParseResult
from gurag_reach.encoding import Candidate, CompiledInstance, QueryEntry
from gurag_reach.fuzz import CaseResult
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance
from gurag_reach.planner import PlanResult
from gurag_reach.policy import (
    And,
    DirectGroup,
    DirectVal,
    EffGroup,
    EffVal,
    Level,
    Not,
    Precondition,
    Relation,
    RestrictionFlags,
    Rule,
    RuleSet,
    TrueCond,
)
from gurag_reach.search import Analysis, BoundExceeded, Reachable, SearchBounds, Unreachable
from gurag_reach.transition import (
    InvalidAt,
    Plan,
    QueryType,
    QueryUnsatisfied,
    ReachabilityQuery,
    Request,
    Valid,
)

from conftest import GOLDEN, child_env

REQ = Request(Relation.ADD_U, "r", att="a", val="v")
REQ_REPR = "Request(kind=<Relation.ADD_U: 'canAddU'>, role='r', att='a', val='v', group=None)"
RULE = Rule(Relation.ADD_U, "r", TrueCond(), "a", "v")
RULE_REPR = ("Rule(relation=<Relation.ADD_U: 'canAddU'>, role='r', pre=TrueCond(), "
             "target_attr='a', target_val='v', target_group=None, rule_id=0)")
STATE_REPR = "DirectState(user_attrs={}, group_attrs={}, user_groups=frozenset())"
EMPTY_H_REPR = "GroupHierarchy(groups=frozenset(), direct_seniority=frozenset())"
RULE_FIELDS = ("relation", "role", "pre", "target_attr", "target_val", "target_group", "rule_id")

# (class, positional args, keyword args, fields in repr order, expected repr)
RECORDS = [
    (Precondition, (), {}, (), "Precondition()"),
    (TrueCond, (), {}, (), "TrueCond()"),
    (Not, (DirectVal("a", "v"),), {}, ("child",), "Not(child=DirectVal(att='a', val='v'))"),
    (And, ((DirectVal("a", "v"), EffGroup("G")),), {}, ("parts",),
     "And(parts=(DirectVal(att='a', val='v'), EffGroup(group='G')))"),
    (DirectVal, ("a", "v"), {}, ("att", "val"), "DirectVal(att='a', val='v')"),
    (EffVal, (), {"att": "a", "val": "v"}, ("att", "val"), "EffVal(att='a', val='v')"),
    (DirectGroup, ("G",), {}, ("group",), "DirectGroup(group='G')"),
    (EffGroup, (), {"group": "G"}, ("group",), "EffGroup(group='G')"),
    (Rule, (Relation.ADD_U, "r", TrueCond(), "a", "v"), {}, RULE_FIELDS, RULE_REPR),
    (Rule, (Relation.ASSIGN, "r", EffGroup("H")), {"target_group": "G", "rule_id": 0}, RULE_FIELDS,
     "Rule(relation=<Relation.ASSIGN: 'canAssign'>, role='r', pre=EffGroup(group='H'), "
     "target_attr=None, target_val=None, target_group='G', rule_id=0)"),
    (RuleSet, (), {}, ("rules",), "RuleSet(rules=())"),
    (RuleSet, ([RULE],), {}, ("rules",), f"RuleSet(rules=({RULE_REPR},))"),
    (RestrictionFlags, (True, False), {"single_rule_direct": True, "level": Level.G0},
     ("no_negation", "no_deletion", "single_rule_direct", "level"),
     "RestrictionFlags(no_negation=True, no_deletion=False, single_rule_direct=True, "
     "level=<Level.G0: 'G0'>)"),
    (Request, (Relation.ADD_U, "r"), {"att": "a", "val": "v"},
     ("kind", "role", "att", "val", "group"), REQ_REPR),
    (Request, (Relation.ADD_UG, "r", "a", "v", "G"), {}, ("kind", "role", "att", "val", "group"),
     "Request(kind=<Relation.ADD_UG: 'canAddUG'>, role='r', att='a', val='v', group='G')"),
    (Plan, (), {}, ("requests",), "Plan(requests=())"),
    (Plan, ([REQ],), {}, ("requests",), f"Plan(requests=({REQ_REPR},))"),
    (ReachabilityQuery, ({"b": {"w"}, "a": ["v"]},), {}, ("entries", "query_type"),
     "ReachabilityQuery(entries={'a': frozenset({'v'}), 'b': frozenset({'w'})}, "
     "query_type=<QueryType.STRICT: 'strict'>)"),
    (ReachabilityQuery, ({},), {"query_type": QueryType.RELAXED}, ("entries", "query_type"),
     "ReachabilityQuery(entries={}, query_type=<QueryType.RELAXED: 'relaxed'>)"),
    (Valid, (DirectState(),), {}, ("final_state",), f"Valid(final_state={STATE_REPR})"),
    (InvalidAt, (0,), {"reason": "no matching rule"}, ("index", "reason"),
     "InvalidAt(index=0, reason='no matching rule')"),
    (QueryUnsatisfied, (DirectState(),), {}, ("final_state",),
     f"QueryUnsatisfied(final_state={STATE_REPR})"),
    (SearchBounds, (), {}, ("max_depth", "max_states", "max_millis"),
     "SearchBounds(max_depth=32, max_states=1048576, max_millis=30000)"),
    (SearchBounds, (4,), {"max_millis": 9}, ("max_depth", "max_states", "max_millis"),
     "SearchBounds(max_depth=4, max_states=1048576, max_millis=9)"),
    (Reachable, (Plan(),), {"states_explored": 3}, ("plan", "states_explored"),
     "Reachable(plan=Plan(requests=()), states_explored=3)"),
    (Unreachable, (5,), {}, ("states_explored",), "Unreachable(states_explored=5)"),
    (BoundExceeded, ("states", 7), {}, ("bound", "states_explored"),
     "BoundExceeded(bound='states', states_explored=7)"),
    (Analysis, ("bfs", "reachable"), {"states_explored": 2},
     ("engine", "outcome", "plan", "reason", "notes", "states_explored", "bound"),
     "Analysis(engine='bfs', outcome='reachable', plan=None, reason=None, notes=(), "
     "states_explored=2, bound=None)"),
    (GroupHierarchy, (frozenset(),), {}, ("groups", "direct_seniority"), EMPTY_H_REPR),
    (GroupHierarchy, ({"G", "H"},), {"direct_seniority": [("G", "H")]},
     ("groups", "direct_seniority"), None),
    (DirectState, (), {}, ("user_attrs", "group_attrs", "user_groups"), STATE_REPR),
    (DirectState, ({"b": {"w"}, "a": {"v"}, "c": set()},), {"user_groups": ["G"]},
     ("user_attrs", "group_attrs", "user_groups"),
     "DirectState(user_attrs={'a': frozenset({'v'}), 'b': frozenset({'w'})}, group_attrs={}, "
     "user_groups=frozenset({'G'}))"),
    (ProblemInstance, ({"a": ["v"]}, GroupHierarchy(frozenset())),
     {"roles": ["r"], "rules": RuleSet(), "initial_state": DirectState()},
     ("scopes", "hierarchy", "roles", "rules", "initial_state"),
     f"ProblemInstance(scopes={{'a': frozenset({{'v'}})}}, hierarchy={EMPTY_H_REPR}, "
     f"roles=frozenset({{'r'}}), rules=RuleSet(rules=()), initial_state={STATE_REPR})"),
    (Candidate, (3, True, -1, ((0, 0),), 0), {"request": REQ},
     ("bit", "add", "subject", "guard", "rule_id", "request"),
     f"Candidate(bit=3, add=True, subject=-1, guard=((0, 0),), rule_id=0, request={REQ_REPR})"),
    (QueryEntry, (12,), {"target": 4}, ("mask", "target"), "QueryEntry(mask=12, target=4)"),
    (Diagnostic, ("error", 1, 2), {"message": "m", "code": "c"},
     ("severity", "line", "column", "message", "code"),
     "Diagnostic(severity='error', line=1, column=2, message='m', code='c')"),
    (PlanResult, (), {}, ("plan", "reason", "notes"),
     "PlanResult(plan=None, reason=None, notes=())"),
    (PlanResult, (Plan(),), {"notes": ("n",)}, ("plan", "reason", "notes"),
     "PlanResult(plan=Plan(requests=()), reason=None, notes=('n',))"),
    (ParseResult, (None, []), {"plans": [], "diagnostics": []},
     ("instance", "queries", "plans", "diagnostics"),
     "ParseResult(instance=None, queries=[], plans=[], diagnostics=[])"),
    (CompiledInstance, (ProblemInstance({"a": ["v"]}, GroupHierarchy({"G"}), [], RuleSet(),
                                        DirectState()),), {},
     ("groups", "slot", "att_spans", "n_slots", "n_groups", "nbits", "mem_offset", "seg_offsets",
      "closure_idx", "candidates"),
     "CompiledInstance(groups=('G',), slot={('a', 'v'): 0}, att_spans={'a': (0, 0)}, n_slots=1, "
     "n_groups=1, nbits=3, mem_offset=2, seg_offsets=(1,), closure_idx=((0,),), candidates=())"),
    (CaseResult, ("any", 0, "agree"), {}, ("cls", "seed", "status", "detail"),
     "CaseResult(cls='any', seed=0, status='agree', detail='')"),
]

IDS = [f"{row[0].__name__}-{i}" for i, row in enumerate(RECORDS)]

# the classes built from another value rather than from their fields
BUILT = {CompiledInstance}


def test_every_record_class_has_a_row():
    assert len({row[0] for row in RECORDS}) == 32


@pytest.mark.parametrize("cls, args, kwargs, fields, text", RECORDS, ids=IDS)
def test_construction_and_repr(cls, args, kwargs, fields, text):
    x = cls(*args, **kwargs)
    if text is not None:
        assert repr(x) == text
    if cls in BUILT:  # the same source builds an equal record
        y = cls(*args, **kwargs)
        assert repr(y) == repr(x) and y == x
        return
    values = [getattr(x, name) for name in fields]
    # every field positionally, then every field by keyword, rebuilds an equal record
    assert repr(cls(*values)) == repr(x) and cls(*values) == x
    assert repr(cls(**dict(zip(fields, values)))) == repr(x)


@pytest.mark.parametrize("cls, args, kwargs, fields, text", RECORDS, ids=IDS)
def test_equality_is_type_sensitive_over_the_compared_fields(cls, args, kwargs, fields, text):
    x, y = cls(*args, **kwargs), cls(*args, **kwargs)
    assert x == y and not x != y
    assert x.__eq__(object()) is NotImplemented
    assert x.__eq__(tuple(getattr(x, name) for name in fields)) is NotImplemented
    assert x != object()


def test_equality_never_crosses_classes():
    s = DirectState()
    assert DirectVal("a", "v") != EffVal("a", "v")
    assert DirectGroup("G") != EffGroup("G")
    assert Valid(s) != QueryUnsatisfied(s)
    assert TrueCond() != Precondition()
    assert Reachable(Plan(), 1) != Unreachable(1)


@pytest.mark.parametrize("cls, args, kwargs, fields, text", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_compared_fields(cls, args, kwargs, fields, text):
    x = cls(*args, **kwargs)
    if cls is DirectState:
        # its mappings, sorted by key on construction, hash as item tuples
        assert hash(x) == hash((tuple(x.user_attrs.items()),
                                tuple((g, tuple(a.items())) for g, a in x.group_attrs.items()),
                                x.user_groups))
        return
    key = tuple(getattr(x, name) for name in fields)
    try:
        expected = hash(key)
    except TypeError:  # a dict- or list-valued field: unhashable, as the tuple is
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


@pytest.mark.parametrize("cls, args, kwargs, fields, text", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, args, kwargs, fields, text):
    x = cls(*args, **kwargs)
    name = fields[0] if fields else "anything"
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)


def test_plan_result_constructors():
    assert PlanResult.found(Plan([REQ]), ("n",)) == PlanResult(Plan([REQ]), None, ("n",))
    assert PlanResult.failed("missing-rule") == PlanResult(reason="missing-rule")
    assert PlanResult.found(Plan()).reachable and not PlanResult.failed("x").reachable


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # compare before and after, so a module the interpreter's start-up
    # already loaded (a site .pth, say) cannot fail the test; importing the
    # CLI freezes nothing, only its process entry does
    code = ("import gc, sys; before = set(sys.modules); import gurag_reach.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)), "
            "gc.get_freeze_count())")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] 0"


def test_plain_cli_run_loads_neither_argparse_nor_fuzz():
    # a plain ``solve FILE`` never builds the argument parser, whose message
    # lookups import gettext and locale, and only the fuzz command needs fuzz
    code = textwrap.dedent("""
        import contextlib, io, sys
        before = set(sys.modules)
        import gurag_reach.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = gurag_reach.cli.main(["solve", sys.argv[1]])
        parser = {"argparse", "gettext", "locale", "gurag_reach.fuzz"}
        print(code, sorted(parser & (set(sys.modules) - before)))
    """)
    out = subprocess.run([sys.executable, "-c", code, str(GOLDEN / "chain.gurag")],
                         env=child_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
