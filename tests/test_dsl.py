import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gurag_reach import dsl
from gurag_reach.dsl import (
    MAX_NESTING,
    Diagnostic,
    _lex,
    _texts,
    parse,
    render_precondition,
    serialize,
)
from gurag_reach.fuzz import CLASSES, generate
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance, validate_instance
from gurag_reach.policy import (
    DirectGroup,
    DirectVal,
    EffGroup,
    EffVal,
    Not,
    RuleSet,
    TrueCond,
    conjunction,
)

from conftest import GOLDEN, MALFORMED, nested_document, one_rule_document
from test_search import bench_kernel


class TestGoldenRoundTrip:
    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.gurag")),
                             ids=lambda p: p.name)
    def test_parse_serialize_identity(self, path):
        text = path.read_text()
        result = parse(text)
        assert result.ok, [d.render() for d in result.diagnostics]
        assert serialize(result.instance, result.queries, result.plans) == text

    def test_golden_corpus_nonempty(self):
        assert len(list(GOLDEN.glob("*.gurag"))) >= 5


class TestMalformedCorpus:
    paths = sorted(MALFORMED.glob("*.gurag"))

    def test_corpus_has_fifty_files(self):
        assert len(self.paths) == 50

    @pytest.mark.parametrize("path", paths, ids=lambda p: p.name)
    def test_positioned_diagnostics_no_abort(self, path):
        result = parse(path.read_text())  # must not raise
        errors = [d for d in result.diagnostics if d.severity == "error"]
        assert errors, "malformed file produced no error diagnostic"
        for d in errors:
            assert d.line >= 1 and d.column >= 1
            assert d.code and d.message

    def test_recovery_continues_past_first_error(self):
        # two independent errors on separate lines: both must be reported
        result = parse("attr a scope { $ }\nattr b scope { $$ }\n")
        lines = {d.line for d in result.diagnostics if d.severity == "error"}
        assert {1, 2} <= lines


class TestParserDetails:
    def test_comments_and_blank_lines_ignored(self):
        result = parse("# leading comment\n\nattr a scope { x }  # trailing\nrole r\n")
        assert result.ok
        assert result.instance.scopes == {"a": frozenset({"x"})}

    def test_numeric_looking_tokens_are_identifiers(self):
        result = parse("attr roomAcc scope { 1.02, 2.01 }\nrole r\n")
        assert result.ok
        assert result.instance.scopes["roomAcc"] == {"1.02", "2.01"}

    def test_nary_and_is_flat(self):
        text = ("attr a scope { x, y, z }\nrole r\n"
                "rules {\n  rule canAddU a : r , x in direct(a) and "
                "y in direct(a) and z in effective(a) -> x\n}\n")
        result = parse(text)
        assert result.ok
        pre = result.instance.rules.rules[0].pre
        assert pre.parts == (DirectVal("a", "x"), DirectVal("a", "y"), EffVal("a", "z"))

    def test_not_and_parentheses(self):
        text = ("attr a scope { x }\nrole r\n"
                "rules {\n  rule canAddU a : r , not(x in direct(a)) -> x\n}\n")
        result = parse(text)
        assert result.ok
        assert result.instance.rules.rules[0].pre == Not(DirectVal("a", "x"))

    def test_parenthesized_conjunction_splices_into_the_flat_tree(self):
        head = "attr a scope { x, y, z }\nrole r\nrules {\n  rule canAddU a : r , "
        nested = parse(head + "(x in direct(a) and y in direct(a)) and "
                              "not(z in direct(a)) -> x\n}\n")
        flat = parse(head + "x in direct(a) and y in direct(a) and not(z in direct(a)) -> x\n}\n")
        assert nested.ok and flat.ok
        assert nested.instance.rules.rules[0].pre == conjunction(
            [DirectVal("a", "x"), DirectVal("a", "y"), Not(DirectVal("a", "z"))])
        assert nested.instance == flat.instance
        text = serialize(nested.instance, nested.queries, nested.plans)
        assert parse(text).instance == nested.instance
        assert text == serialize(flat.instance, flat.queries, flat.plans)

    def test_membership_literals_in_assign(self):
        text = ("attr a scope { x }\ngroup G1\ngroup G2\nrole r\n"
                "rules {\n  rule canAssign : r , G1 in directUg and "
                "not(G2 in effUg) -> G2\n}\n")
        result = parse(text)
        assert result.ok
        pre = result.instance.rules.rules[0].pre
        assert pre == conjunction([DirectGroup("G1"), Not(EffGroup("G2"))])

    def test_multiple_queries_and_plans(self):
        text = ("attr a scope { x }\nrole r\n"
                "query strict { e_a(u) = { x } }\n"
                "query relaxed { e_a(u) = { } }\n"
                "plan { addU(r, a, x) }\nplan { }\n")
        result = parse(text)
        assert result.ok
        assert len(result.queries) == 2 and len(result.plans) == 2
        assert result.queries[0].strict and not result.queries[1].strict
        assert len(result.plans[0]) == 1 and len(result.plans[1]) == 0

    def test_diagnostic_position_is_exact(self):
        result = parse("attr a scope { x }\nrole r\nuser { a = { zz } }\n")
        (d,) = [d for d in result.diagnostics if d.severity == "error"]
        assert (d.line, d.column) == (3, 14)
        assert d.code == "scope-violation"


class TestNestingLimit:
    TOO_DEEP = (f"error: precondition nested more than {MAX_NESTING} parentheses deep "
                "[parse-too-deep]")

    @pytest.mark.parametrize("opener", ["(", "not("])
    def test_limit_parses_and_one_more_is_an_error(self, opener):
        result = parse(nested_document(opener, MAX_NESTING))
        assert result.ok, [d.render() for d in result.diagnostics]
        text = serialize(result.instance, result.queries, result.plans)
        assert parse(text).instance == result.instance
        # reported at the parenthesis that opens one level too many
        column = len("  rule canAddU a : r , ") + len(opener) * (MAX_NESTING + 1)
        result = parse(nested_document(opener, MAX_NESTING + 1))
        assert [d.render() for d in result.diagnostics] == [f"5:{column}: {self.TOO_DEEP}"]

    def test_openers_count_together(self):
        assert parse(nested_document("not((", MAX_NESTING // 2)).ok
        result = parse(nested_document("not((", MAX_NESTING // 2 + 1))
        assert [d.code for d in result.diagnostics] == ["parse-too-deep"]

    def test_depth_does_not_carry_past_an_error(self):
        deep = nested_document("(", MAX_NESTING + 1)
        text = deep + nested_document("(", MAX_NESTING).split("\n", 3)[3]
        result = parse(text)
        assert [(d.line, d.code) for d in result.diagnostics] == [(5, "parse-too-deep")]


class TestNamesTheFormatWrites:
    def test_true_and_not_name_values_and_groups(self):
        # either word is a keyword only where no ``in`` follows it
        text = ("attr a scope { not, true }\ngroup not\ngroup true\nsenior true > not\n"
                "role r\nuser { a = { true }  groups = { not } }\nrules {\n"
                "  rule canAddU a : r , true in direct(a) and not(not in effective(a)) "
                "and true -> not\n"
                "  rule canAssign : r , not in directUg and not(true in effUg) -> true\n"
                "}\nquery strict { e_a(u) = { not, true } }\n"
                "plan { addU(r, a, not); assign(r, true) }\n")
        result = parse(text)
        assert result.ok, [d.render() for d in result.diagnostics]
        rules = result.instance.rules.rules
        assert rules[0].pre == conjunction([DirectVal("a", "true"), Not(EffVal("a", "not")),
                                            TrueCond()])
        assert rules[1].pre == conjunction([DirectGroup("not"), Not(EffGroup("true"))])
        assert serialize(result.instance, result.queries, result.plans) == text

    def test_attribute_named_groups_is_reserved(self):
        # the user block lists memberships under that key, so it cannot also
        # list the attribute's values
        reserved = "attribute name 'groups' is reserved for the user's groups"
        result = parse("attr groups scope { x }\nrole r\nuser { groups = { x } }\n")
        assert [d.render() for d in result.diagnostics] == [
            f"1:6: error: {reserved} [reserved-attr]",
            "3:19: error: unknown group 'x' [unknown-group]"]
        instance = ProblemInstance(
            scopes={"groups": frozenset({"x"})}, hierarchy=GroupHierarchy(frozenset()),
            roles=frozenset({"r"}), rules=RuleSet(),
            initial_state=DirectState({"groups": {"x"}}))
        assert validate_instance(instance) == [reserved]


DECLARED = "attr a scope { x }\ngroup G\nrole r\n"


class TestResolutionDiagnostics:
    """Exact diagnostics of the resolution checks that the malformed corpus
    does not reach; each is reported and the parse goes on."""

    @pytest.mark.parametrize("line, expected", [
        ("plan { addU(q, a, x) }", ["4:13: error: unknown role 'q' [unknown-role]"]),
        ("plan { assign(r, H) }", ["4:18: error: unknown group 'H' [unknown-group]"]),
        ("plan { addUG(r, H, a, x) }", ["4:17: error: unknown group 'H' [unknown-group]"]),
        ("plan { deleteU(r, b, x) }", ["4:19: error: unknown attribute 'b' [unknown-attr]"]),
        ("plan { addU(r, a, y) }",
         ["4:19: error: value 'y' outside scope of 'a' [scope-violation]"]),
        ("plan { addUG(q, H, b, y); deleteUG(r, G, a, y) }",
         ["4:14: error: unknown role 'q' [unknown-role]",
          "4:17: error: unknown group 'H' [unknown-group]",
          "4:20: error: unknown attribute 'b' [unknown-attr]",
          "4:45: error: value 'y' outside scope of 'a' [scope-violation]"]),
        ("user { groups = { G }  groups = { } }",
         ["4:24: error: duplicate 'groups' entry [dup-entry]"]),
        ("query strict { e_a(u) = { x }, e_a(u) = { } }",
         ["4:32: error: duplicate query entry for 'a' [dup-entry]"]),
    ], ids=["request-role", "assign-group", "addUG-group", "request-attr",
            "request-scope", "request-argument-order", "dup-groups", "dup-query-entry"])
    def test_rendered_diagnostics(self, line, expected):
        result = parse(DECLARED + line + "\n")
        assert [d.render() for d in result.diagnostics] == expected
        assert result.instance is None
        # the plan or query is kept after its diagnostics
        assert len(result.plans) + len(result.queries) == (0 if line.startswith("user") else 1)


RULES_HEAD = "attr a scope { x, y }\ngroup G\nrole r\nrules {\n"


class TestRuleAndLiteralDiagnostics:
    """A rule head and a value literal are read at fixed offsets; where a token
    does not match, the diagnostics, the error that stops the rule and the
    recovery after it come out as a step-by-step read gives them, in order,
    at the same tokens."""

    @pytest.mark.parametrize("rule, expected", [
        ('rule canAddU a : r , x in direct(a -> y',
         ["5:36: error: expected ')', found '->' [parse-expected]"]),
        ('rule canAddU a : r , x in direct a) -> y',
         ["5:34: error: expected '(', found 'a' [parse-expected]"]),
        ('rule canAddU a : r , x in direct(b) -> y',
         ["5:34: error: unknown attribute 'b' [unknown-attr]"]),
        ('rule canAddU a : r , z in effective(a) -> y',
         ["5:22: error: value 'z' outside scope of 'a' [scope-violation]"]),
        ('rule canAddU a : r , x in direct(,) -> y',
         ["5:34: error: expected an attribute name, found ',' [parse-expected]"]),
        ('rule canAddU a : r , x in direct(a)) -> y',
         ["5:36: error: expected '->', found ')' [parse-expected]"]),
        ('rule canAddU a : r , x in foo -> y',
         ["5:27: error: expected a membership kind, found 'foo' [parse-precondition]"]),
        ('rule canAddU a : r , x in -> y',
         ["5:27: error: expected 'direct', 'effective', 'directUg' or 'effUg', found '->' "
          "[parse-expected]"]),
        ('rule canAddU a : r , x in directUg -> y',
         ["5:22: error: unknown group 'x' [unknown-group]",
          "5:6: error: group membership literal outside an assign/remove rule "
          "[group-literal-misplaced]"]),
        ('rule canAddU a : r , H in effUg and x in direct(a) -> y',
         ["5:22: error: unknown group 'H' [unknown-group]",
          "5:6: error: group membership literal outside an assign/remove rule "
          "[group-literal-misplaced]"]),
        ('rule canAddU a r , true -> y',
         ["5:16: error: expected ':', found 'r' [parse-expected]"]),
        ('rule canAddU b : q , true -> z',
         ["5:14: error: unknown attribute 'b' [unknown-attr]",
          "5:18: error: unknown role 'q' [unknown-role]"]),
        ('rule canAddU a : q ; true -> y',
         ["5:18: error: unknown role 'q' [unknown-role]",
          "5:20: error: expected ',', found ';' [parse-expected]"]),
        ('rule canAddU a : r , true -> z',
         ["5:30: error: value 'z' outside scope of 'a' [scope-violation]"]),
        ('rule canAddU a : r , true -> ,',
         ["5:30: error: expected a target value or group, found ',' [parse-expected]"]),
        ('rule canAddU a : r , true y',
         ["5:27: error: expected '->', found 'y' [parse-expected]"]),
        ('rule canAssign : r , true -> H', ["5:30: error: unknown group 'H' [unknown-group]"]),
        ('rule canAssign a : r , true -> G',
         ["5:16: error: expected ':', found 'a' [parse-expected]"]),
        ('rule canAssign : r , H in directUg -> G',
         ["5:22: error: unknown group 'H' [unknown-group]"]),
        ('rule canFoo a : r , true -> y',
         ["5:6: error: unknown relation 'canFoo' [unknown-relation]"]),
        ('rule , a', ["5:6: error: expected a relation name, found ',' [parse-expected]"]),
        ('rule canAddU a : r , not(x in direct(a)) -> zz',
         ["5:45: error: value 'zz' outside scope of 'a' [scope-violation]"]),
        ('rule canAddU a : r , x in direct(a',
         ["6:1: error: expected ')', found '}' [parse-expected]"]),
        ('rule canAddU a : r , x in direct(',
         ["6:1: error: expected an attribute name, found '}' [parse-expected]"]),
        ('rule canAddU a : r , x in',
         ["6:1: error: expected 'direct', 'effective', 'directUg' or 'effUg', found '}' "
          "[parse-expected]"]),
        ('rule canAddU a : r', ["6:1: error: expected ',', found '}' [parse-expected]"]),
        ('rule canAddU', ["6:1: error: expected an attribute name, found '}' [parse-expected]"]),
        # recovery starts at the reported token, past a declaration that
        # begins a line before it
        ('rule canAddU\nrole r , true -> y',
         ["6:1: error: unknown attribute 'role' [unknown-attr]",
          "6:6: error: expected ':', found 'r' [parse-expected]"]),
        ('rule canAddU a : r , x in direct(\nrole r',
         ["6:6: error: expected ')', found 'r' [parse-expected]"]),
        ('rule canAddU a : r ,\nrole in -> y',
         ["6:9: error: expected 'direct', 'effective', 'directUg' or 'effUg', found '->' "
          "[parse-expected]"]),
    ], ids=repr)
    def test_rendered_diagnostics(self, rule, expected):
        result = parse(RULES_HEAD + rule + "\n}\n")
        assert [d.render() for d in result.diagnostics] == expected
        assert result.instance is None

    def test_every_prefix_parses(self):
        source = RULES_HEAD + (
            "rule canAddU a : r , x in direct(a) and not(y in effective(a)) -> y\n"
            "rule canAssign : r , G in directUg and G in effUg -> G\n}\n")
        assert parse(source).ok
        for end in range(len(source)):
            parse(source[:end])  # must not raise


SETS_HEAD = "attr a scope { x, y, z }\ngroup G\nrole r\n"
# the text on line 4 before the value set, and after it
SET_PLACES = {
    "attr": ("attr b scope ", ""),
    "user": ("user { a = ", " }"),
    "user-groups": ("user { groups = ", " }"),
    "groupstate": ("groupstate G { a = ", " }"),
    "query": ("query strict { e_a(u) = ", " }"),
}
# the sets; the last three leave the set, and the block around it, open
SETS = {
    "empty": "{ }",
    "trailing-comma": "{ x, }",
    "doubled-comma": "{ x,, y }",
    "missing-comma": "{ x y }",
    "equals": "{ x, = }",
    "arrow": "{ x -> y }",
    "nested": "{ x, { y } }",
    "duplicate": "{ x, y, x }",
    "outside-scope": "{ w, x, v }",
    "unterminated-at-eof": "{ x, y",
    "unterminated-before-declaration": "{ x, y\nrole q",
    "comma-before-declaration": "{ x,\nrole q",
    # recovery from the reported ``r`` skips the ``role`` line
    "declaration-word-as-value": "{ x,\nrole r }",
}
# sets of seven or eight values whose error comes after the fourth, in the
# tail that the slice check refuses or where no ``}`` follows (the attribute
# line holds an earlier one)
LONG_SET = "{ v1, v2, v3, v4, v5, v6, "
SETS.update({
    "long-missing-comma": LONG_SET + "v7 v8 }",
    "long-trailing-comma": LONG_SET + "v7, }",
    "long-arrow-between": LONG_SET + "v7 -> v8 }",
    "long-doubled-comma": LONG_SET + ", v7 }",
    "long-equals": LONG_SET + "=, v7 }",
    "long-arrow": LONG_SET + "->, v7 }",
    "long-brace": LONG_SET + "{, v7 }",
    "long-unterminated-at-eof": LONG_SET + "v7",
    "long-unterminated-before-declaration": LONG_SET + "v7\nrole r",
    "long-declaration-word-as-value": LONG_SET + "\nrole r }",
})
OPEN_SETS = ("unterminated-at-eof", "unterminated-before-declaration",
             "comma-before-declaration", "long-unterminated-at-eof",
             "long-unterminated-before-declaration")
EXPECTED_AT_EOF = "5:1: error: expected '}' or ',', found 'end of file' [parse-expected]"
EXPECTED_ROLE = "5:1: error: expected '}' or ',', found 'role' [parse-expected]"
EXPECTED_Q = "5:6: error: expected '}' or ',', found 'q' [parse-expected]"
# recovery starts at the ``role`` line, which redeclares ``r``
EXPECTED_ROLE_R = [EXPECTED_ROLE, "5:6: error: duplicate role 'r' [dup-role]"]
EXPECTED_R = ["5:6: error: expected '}' or ',', found 'r' [parse-expected]"]


def long_set_diagnostics(place, column):
    """The diagnostics of each long set in ``place``, where its seventh value
    is at ``column`` of line 4."""
    def expected(offset, what, found):
        return [f"4:{column + offset}: error: expected {what}, found {found!r} "
                "[parse-expected]"]
    return [
        (place, "long-missing-comma", expected(3, "'}' or ','", "v8")),
        (place, "long-trailing-comma", expected(4, "a value", "}")),
        (place, "long-arrow-between", expected(3, "'}' or ','", "->")),
        (place, "long-doubled-comma", expected(0, "a value", ",")),
        (place, "long-equals", expected(0, "a value", "=")),
        (place, "long-arrow", expected(0, "a value", "->")),
        (place, "long-brace", expected(0, "a value", "{")),
        (place, "long-unterminated-at-eof", [EXPECTED_AT_EOF]),
        (place, "long-unterminated-before-declaration", EXPECTED_ROLE_R),
        (place, "long-declaration-word-as-value", EXPECTED_R),
    ]


# the diagnostics of each set in each place, as a token-by-token read gives them
VALUE_SET_DIAGNOSTICS = [
    ("attr", "empty", ["4:14: error: attribute 'b' has an empty scope [empty-scope]"]),
    ("attr", "trailing-comma", ["4:19: error: expected a value, found '}' [parse-expected]"]),
    ("attr", "doubled-comma", ["4:18: error: expected a value, found ',' [parse-expected]"]),
    ("attr", "missing-comma",
     ["4:18: error: expected '}' or ',', found 'y' [parse-expected]"]),
    ("attr", "equals", ["4:19: error: expected a value, found '=' [parse-expected]"]),
    ("attr", "arrow", ["4:18: error: expected '}' or ',', found '->' [parse-expected]"]),
    ("attr", "nested", ["4:19: error: expected a value, found '{' [parse-expected]"]),
    ("attr", "duplicate", ["4:22: error: duplicate scope value 'x' [dup-value]"]),
    ("attr", "outside-scope", []),
    ("attr", "unterminated-at-eof", [EXPECTED_AT_EOF]),
    ("attr", "unterminated-before-declaration", [EXPECTED_ROLE]),
    ("attr", "comma-before-declaration", [EXPECTED_Q]),
    ("user", "empty", []),
    ("user", "trailing-comma", ["4:17: error: expected a value, found '}' [parse-expected]"]),
    ("user", "doubled-comma", ["4:16: error: expected a value, found ',' [parse-expected]"]),
    ("user", "missing-comma",
     ["4:16: error: expected '}' or ',', found 'y' [parse-expected]"]),
    ("user", "equals", ["4:17: error: expected a value, found '=' [parse-expected]"]),
    ("user", "arrow", ["4:16: error: expected '}' or ',', found '->' [parse-expected]"]),
    ("user", "nested", ["4:17: error: expected a value, found '{' [parse-expected]"]),
    ("user", "duplicate", []),
    ("user", "outside-scope",
     ["4:14: error: value 'w' outside scope of 'a' [scope-violation]",
      "4:20: error: value 'v' outside scope of 'a' [scope-violation]"]),
    ("user", "unterminated-at-eof", [EXPECTED_AT_EOF]),
    ("user", "unterminated-before-declaration", [EXPECTED_ROLE]),
    ("user", "comma-before-declaration", [EXPECTED_Q]),
    ("user-groups", "empty", []),
    ("user-groups", "trailing-comma",
     ["4:22: error: expected a value, found '}' [parse-expected]"]),
    ("user-groups", "doubled-comma",
     ["4:21: error: expected a value, found ',' [parse-expected]"]),
    ("user-groups", "missing-comma",
     ["4:21: error: expected '}' or ',', found 'y' [parse-expected]"]),
    ("user-groups", "equals", ["4:22: error: expected a value, found '=' [parse-expected]"]),
    ("user-groups", "arrow",
     ["4:21: error: expected '}' or ',', found '->' [parse-expected]"]),
    ("user-groups", "nested", ["4:22: error: expected a value, found '{' [parse-expected]"]),
    ("user-groups", "duplicate",
     ["4:19: error: unknown group 'x' [unknown-group]",
      "4:22: error: unknown group 'y' [unknown-group]",
      "4:25: error: unknown group 'x' [unknown-group]"]),
    ("user-groups", "outside-scope",
     ["4:19: error: unknown group 'w' [unknown-group]",
      "4:22: error: unknown group 'x' [unknown-group]",
      "4:25: error: unknown group 'v' [unknown-group]"]),
    ("user-groups", "unterminated-at-eof", [EXPECTED_AT_EOF]),
    ("user-groups", "unterminated-before-declaration", [EXPECTED_ROLE]),
    ("user-groups", "comma-before-declaration", [EXPECTED_Q]),
    ("groupstate", "empty", []),
    ("groupstate", "trailing-comma",
     ["4:25: error: expected a value, found '}' [parse-expected]"]),
    ("groupstate", "doubled-comma",
     ["4:24: error: expected a value, found ',' [parse-expected]"]),
    ("groupstate", "missing-comma",
     ["4:24: error: expected '}' or ',', found 'y' [parse-expected]"]),
    ("groupstate", "equals", ["4:25: error: expected a value, found '=' [parse-expected]"]),
    ("groupstate", "arrow",
     ["4:24: error: expected '}' or ',', found '->' [parse-expected]"]),
    ("groupstate", "nested", ["4:25: error: expected a value, found '{' [parse-expected]"]),
    ("groupstate", "duplicate", []),
    ("groupstate", "outside-scope",
     ["4:22: error: value 'w' outside scope of 'a' [scope-violation]",
      "4:28: error: value 'v' outside scope of 'a' [scope-violation]"]),
    ("groupstate", "unterminated-at-eof", [EXPECTED_AT_EOF]),
    ("groupstate", "unterminated-before-declaration", [EXPECTED_ROLE]),
    ("groupstate", "comma-before-declaration", [EXPECTED_Q]),
    ("query", "empty", []),
    ("query", "trailing-comma", ["4:30: error: expected a value, found '}' [parse-expected]"]),
    ("query", "doubled-comma", ["4:29: error: expected a value, found ',' [parse-expected]"]),
    ("query", "missing-comma",
     ["4:29: error: expected '}' or ',', found 'y' [parse-expected]"]),
    ("query", "equals", ["4:30: error: expected a value, found '=' [parse-expected]"]),
    ("query", "arrow", ["4:29: error: expected '}' or ',', found '->' [parse-expected]"]),
    ("query", "nested", ["4:30: error: expected a value, found '{' [parse-expected]"]),
    ("query", "duplicate", []),
    ("query", "outside-scope",
     ["4:27: error: value 'w' outside scope of 'a' [scope-violation]",
      "4:33: error: value 'v' outside scope of 'a' [scope-violation]"]),
    ("query", "unterminated-at-eof", [EXPECTED_AT_EOF]),
    ("query", "unterminated-before-declaration", [EXPECTED_ROLE]),
    ("query", "comma-before-declaration", [EXPECTED_Q]),
    *[(place, "declaration-word-as-value", EXPECTED_R) for place in SET_PLACES],
    *long_set_diagnostics("attr", 40),
    *long_set_diagnostics("user", 38),
    *long_set_diagnostics("user-groups", 43),
    *long_set_diagnostics("groupstate", 46),
    *long_set_diagnostics("query", 51),
]


class TestValueSetDiagnostics:
    """A value set is compared in place, and the tail of a long one checked
    as one slice; the first token either read refuses is reported, with the
    diagnostics and the recovery after it of a step-by-step read."""

    @pytest.mark.parametrize("place, name, expected", VALUE_SET_DIAGNOSTICS,
                             ids=lambda x: x if isinstance(x, str) else None)
    def test_rendered_diagnostics(self, place, name, expected):
        before, after = SET_PLACES[place]
        text = SETS_HEAD + before + SETS[name] + ("" if name in OPEN_SETS else after) + "\n"
        result = parse(text)
        assert [d.render() for d in result.diagnostics] == expected
        assert (result.instance is None) == bool(expected)

    def test_every_set_is_covered(self):
        assert {(place, name) for place, name, _ in VALUE_SET_DIAGNOSTICS} == {
            (place, name) for place in SET_PLACES for name in SETS}


def shuffled(make, n):
    """``make(n)`` with its rules declared in a seeded order."""
    instance, q = make(n)
    rules = list(instance.rules)
    random.Random(f"{make.__name__}({n})").shuffle(rules)
    return ProblemInstance(instance.scopes, instance.hierarchy, instance.roles,
                           RuleSet.build(rules), instance.initial_state), q


def edited_chain(*edits):
    """``shuffled(chain, 512)``'s text with one or more edits near the end of
    a 512-value set: a duplicate scope value, an out-of-scope user value or
    an out-of-scope query value."""
    instance, q = shuffled(bench_kernel.chain, 512)
    lines = serialize(instance, [q]).split("\n")
    values = ", ".join(sorted(instance.scopes["a"]))
    assert lines[0] == f"attr a scope {{ {values} }}" and lines[2].startswith("user {")
    assert lines[-2] == f"query strict {{ e_a(u) = {{ {values} }} }}"
    if "duplicate" in edits:
        lines[0] = lines[0].replace(", v97,", ", v97, v97,")
    if "user" in edits:
        lines[2] = f"user {{ a = {{ {values.replace(', v97,', ', v97, zz,')} }}  groups = {{ }} }}"
    if "query" in edits:
        lines[-2] = lines[-2].replace(", v98,", ", v98, zz,")
    return "\n".join(lines)


class TestLargeDocuments:
    """Documents with 100 and 512 values in one set and as many rules, in a
    seeded order, as the benchmark's generators build them."""

    @pytest.mark.parametrize("n", [100, 512])
    @pytest.mark.parametrize("make", [bench_kernel.chain, bench_kernel.independent],
                             ids=lambda b: b.__name__)
    def test_round_trip(self, make, n):
        instance, q = shuffled(make, n)
        text = serialize(instance, [q])
        result = parse(text)
        assert result.ok, [d.render() for d in result.diagnostics]
        assert result.instance == instance and result.queries == [q]
        assert serialize(result.instance, result.queries, result.plans) == text

    @pytest.mark.parametrize("edits, expected", [
        (("duplicate",), ["1:2978: error: duplicate scope value 'v97' [dup-value]"]),
        (("user",), ["3:2976: error: value 'zz' outside scope of 'a' [scope-violation]"]),
        (("query",), ["518:2994: error: value 'zz' outside scope of 'a' [scope-violation]"]),
        (("duplicate", "user", "query"),
         ["1:2978: error: duplicate scope value 'v97' [dup-value]",
          "3:2976: error: value 'zz' outside scope of 'a' [scope-violation]",
          "518:2994: error: value 'zz' outside scope of 'a' [scope-violation]"]),
    ], ids=lambda x: "+".join(x) if isinstance(x, tuple) else None)
    def test_diagnostics_near_the_end_of_a_large_set(self, edits, expected):
        result = parse(edited_chain(*edits))
        assert [d.render() for d in result.diagnostics] == expected
        assert result.instance is None


def lexed(source):
    tokens, diags = _lex(source)
    return ([(t.text, t.line, t.column, t.first_on_line) for t in tokens],
            [(d.severity, d.line, d.column, d.message, d.code) for d in diags])


def unexpected(line, column, ch):
    return ("error", line, column, f"unexpected character {ch!r}", "lex-unexpected-char")


class TestLexerEdgeCases:
    """Exact tokens and diagnostics: the lexer's contract, pinned case by case."""

    def test_crlf_tabs_and_comment_with_punctuation(self):
        tokens, diags = lexed("attr a scope { x }\r\nrole\tr # c -> {\r\n")
        assert tokens == [
            ("attr", 1, 1, True), ("a", 1, 6, False),
            ("scope", 1, 8, False), ("{", 1, 14, False),
            ("x", 1, 16, False), ("}", 1, 18, False),
            ("role", 2, 1, True), ("r", 2, 6, False),
            ("", 3, 1, True),
        ]
        assert diags == []

    def test_arrow_together_and_apart(self):
        tokens, diags = lexed("x -> y - > z\n")
        assert tokens == [
            ("x", 1, 1, True), ("->", 1, 3, False),
            ("y", 1, 6, False), (">", 1, 10, False),
            ("z", 1, 12, False), ("", 2, 1, True),
        ]
        assert diags == [unexpected(1, 8, "-")]

    def test_lone_dash_at_end_of_line(self):
        tokens, diags = lexed("a -\nb\n")
        assert tokens == [("a", 1, 1, True), ("b", 2, 1, True), ("", 3, 1, True)]
        assert diags == [unexpected(1, 3, "-")]

    def test_unexpected_character_then_trailing_blanks(self):
        tokens, diags = lexed("a $  \t\r\nb\n")
        assert tokens == [("a", 1, 1, True), ("b", 2, 1, True), ("", 3, 1, True)]
        assert diags == [unexpected(1, 3, "$")]

    def test_columns_count_characters_not_bytes(self):
        tokens, diags = lexed("é x $\n")
        assert tokens == [("x", 1, 3, False), ("", 2, 1, True)]
        assert diags == [unexpected(1, 1, "é"), unexpected(1, 5, "$")]

    def test_unexpected_character_first_on_line(self):
        tokens, diags = lexed("$ attr\n")
        assert tokens == [("attr", 1, 3, False), ("", 2, 1, True)]
        assert diags == [unexpected(1, 1, "$")]

    def test_recovery_skips_a_keyword_that_is_not_first_on_line(self):
        # 'role' after '$' does not start a declaration, so line 2 is skipped
        # and line 3 declares q once; without the '$' line 3 is a duplicate
        result = parse("attr a scope\n$ role q\nrole q\n")
        assert [d.render() for d in result.diagnostics] == [
            "2:1: error: unexpected character '$' [lex-unexpected-char]",
            "2:3: error: expected '{', found 'role' [parse-expected]",
        ]
        result = parse("attr a scope\nrole q\nrole q\n")
        assert [d.code for d in result.diagnostics] == ["parse-expected", "dup-role"]

    def test_empty_input(self):
        assert lexed("") == ([("", 1, 1, True)], [])

    def test_no_final_newline(self):
        assert lexed("role r") == (
            [("role", 1, 1, True), ("r", 1, 6, False), ("", 1, 1, True)], [])
        assert lexed("role r\n")[0][-1] == ("", 2, 1, True)


def test_render_precondition_true():
    assert render_precondition(TrueCond()) == "true"
    assert render_precondition(Not(TrueCond())) == "not(true)"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["nonneg", "srd", "any"]), st.integers(0, 10_000))
def test_generated_instances_roundtrip(cls, seed):
    """Serializer output re-parses to an equal document, byte-exactly."""
    instance, q = generate(cls, seed)
    text = serialize(instance, [q])
    result = parse(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    assert serialize(result.instance, result.queries, result.plans) == text
    assert result.instance.scopes == instance.scopes
    assert result.instance.rules == instance.rules
    assert result.instance.initial_state == instance.initial_state
    assert result.queries == [q]


IDENT = re.compile(r"[A-Za-z0-9_.]+")


def reference_lex(source):
    """The character-at-a-time lexer that ``_lex`` replaced, kept as its
    specification: same fields, same diagnostics, same order."""
    tokens, diags = [], []
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        first = True
        while pos < len(line):
            ch = line[pos]
            if ch in " \t\r":
                pos += 1
                continue
            if line[pos:pos + 2] == "->":
                tokens.append(("->", lineno, pos + 1, first))
                pos += 2
            elif ch in "{}=,;:>()":
                tokens.append((ch, lineno, pos + 1, first))
                pos += 1
            else:
                m = IDENT.match(line, pos)
                if m:
                    tokens.append((m.group(), lineno, pos + 1, first))
                    pos = m.end()
                else:
                    diags.append(Diagnostic("error", lineno, pos + 1,
                                            f"unexpected character {ch!r}",
                                            "lex-unexpected-char"))
                    pos += 1
            first = False
    tokens.append(("", source.count("\n") + 1, 1, True))
    return tokens, diags


# the grammar's punctuation, identifier characters, blanks, comment and line
# ends, and characters that are none of these
LEX_ALPHABET = "{}=,;:>()-aZ09_. \t\r\n#$\u00e9\ufeff\x0b"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=LEX_ALPHABET, max_size=80))
def test_lexer_matches_reference(source):
    tokens, diags = _lex(source)
    fields = [(t.text, t.line, t.column, t.first_on_line) for t in tokens]
    assert (fields, diags) == reference_lex(source)


def assert_texts_match_lex(source):
    """``_texts`` gives ``_lex``'s token texts, or ``None`` where ``_lex``
    reports a character."""
    tokens, diags = _lex(source)
    assert _texts(source) == (None if diags else [t.text for t in tokens])


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=LEX_ALPHABET, max_size=80))
def test_texts_match_lex(source):
    assert_texts_match_lex(source)


@pytest.mark.parametrize("source", [
    "a#b c\nd", "x->y#->z\n", "a# -> $\nb", "a -#>\nb", "-#\n", "a-># x", "-->", "x --> y",
    "x->->y", "a-\n>b", "#\n#\n", "",
], ids=repr)
def test_texts_match_lex_around_comments_and_dashes(source):
    assert_texts_match_lex(source)


# the characters ``str.split`` cuts at, besides the blanks and line end ``_lex``
# skips; ``_lex`` reports each one
SPLIT_ONLY_BLANKS = ("\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
                     + "".join(map(chr, range(0x2000, 0x200b)))
                     + "\u2028\u2029\u202f\u205f\u3000")


def test_split_only_blanks_are_every_blank_str_split_cuts_at():
    blanks = {chr(i) for i in range(sys.maxunicode + 1) if chr(i).isspace()}
    assert blanks - set(" \t\r\n") == set(SPLIT_ONLY_BLANKS)


@pytest.mark.parametrize("blank", SPLIT_ONLY_BLANKS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("source", ["attr a{}scope {{ x }}", "{}", "x ->{}y", "-{}>"])
def test_texts_match_lex_on_blanks_only_split_takes(source, blank):
    source = source.format(blank)
    assert _texts(source) is None
    assert_texts_match_lex(source)


# ``_texts`` pads ``>`` with blanks, then mends each ``- >`` into ``->``; a
# ``-`` followed by a blank was never ``->`` and is reported
@pytest.mark.parametrize("source", [
    "x - > y", "x- >y", "x -\t> y", "x->y", "x ->> y", "x->-> y", "a>->b", "x -> > y",
], ids=repr)
def test_texts_match_lex_around_arrows(source):
    assert_texts_match_lex(source)


VOCABULARY = (
    "attr", "scope", "group", "senior", "role", "user", "groups", "groupstate", "rules",
    "rule", "query", "strict", "relaxed", "plan", "canAddU", "canDeleteU", "canAddUG",
    "canDeleteUG", "canAssign", "canRemove", "addU", "deleteU", "addUG", "deleteUG",
    "assign", "remove", "and", "not", "true", "in", "direct", "effective", "directUg",
    "effUg", "e_a(u)", "u", "G1", "x", "2.03", "{", "}", "=", ",", ";", ":", ">", "(",
    ")", "->", "-", "#", "$", "\n",
)


def mutate(text, edits):
    """Delete, insert or replace whole words of ``text`` (blanks are kept)."""
    pieces = re.split(r"(\s+)", text)
    for op, where, word in edits:
        words = [i for i, p in enumerate(pieces) if p and not p.isspace()]
        i = words[where % len(words)]
        if op == "delete":
            pieces[i] = ""
        elif op == "insert":
            pieces[i] += " " + word
        else:
            pieces[i] = word
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CLASSES), st.integers(0, 10_000),
       st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                          st.integers(0, 10_000), st.sampled_from(VOCABULARY)),
                min_size=1, max_size=4))
def test_parse_is_total_on_mutated_files(cls, seed, edits):
    instance, q = generate(cls, seed)
    source = mutate(serialize(instance, [q]), edits)
    result = parse(source)  # must not raise
    if result.instance is not None:
        validate_instance(result.instance)  # must not raise either
    last_line = source.count("\n") + 1
    for d in result.diagnostics:
        assert 1 <= d.line <= last_line and d.column >= 1, d


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CLASSES), st.integers(0, 10_000),
       st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                          st.integers(0, 10_000), st.sampled_from(VOCABULARY)),
                min_size=1, max_size=4))
def test_texts_match_lex_on_mutated_files(cls, seed, edits):
    instance, q = generate(cls, seed)
    assert_texts_match_lex(mutate(serialize(instance, [q]), edits))


class TestClauseBound:
    """The parser reports a precondition past ``MAX_CLAUSES`` clauses, and
    expands only the rules that hold a negated conjunction."""

    def test_reported_at_the_relation_of_each_rule_past_the_bound(self):
        over = "not(" + " and ".join(f"x{i} in direct(a)" for i in range(65)) + ")"
        text = ("attr a scope { " + ", ".join(f"x{i}" for i in range(65)) + " }\nrole r\n"
                f"rules {{\n  rule canAddU a : r , {over} -> x0\n"
                "  rule canDeleteU a : r , not(x0 in direct(a) and x1 in direct(a)) -> x0\n"
                f"  rule canDeleteU a : r , true and {over} -> x1\n}}\n")
        result = parse(text)
        assert result.instance is None
        assert [d.render() for d in result.diagnostics] == [
            f"{line}:8: error: precondition expands to more than 64 clauses [too-many-clauses]"
            for line in (4, 6)]

    def test_rules_without_a_negated_conjunction_are_not_expanded(self, monkeypatch):
        calls = []

        def counting_clauses(pre, bit):
            calls.append(pre)
            return []

        monkeypatch.setattr(dsl, "clauses", counting_clauses)
        documents = [bench_kernel.chain(512)]
        documents += [generate(cls, seed) for cls in CLASSES for seed in range(100)]
        for instance, q in documents:
            assert parse(serialize(instance, [q])).ok
        assert calls == []
        parse(one_rule_document("not(x in direct(a) and y in direct(a))"))
        assert len(calls) == 1


class TestPositionsOnlyForDiagnostics:
    """A valid document is parsed from its token texts alone; ``_lex`` runs
    once, and only when a diagnostic or recovery needs positions."""

    def test_valid_documents_never_call_the_positioned_lexer(self, monkeypatch):
        def positioned_lexer(source):
            raise AssertionError("a valid document was lexed for positions")

        monkeypatch.setattr(dsl, "_lex", positioned_lexer)
        texts = [path.read_text() for path in sorted(GOLDEN.glob("*.gurag"))]
        documents = [bench_kernel.chain(512)]
        documents += [generate(cls, seed) for cls in CLASSES for seed in range(100)]
        texts += [serialize(instance, [q]) for instance, q in documents]
        for text in texts:
            result = parse(text)
            assert result.ok and result.instance is not None

    def test_a_diagnostic_after_comments_lexes_once(self, monkeypatch):
        calls = []

        def counting_lexer(source):
            calls.append(source)
            return _lex(source)

        monkeypatch.setattr(dsl, "_lex", counting_lexer)
        text = ("# roles come first\nrole r  # the only one\nattr a scope { x }\n"
                "rules {  # one rule\n  rule canAddU a : q , true -> x  # q is not declared\n}\n"
                "plan { addU(q, a, x) }\n")
        assert [d.render() for d in parse(text).diagnostics] == [
            "5:20: error: unknown role 'q' [unknown-role]",
            "7:13: error: unknown role 'q' [unknown-role]",
        ]
        assert calls == [text]
