import re

import pytest
from hypothesis import given, settings, strategies as st

from gurag_reach.dsl import MAX_NESTING, Diagnostic, _lex, parse, render_precondition, serialize
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

from conftest import GOLDEN, MALFORMED, nested_document


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

    def test_nary_and_is_right_nested(self):
        text = ("attr a scope { x, y, z }\nrole r\n"
                "rules {\n  rule canAddU a : r , x in direct(a) and "
                "y in direct(a) and z in effective(a) -> x\n}\n")
        result = parse(text)
        assert result.ok
        pre = result.instance.rules.rules[0].pre
        assert pre == conjunction([DirectVal("a", "x"), DirectVal("a", "y"),
                                   EffVal("a", "z")])

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


def lexed(source):
    tokens, diags = _lex(source)
    return ([(t.kind, t.text, t.line, t.column, t.first_on_line) for t in tokens],
            [(d.severity, d.line, d.column, d.message, d.code) for d in diags])


def unexpected(line, column, ch):
    return ("error", line, column, f"unexpected character {ch!r}", "lex-unexpected-char")


class TestLexerEdgeCases:
    """Exact tokens and diagnostics: the lexer's contract, pinned case by case."""

    def test_crlf_tabs_and_comment_with_punctuation(self):
        tokens, diags = lexed("attr a scope { x }\r\nrole\tr # c -> {\r\n")
        assert tokens == [
            ("ident", "attr", 1, 1, True), ("ident", "a", 1, 6, False),
            ("ident", "scope", 1, 8, False), ("{", "{", 1, 14, False),
            ("ident", "x", 1, 16, False), ("}", "}", 1, 18, False),
            ("ident", "role", 2, 1, True), ("ident", "r", 2, 6, False),
            ("eof", "", 3, 1, True),
        ]
        assert diags == []

    def test_arrow_together_and_apart(self):
        tokens, diags = lexed("x -> y - > z\n")
        assert tokens == [
            ("ident", "x", 1, 1, True), ("->", "->", 1, 3, False),
            ("ident", "y", 1, 6, False), (">", ">", 1, 10, False),
            ("ident", "z", 1, 12, False), ("eof", "", 2, 1, True),
        ]
        assert diags == [unexpected(1, 8, "-")]

    def test_lone_dash_at_end_of_line(self):
        tokens, diags = lexed("a -\nb\n")
        assert tokens == [("ident", "a", 1, 1, True), ("ident", "b", 2, 1, True),
                          ("eof", "", 3, 1, True)]
        assert diags == [unexpected(1, 3, "-")]

    def test_unexpected_character_then_trailing_blanks(self):
        tokens, diags = lexed("a $  \t\r\nb\n")
        assert tokens == [("ident", "a", 1, 1, True), ("ident", "b", 2, 1, True),
                          ("eof", "", 3, 1, True)]
        assert diags == [unexpected(1, 3, "$")]

    def test_columns_count_characters_not_bytes(self):
        tokens, diags = lexed("é x $\n")
        assert tokens == [("ident", "x", 1, 3, False), ("eof", "", 2, 1, True)]
        assert diags == [unexpected(1, 1, "é"), unexpected(1, 5, "$")]

    def test_unexpected_character_first_on_line(self):
        tokens, diags = lexed("$ attr\n")
        assert tokens == [("ident", "attr", 1, 3, False), ("eof", "", 2, 1, True)]
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
        assert lexed("") == ([("eof", "", 1, 1, True)], [])

    def test_no_final_newline(self):
        assert lexed("role r") == (
            [("ident", "role", 1, 1, True), ("ident", "r", 1, 6, False),
             ("eof", "", 1, 1, True)], [])
        assert lexed("role r\n")[0][-1] == ("eof", "", 2, 1, True)


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
                tokens.append(("->", "->", lineno, pos + 1, first))
                pos += 2
            elif ch in "{}=,;:>()":
                tokens.append((ch, ch, lineno, pos + 1, first))
                pos += 1
            else:
                m = IDENT.match(line, pos)
                if m:
                    tokens.append(("ident", m.group(), lineno, pos + 1, first))
                    pos = m.end()
                else:
                    diags.append(Diagnostic("error", lineno, pos + 1,
                                            f"unexpected character {ch!r}",
                                            "lex-unexpected-char"))
                    pos += 1
            first = False
    tokens.append(("eof", "", source.count("\n") + 1, 1, True))
    return tokens, diags


# the grammar's punctuation, identifier characters, blanks, comment and line
# ends, and characters that are none of these
LEX_ALPHABET = "{}=,;:>()-aZ09_. \t\r\n#$\u00e9\ufeff\x0b"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=LEX_ALPHABET, max_size=80))
def test_lexer_matches_reference(source):
    tokens, diags = _lex(source)
    fields = [(t.kind, t.text, t.line, t.column, t.first_on_line) for t in tokens]
    assert (fields, diags) == reference_lex(source)


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
