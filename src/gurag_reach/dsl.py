"""Line-oriented text format for instances, queries and plans.

The format, by example::

    attr skills scope { c, java }
    group G1
    senior G1 > G2
    role ar1
    user { skills = { c }  groups = { G1 } }
    groupstate G2 { roomAcc = { 3.02 } }
    rules {
      rule canAddU skills : ar1 , c in direct(skills) -> java
      rule canAssign : ar1 , true -> G1
    }
    query strict { e_skills(u) = { c, java } }
    plan { addU(ar1, skills, java); assign(ar1, G1) }

Lexical rules: comments run from ``#`` to end of line.  Identifiers match
``[A-Za-z0-9_.]+``, so numeric-looking values like ``2.03`` are identifiers.
The punctuation tokens are ``{ } = , ; : > ( )`` and ``->``.  Blanks are space,
tab and CR; lines end at LF.  Every other character is one
``lex-unexpected-char`` error.  Columns count characters from 1.  Input is
text; the CLI rejects a file that is not UTF-8 with exit code 3.

The parser takes the token texts from ``str`` methods run over the whole
source, with no call per token: a deletion table finds any character ``_lex``
reports, blanks set the punctuation apart, and ``split`` cuts the texts.  It
consumes them by index and reads each production once.  Where tokens stand
at fixed offsets they are compared in place, in order: a rule head with its
``-> target``, a value literal, and the values and commas of a set.  At the
first token that does not match, the parser raises the error a token helper
would raise there and recovers from that token, so the diagnostics and
recovery are those of a token-by-token read.  Two shortcuts only accept: the
whole of a rule with nothing to report whose body is ``true`` or one value
literal, and the rest of a long value set, checked as one slice with list
methods (a comma at every other position, no punctuation among the values).
What either refuses is read on in place.  Duplicates and scopes are checked
with ``set`` operations.  Line, column and first-on-line are computed by the
positioned lexer ``_lex``, run at most once per parse and only when a
diagnostic or error recovery needs them, or when the source holds a character
``_lex`` reports; so a valid document never builds a ``Token``.

Parsing is total: malformed input produces positioned diagnostics, never an
exception.  A precondition nests at most ``MAX_NESTING`` parentheses deep
(``not(`` counts as one); one more is a ``parse-too-deep`` error.  Nesting is
the only recursion: a conjunction is one flat ``And`` whatever its length,
and the group hierarchy's closures are built without recursion, so no
conjunction is too long and no seniority chain too deep to parse.  A rule past
``policy.MAX_CLAUSES`` clauses is a ``too-many-clauses`` error, so a clean parse
is an instance that every engine accepts.  ``true`` and ``not`` are keywords
only where the next token is not ``in``, so a value or group may bear either
name.  No attribute may be named ``groups``, the key of the user's memberships
in the user block.  ``serialize`` emits the canonical form (sorted
declarations, LF line endings) and round-trips bit-exactly with ``parse``.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from ._record import Frozen
from .model import DirectState, GroupHierarchy, ModelError, ProblemInstance
from .policy import (
    And,
    DirectGroup,
    DirectVal,
    EffGroup,
    EffVal,
    Not,
    PolicyError,
    Precondition,
    Relation,
    Rule,
    RuleSet,
    TrueCond,
    clauses,
    conjunction,
    conjuncts,
)
from .transition import Plan, QueryType, ReachabilityQuery, Request


class Diagnostic(Frozen):
    _fields = ("severity", "line", "column", "message", "code")

    def __init__(self, severity: str, line: int, column: int, message: str, code: str):
        # severity: "error" | "warning"; line and column are 1-based
        self.__dict__.update(severity=severity, line=line, column=column, message=message,
                             code=code)

    def render(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message} [{self.code}]"


class ParseResult(Frozen):
    _fields = ("instance", "queries", "plans", "diagnostics")

    def __init__(self, instance: Optional[ProblemInstance], queries: list[ReachabilityQuery],
                 plans: list[Plan], diagnostics: list[Diagnostic]):
        self.__dict__.update(instance=instance, queries=queries, plans=plans,
                             diagnostics=diagnostics)

    @property
    def ok(self) -> bool:
        return self.instance is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


# --- Lexer -------------------------------------------------------------------

# Two lexers read one token sequence.  ``_texts`` gives only the texts, from
# ``str`` methods over the whole source; that is all a valid document needs.
# ``_lex`` gives positioned tokens, line by line; the parser runs it at most
# once, for a source holding a character it reports, or when a diagnostic or
# error recovery needs a position.  Token ``i`` of one is token ``i`` of the
# other.

# a comment, which runs to the end of its line
_COMMENT = re.compile(r"#[^\n]*")
# deletes every character that may stand in a source free of comments: the
# identifier characters, punctuation, blanks, line ends and ``-``; what is left
# is a character ``_lex`` reports
_LEXABLE = str.maketrans("", "", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                         "0123456789_.{}=,;:>() \t\r\n-")
# the punctuation that ``_texts`` sets apart with blanks; ``->`` is mended
# after its ``>`` has been
_SPACED = "{}=,;:>()"

# ``_lex``, per line after its comment: blanks, then an identifier or a
# punctuation token, or one unexpected character; trailing blanks match nothing.
# Compiled by ``_lex``'s first call (``re`` caches it), as only diagnostics
# need token positions
_TOKEN = r"([ \t\r]*)(?:([A-Za-z0-9_.]+|->|[{}=,;:>()])|([^ \t\r]))"

# the texts of the punctuation tokens and of ``eof``; every other text is an
# identifier
_PUNCT = frozenset(("{", "}", "=", ",", ";", ":", ">", "(", ")", "->", ""))

_RELATIONS = {relation.value: relation for relation in Relation}

# the values of a set compared in place before the rest is checked as a
# slice; a set of a few values is read faster in place, a long one faster as
# slices
_SHORT_SET = 4

_TOPLEVEL = {
    "attr", "group", "senior", "role", "user", "groupstate", "rules", "query", "plan",
}

# deepest parenthesis nesting of one precondition; the parser and ``fmt``
# recurse once per level
MAX_NESTING = 100


class Token(NamedTuple):
    text: str  # "" for eof
    line: int
    column: int
    first_on_line: bool


def _texts(source: str) -> Optional[list[str]]:
    """The texts of ``_lex``'s tokens, ``eof``'s ``""`` last, or ``None``
    where ``_lex`` reports an unexpected character."""
    if "#" in source:
        source = _COMMENT.sub("", source)
    # a ``-`` that does not open ``->`` is reported too
    if source.translate(_LEXABLE) or source.count("-") != source.count("->"):
        return None
    for punct in _SPACED:
        source = source.replace(punct, f" {punct} ")
    # space, tab, CR and LF are the only whitespace left, so ``split`` cuts
    # where ``_lex`` does
    texts = source.replace("- >", " -> ").split()
    texts.append("")
    return texts


def _lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    append, new, findall = tokens.append, tuple.__new__, re.compile(_TOKEN).findall
    for lineno, line in enumerate(source.split("\n"), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        column = 1
        first = True
        for blank, text, bad in findall(line):
            column += len(blank)
            if text:
                append(new(Token, (text, lineno, column, first)))
                column += len(text)
            else:
                diags.append(Diagnostic("error", lineno, column,
                                        f"unexpected character {bad!r}", "lex-unexpected-char"))
                column += 1
            first = False
    append(new(Token, ("", source.count("\n") + 1, 1, True)))
    return tokens, diags


# --- Parser ------------------------------------------------------------------

class _SyntaxError(Exception):
    def __init__(self, at: int, message: str, code: str):
        self.at = at  # index of the token it is reported at
        self.message = message
        self.code = code


class _Parser:
    def __init__(self, source: str):
        self.source = source
        texts = _texts(source)
        if texts is None:
            self.tokens, self.diags = _lex(source)
            texts = [tok.text for tok in self.tokens]
        else:
            self.tokens, self.diags = None, []  # positions are lexed when first needed
        self.texts = texts
        self.pos = 0
        self.depth = 0  # parentheses open around the precondition being parsed
        # whether the rule being parsed holds a ``not(`` of a conjunction,
        # the one kind of precondition that can exceed the clause bound
        self.negated_and = False
        # raw declarations; resolution diagnostics point at token indices
        self.attrs: dict[str, set[str]] = {}
        self.groups: set[str] = set()
        self.seniority: set[tuple[str, str]] = set()
        self.roles: set[str] = set()
        self.user_line: Optional[tuple[dict[str, set[str]], set[str]]] = None
        self.groupstates: dict[str, dict[str, set[str]]] = {}
        self.rules: list[Rule] = []
        self.queries: list[ReachabilityQuery] = []
        self.plans: list[Plan] = []

    def token(self, at: int) -> Token:
        """Token ``at`` with its position; the source is lexed at most once."""
        if self.tokens is None:
            self.tokens = _lex(self.source)[0]
        return self.tokens[at]

    # token helpers: a production reads ``self.texts[self.pos]`` and consumes
    # it with ``self.pos += 1`` only after it has looked at it, so the position
    # never passes ``eof``
    def expected(self, at: int, what: str) -> _SyntaxError:
        """The error at token ``at``, which is not ``what``; recovery starts there."""
        self.pos = at
        return _SyntaxError(at, f"expected {what}, found {self.texts[at] or 'end of file'!r}",
                            "parse-expected")

    def expect(self, punct: str, what: str) -> int:
        """Consume the next token, which must be the punctuation ``punct``; its index."""
        at = self.pos
        if self.texts[at] != punct:
            raise self.expected(at, what)
        self.pos = at + 1
        return at

    def ident(self, what: str) -> int:
        """Consume the next token, which must be an identifier; its index."""
        at = self.pos
        if self.texts[at] in _PUNCT:
            raise self.expected(at, what)
        self.pos = at + 1
        return at

    def word(self, words: tuple[str, ...], what: str, code: str) -> str:
        """Consume the next token, which must be one of the keywords ``words``."""
        at = self.ident(what)
        text = self.texts[at]
        if text not in words:
            raise _SyntaxError(at, f"expected {what}, found {text!r}", code)
        return text

    def error(self, at: int, message: str, code: str):
        tok = self.token(at)
        self.diags.append(Diagnostic("error", tok.line, tok.column, message, code))

    # resolution checks: each reports one diagnostic and lets the parse go on
    def known(self, at: int, names, what: str, code: str) -> bool:
        """Whether token ``at`` names a declared ``what``."""
        text = self.texts[at]
        if text in names:
            return True
        self.error(at, f"unknown {what} {text!r}", code)
        return False

    def outside_scope(self, att: str, at: int):
        """Report the value token ``at``, which lies outside ``att``'s scope."""
        self.error(at, f"value {self.texts[at]!r} outside scope of {att!r}", "scope-violation")

    def in_scope(self, att: str, values: list[str], brace: int) -> set[str]:
        """The values of the set at ``brace`` that lie in ``att``'s scope."""
        scope = self.attrs[att]
        vals = set(values)
        if vals <= scope:
            return vals
        vals = set()
        for k, value in enumerate(values):
            if value in scope:
                vals.add(value)
            else:
                self.outside_scope(att, brace + 1 + 2 * k)
        return vals

    def synchronize(self):
        """Skip to the next construct start so one error never hides the rest."""
        texts = self.texts
        while True:
            text = texts[self.pos]
            if not text or (text in _TOPLEVEL and self.token(self.pos).first_on_line):
                return
            self.pos += 1

    # grammar
    def parse(self) -> ParseResult:
        texts = self.texts
        while text := texts[self.pos]:
            try:
                if text not in _TOPLEVEL:
                    raise _SyntaxError(self.pos, f"expected a declaration, found {text!r}",
                                       "parse-toplevel")
                getattr(self, "parse_" + text)()
            except _SyntaxError as exc:
                self.error(exc.at, exc.message, exc.code)
                self.synchronize()
        instance = self.resolve()
        return ParseResult(instance, self.queries, self.plans, self.diags)

    def parse_value_set(self) -> tuple[list[str], int]:
        """The values of a ``{ ... }`` set, in order, and the index of its
        ``{``; value ``k`` is token ``brace + 1 + 2 * k``."""
        brace = self.expect("{", "'{'")
        texts = self.texts
        end = brace + 1
        if texts[end] == "}":
            self.pos = end + 1
            return [], brace
        # values and commas alternate up to the ``}``; each is compared in
        # place.  Past the first ``_SHORT_SET`` values, the rest of the set is
        # checked once as one slice, in C: up to the first ``}``, a comma at
        # every other position and no punctuation among the values.  A tail
        # that check refuses is read on in place, to the token to report.
        tail = brace + 1 + 2 * _SHORT_SET
        while True:
            if texts[end] in _PUNCT:
                raise self.expected(end, "a value")
            sep = texts[end + 1]
            if sep != ",":
                if sep != "}":
                    raise self.expected(end + 1, "'}' or ','")
                self.pos = end + 2
                return texts[brace + 1:end + 1:2], brace
            end += 2
            if end == tail:
                try:
                    close = texts.index("}", end)
                except ValueError:  # the set is never closed
                    continue
                rest = texts[end:close]
                if (len(rest) % 2 and rest[1::2].count(",") == len(rest) // 2
                        and _PUNCT.isdisjoint(rest[::2])):
                    self.pos = close + 1
                    return texts[brace + 1:close:2], brace

    def parse_attr(self):
        self.pos += 1
        at = self.ident("an attribute name")
        name = self.texts[at]
        self.word(("scope",), "'scope'", "parse-expected")
        values, brace = self.parse_value_set()
        if name == "groups":
            self.error(at, "attribute name 'groups' is reserved for the user's groups",
                       "reserved-attr")
        if name in self.attrs:
            self.error(at, f"duplicate attribute {name!r}", "dup-attr")
            return
        if not values:
            self.error(brace, f"attribute {name!r} has an empty scope", "empty-scope")
        seen = set(values)
        if len(seen) < len(values):  # report each repeat at its token
            seen = set()
            for k, value in enumerate(values):
                if value in seen:
                    self.error(brace + 1 + 2 * k, f"duplicate scope value {value!r}",
                               "dup-value")
                seen.add(value)
        self.attrs[name] = seen

    def declare(self, names: set[str], what: str, code: str):
        """`group <name>` and `role <name>`."""
        self.pos += 1
        at = self.ident(f"a {what} name")
        name = self.texts[at]
        if name in names:
            self.error(at, f"duplicate {what} {name!r}", code)
            return
        names.add(name)

    def parse_group(self):
        self.declare(self.groups, "group", "dup-group")

    def parse_role(self):
        self.declare(self.roles, "role", "dup-role")

    def parse_senior(self):
        self.pos += 1
        senior = self.ident("a group name")
        self.expect(">", "'>'")
        junior = self.ident("a group name")
        for at in (senior, junior):
            self.known(at, self.groups, "group", "unknown-group")
        edge = (self.texts[senior], self.texts[junior])
        if edge in self.seniority:
            self.error(senior, f"duplicate seniority edge {edge[0]} > {edge[1]}", "dup-edge")
            return
        self.seniority.add(edge)

    def parse_assignment_block(self, allow_groups: bool):
        """`{ att = { ... } ... [groups = { ... }] }` with resolution checks."""
        self.expect("{", "'{'")
        texts = self.texts
        attrs: dict[str, set[str]] = {}
        groups: Optional[set[str]] = None
        while texts[self.pos] != "}":
            at = self.ident("an attribute name")
            key = texts[at]
            self.expect("=", "'='")
            values, brace = self.parse_value_set()
            if allow_groups and key == "groups":
                if groups is not None:
                    self.error(at, "duplicate 'groups' entry", "dup-entry")
                if not self.groups.issuperset(values):
                    for k in range(len(values)):
                        self.known(brace + 1 + 2 * k, self.groups, "group", "unknown-group")
                groups = set(values)
            elif key in attrs:
                self.error(at, f"duplicate attribute entry {key!r}", "dup-entry")
            elif self.known(at, self.attrs, "attribute", "unknown-attr"):
                attrs[key] = self.in_scope(key, values, brace)
            else:
                attrs[key] = set()
        self.pos += 1
        return attrs, (groups if groups is not None else set())

    def parse_user(self):
        at = self.pos
        self.pos += 1
        attrs, groups = self.parse_assignment_block(allow_groups=True)
        if self.user_line is not None:
            self.error(at, "duplicate user block", "dup-user")
            return
        self.user_line = (attrs, groups)

    def parse_groupstate(self):
        self.pos += 1
        at = self.ident("a group name")
        name = self.texts[at]
        self.known(at, self.groups, "group", "unknown-group")
        attrs, _ = self.parse_assignment_block(allow_groups=False)
        if name in self.groupstates:
            self.error(at, f"duplicate groupstate for {name!r}", "dup-groupstate")
            return
        self.groupstates[name] = attrs

    # preconditions
    def parse_precondition(self) -> Precondition:
        # ``And`` splices a parenthesized conjunction into its parts, so the
        # tree is the one its flat spelling (as ``fmt`` prints it) parses to
        part = self.parse_pre_term()
        if self.texts[self.pos] != "and":
            return part
        parts = [part]
        while self.texts[self.pos] == "and":
            self.pos += 1
            parts.append(self.parse_pre_term())
        return conjunction(parts)

    def parse_pre_term(self) -> Precondition:
        texts = self.texts
        at = self.pos
        subject = texts[at]
        if subject == "(":
            self.pos += 1
            return self.parse_nested(at)
        if subject in _PUNCT:
            raise _SyntaxError(at, f"expected a precondition, found {subject!r}",
                               "parse-precondition")
        # a keyword unless it is the subject of a literal; an identifier always
        # has a next token, if only ``eof``
        if texts[at + 1] != "in":
            self.pos = at + 1
            if subject == "true":
                return TrueCond()
            if subject == "not":
                inner = self.parse_nested(self.expect("(", "'(' after 'not'"))
                self.negated_and |= isinstance(inner, And)
                return Not(inner)
            self.word(("in",), "'in'", "parse-precondition")  # raises
        # the literal's tokens are compared in place, each as the token
        # helpers would compare it
        kind = texts[at + 2]
        if kind in ("direct", "effective"):
            if texts[at + 3] != "(":
                raise self.expected(at + 3, "'('")
            att = texts[at + 4]
            if att in _PUNCT:
                raise self.expected(at + 4, "an attribute name")
            if texts[at + 5] != ")":
                raise self.expected(at + 5, "')'")
            self.pos = at + 6
            if att not in self.attrs:
                self.known(at + 4, self.attrs, "attribute", "unknown-attr")
            elif subject not in self.attrs[att]:
                self.outside_scope(att, at)
            return (DirectVal if kind == "direct" else EffVal)(att, subject)
        if kind in ("directUg", "effUg"):
            self.pos = at + 3
            if subject not in self.groups:
                self.known(at, self.groups, "group", "unknown-group")
            return (DirectGroup if kind == "directUg" else EffGroup)(subject)
        if kind in _PUNCT:
            raise self.expected(at + 2, "'direct', 'effective', 'directUg' or 'effUg'")
        self.pos = at + 3
        raise _SyntaxError(at + 2, f"expected a membership kind, found {kind!r}",
                           "parse-precondition")

    def parse_nested(self, opening: int) -> Precondition:
        """The precondition after the parenthesis at ``opening``, and its ')'."""
        if self.depth == MAX_NESTING:
            raise _SyntaxError(opening, f"precondition nested more than {MAX_NESTING} "
                               "parentheses deep", "parse-too-deep")
        self.depth += 1
        try:
            inner = self.parse_precondition()
            self.expect(")", "')'")
        finally:
            self.depth -= 1
        return inner

    def parse_rules(self):
        self.pos += 1
        self.expect("{", "'{'")
        texts = self.texts
        while (text := texts[self.pos]) != "}":
            if not text:
                raise _SyntaxError(self.pos, "unterminated rules block", "parse-unterminated")
            if text != "rule":
                raise _SyntaxError(self.pos, f"expected 'rule', found {text!r}", "parse-rule")
            self.parse_rule()
        self.pos += 1

    def parse_rule(self):
        texts = self.texts
        attrs = self.attrs
        # the head ``<relation> [<att>] : <role> ,`` is compared in place,
        # each token as the token helpers would compare it
        rel_at = self.pos + 1  # after 'rule'
        relation = _RELATIONS.get(texts[rel_at])
        if relation is None:
            if texts[rel_at] in _PUNCT:
                raise self.expected(rel_at, "a relation name")
            self.pos = rel_at + 1
            raise _SyntaxError(rel_at, f"unknown relation {texts[rel_at]!r}", "unknown-relation")
        membership = relation.is_membership
        att = rel_at + 1
        if membership:
            colon, targets = att, self.groups
        else:
            # the scope of the rule's attribute, ``None`` if it is unknown
            colon, targets = att + 1, attrs.get(texts[att])
            if targets is None:
                if texts[att] in _PUNCT:
                    raise self.expected(att, "an attribute name")
                self.known(att, attrs, "attribute", "unknown-attr")
        if texts[colon] != ":":
            raise self.expected(colon, "':'")
        role = colon + 1
        if texts[role] not in self.roles:
            if texts[role] in _PUNCT:
                raise self.expected(role, "a role name")
            self.known(role, self.roles, "role", "unknown-role")
        if texts[colon + 2] != ",":
            raise self.expected(colon + 2, "','")
        at = colon + 3
        # a body of ``true`` or one value literal with nothing to report, and
        # a target in ``targets``, is accepted in place: each index is read
        # only after the one before it proved not to be ``eof``, the last
        # token.  Any other body is read by the precondition's productions,
        # and then ``-> <target>`` in place.
        subject = texts[at]
        if subject == "true" and texts[at + 1] == "->":
            pre, target = TrueCond(), at + 2
        elif (subject not in _PUNCT and texts[at + 1] == "in"
              and ((kind := texts[at + 2]) == "direct" or kind == "effective")
              and texts[at + 3] == "(" and (pre_scope := attrs.get(texts[at + 4])) is not None
              and subject in pre_scope and texts[at + 5] == ")" and texts[at + 6] == "->"):
            pre = (DirectVal if kind == "direct" else EffVal)(texts[at + 4], subject)
            target = at + 7
        else:
            pre = None
        if pre is None or targets is None or texts[target] not in targets:
            self.pos = at
            pre = self.parse_precondition()
            target = self.pos + 1
            if texts[target - 1] != "->":
                raise self.expected(target - 1, "'->'")
            if texts[target] in _PUNCT:
                raise self.expected(target, "a target value or group")
            if targets is not None and texts[target] not in targets:
                if membership:
                    self.known(target, targets, "group", "unknown-group")
                else:
                    self.outside_scope(texts[att], target)
            if not membership and not isinstance(pre, (TrueCond, DirectVal, EffVal)):
                for node in pre.walk():
                    if isinstance(node, (DirectGroup, EffGroup)):
                        self.error(rel_at, "group membership literal outside an "
                                   "assign/remove rule", "group-literal-misplaced")
            if self.negated_and:  # else the precondition is at most one clause
                self.negated_and = False
                literals: dict = {}
                try:
                    clauses(pre, lambda lit: literals.setdefault(lit, len(literals)))
                except PolicyError as exc:
                    self.error(rel_at, str(exc), "too-many-clauses")
        self.pos = target + 1
        rules = self.rules
        if membership:
            rule = Rule(relation, texts[role], pre, None, None, texts[target], len(rules))
        else:
            rule = Rule(relation, texts[role], pre, texts[att], texts[target], None, len(rules))
        rules.append(rule)

    def parse_query(self):
        self.pos += 1
        kind = self.word(("strict", "relaxed"), "'strict' or 'relaxed'", "parse-query")
        self.expect("{", "'{'")
        texts = self.texts
        entries: dict[str, frozenset[str]] = {}
        while texts[self.pos] != "}":
            key = self.ident("'e_<attribute>(u)'")
            if not texts[key].startswith("e_") or len(texts[key]) <= 2:
                raise _SyntaxError(key, f"expected 'e_<attribute>', found {texts[key]!r}",
                                   "parse-query")
            att = texts[key][2:]
            self.expect("(", "'('")
            self.word(("u",), "'u'", "parse-query")
            self.expect(")", "')'")
            self.expect("=", "'='")
            values, brace = self.parse_value_set()
            # reported at the key token, which spells the attribute as e_<att>
            if att not in self.attrs:
                self.error(key, f"unknown attribute {att!r}", "unknown-attr")
            elif att in entries:
                self.error(key, f"duplicate query entry for {att!r}", "dup-entry")
            else:
                entries[att] = frozenset(self.in_scope(att, values, brace))
            if texts[self.pos] == ",":
                self.pos += 1
        self.pos += 1
        qt = QueryType.STRICT if kind == "strict" else QueryType.RELAXED
        self.queries.append(ReachabilityQuery(entries, qt))

    _REQUEST_KINDS = {rel.request_name: rel for rel in Relation}

    def parse_plan(self):
        self.pos += 1
        self.expect("{", "'{'")
        texts = self.texts
        requests: list[Request] = []
        while texts[self.pos] != "}":
            name = self.ident("a request")
            relation = self._REQUEST_KINDS.get(texts[name])
            if relation is None:
                raise _SyntaxError(name, f"unknown request kind {texts[name]!r}",
                                   "unknown-request")
            self.expect("(", "'('")
            args: dict[str, int] = {}
            for i, arg in enumerate(relation.request_fields):
                if i:
                    self.expect(",", "','")
                args[arg] = self.ident("an argument")
            self.expect(")", "')'")
            requests.append(self.build_request(relation, args))
            if texts[self.pos] == ";":
                self.pos += 1
        self.pos += 1
        self.plans.append(Plan(tuple(requests)))

    def build_request(self, relation: Relation, args: dict[str, int]) -> Request:
        """The request whose argument tokens are at ``args``."""
        self.known(args["role"], self.roles, "role", "unknown-role")
        if "group" in args:
            self.known(args["group"], self.groups, "group", "unknown-group")
        texts = self.texts
        if "att" in args and self.known(args["att"], self.attrs, "attribute", "unknown-attr"):
            att = texts[args["att"]]
            if texts[args["val"]] not in self.attrs[att]:
                self.outside_scope(att, args["val"])
        return Request(relation, **{arg: texts[at] for arg, at in args.items()})

    def resolve(self) -> Optional[ProblemInstance]:
        if any(d.severity == "error" for d in self.diags):
            return None
        try:
            hierarchy = GroupHierarchy(self.groups, self.seniority)
        except ModelError as exc:
            # senior lines carry no position, so the cycle is reported at 1:1
            self.diags.append(Diagnostic("error", 1, 1, str(exc), "hierarchy-cycle"))
            return None
        user_attrs, user_groups = self.user_line or ({}, set())
        # the model constructors freeze what they are given
        state = DirectState(user_attrs, self.groupstates, user_groups)
        return ProblemInstance(scopes=self.attrs, hierarchy=hierarchy, roles=self.roles,
                               rules=RuleSet(self.rules), initial_state=state)


def parse(source: str) -> ParseResult:
    return _Parser(source).parse()


# --- Serializer --------------------------------------------------------------

def _render_set(values) -> str:
    vals = sorted(values)
    return "{ " + ", ".join(vals) + " }" if vals else "{ }"


def render_precondition(pre: Precondition) -> str:
    def term(node: Precondition) -> str:
        if isinstance(node, TrueCond):
            return "true"
        if isinstance(node, Not):
            return f"not({render_precondition(node.child)})"
        if isinstance(node, DirectVal):
            return f"{node.val} in direct({node.att})"
        if isinstance(node, EffVal):
            return f"{node.val} in effective({node.att})"
        if isinstance(node, DirectGroup):
            return f"{node.group} in directUg"
        if isinstance(node, EffGroup):
            return f"{node.group} in effUg"
        raise TypeError(f"cannot render {node!r}")

    return " and ".join(term(part) for part in conjuncts(pre))


def render_rule(rule: Rule) -> str:
    if rule.relation.is_membership:
        head = rule.relation.value
        target = rule.target_group
    else:
        head = f"{rule.relation.value} {rule.target_attr}"
        target = rule.target_val
    return f"rule {head} : {rule.role} , {render_precondition(rule.pre)} -> {target}"


def serialize(
    instance: ProblemInstance,
    queries: list[ReachabilityQuery] = (),
    plans: list[Plan] = (),
) -> str:
    lines: list[str] = []
    for att in sorted(instance.scopes):
        lines.append(f"attr {att} scope {_render_set(instance.scopes[att])}")
    for g in sorted(instance.groups):
        lines.append(f"group {g}")
    for senior, junior in sorted(instance.hierarchy.direct_seniority):
        lines.append(f"senior {senior} > {junior}")
    for role in sorted(instance.roles):
        lines.append(f"role {role}")

    state = instance.initial_state
    user_items = [
        f"{att} = {_render_set(state.user_attrs[att])}" for att in sorted(state.user_attrs)
    ]
    user_items.append(f"groups = {_render_set(state.user_groups)}")
    lines.append("user { " + "  ".join(user_items) + " }")
    for g in sorted(state.group_attrs):
        items = [
            f"{att} = {_render_set(state.group_attrs[g][att])}"
            for att in sorted(state.group_attrs[g])
        ]
        lines.append(f"groupstate {g} {{ " + "  ".join(items) + " }")

    lines.append("rules {")
    for rule in instance.rules:
        lines.append("  " + render_rule(rule))
    lines.append("}")

    for q in queries:
        entries = ", ".join(
            f"e_{att}(u) = {_render_set(vset)}" for att, vset in sorted(q.entries.items())
        )
        body = f"{{ {entries} }}" if entries else "{ }"
        lines.append(f"query {q.query_type.value} {body}")
    for plan in plans:
        body = "; ".join(req.render() for req in plan)
        lines.append("plan { " + body + " }" if body else "plan { }")
    return "\n".join(lines) + "\n"
