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

Parsing is total: malformed input produces positioned diagnostics, never an
exception.  A precondition nests at most ``MAX_NESTING`` parentheses deep
(``not(`` counts as one); one more is a ``parse-too-deep`` error.  Nesting is
the only recursion: a conjunction is one flat ``And`` whatever its length,
and the group hierarchy's closures are built without recursion, so no
conjunction is too long and no seniority chain too deep to parse.  ``true``
and ``not`` are keywords only where the next token is not ``in``, so a value
or group may bear either name.  No attribute may be named ``groups``, the key
under which the user block lists the user's memberships.  ``serialize`` emits
the canonical form (sorted declarations, LF line endings) and round-trips
bit-exactly with ``parse``.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from ._record import Frozen, Record
from .model import DirectState, GroupHierarchy, ModelError, ProblemInstance
from .policy import (
    And,
    DirectGroup,
    DirectVal,
    EffGroup,
    EffVal,
    Not,
    Precondition,
    Relation,
    Rule,
    RuleSet,
    TrueCond,
    conjunction,
    conjuncts,
)
from .transition import REQUEST_NAMES, Plan, QueryType, ReachabilityQuery, Request


class Diagnostic(Frozen):
    _fields = ("severity", "line", "column", "message", "code")

    def __init__(self, severity: str, line: int, column: int, message: str, code: str):
        # severity: "error" | "warning"; line and column are 1-based
        self.__dict__.update(severity=severity, line=line, column=column, message=message,
                             code=code)

    def render(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message} [{self.code}]"


class ParseResult(Record):
    _fields = ("instance", "queries", "plans", "diagnostics")

    def __init__(self, instance: Optional[ProblemInstance], queries: list[ReachabilityQuery],
                 plans: list[Plan], diagnostics: list[Diagnostic]):
        self.instance = instance
        self.queries = queries
        self.plans = plans
        self.diagnostics = diagnostics

    @property
    def ok(self) -> bool:
        return self.instance is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


# --- Lexer -------------------------------------------------------------------

# per line after its comment: blanks, then an identifier, a punctuation token
# or one unexpected character; trailing blanks match nothing
_TOKEN = re.compile(r"([ \t\r]*)(?:([A-Za-z0-9_.]+)|(->|[{}=,;:>()])|([^ \t\r]))")

_RELATIONS = {relation.value: relation for relation in Relation}

_TOPLEVEL = {
    "attr", "group", "senior", "role", "user", "groupstate", "rules", "query", "plan",
}

# deepest parenthesis nesting of one precondition; the parser and ``fmt``
# recurse once per level
MAX_NESTING = 100


class Token(NamedTuple):
    kind: str   # "ident" | punctuation itself | "eof"
    text: str
    line: int
    column: int
    first_on_line: bool


def _lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    append, new, findall = tokens.append, tuple.__new__, _TOKEN.findall
    for lineno, line in enumerate(source.split("\n"), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        column = 1
        first = True
        for blank, ident, punct, bad in findall(line):
            column += len(blank)
            if ident:
                append(new(Token, ("ident", ident, lineno, column, first)))
                column += len(ident)
            elif punct:
                append(new(Token, (punct, punct, lineno, column, first)))
                column += len(punct)
            else:
                diags.append(Diagnostic("error", lineno, column,
                                        f"unexpected character {bad!r}", "lex-unexpected-char"))
                column += 1
            first = False
    append(new(Token, ("eof", "", source.count("\n") + 1, 1, True)))
    return tokens, diags


# --- Parser ------------------------------------------------------------------

class _SyntaxError(Exception):
    def __init__(self, token: Token, message: str, code: str):
        self.token = token
        self.message = message
        self.code = code


def _expected(tok: Token, what: str) -> _SyntaxError:
    return _SyntaxError(tok, f"expected {what}, found {tok.text or 'end of file'!r}",
                        "parse-expected")


class _Parser:
    def __init__(self, source: str):
        self.tokens, self.diags = _lex(source)
        self.pos = 0
        self.depth = 0  # parentheses open around the precondition being parsed
        # raw declarations, with positions for resolution diagnostics
        self.attrs: dict[str, set[str]] = {}
        self.groups: set[str] = set()
        self.seniority: set[tuple[str, str]] = set()
        self.roles: set[str] = set()
        self.user_line: Optional[tuple[dict[str, set[str]], set[str]]] = None
        self.groupstates: dict[str, dict[str, set[str]]] = {}
        self.rules: list[Rule] = []
        self.queries: list[ReachabilityQuery] = []
        self.plans: list[Plan] = []

    # token helpers: a production reads ``self.tokens[self.pos]`` and consumes
    # it with ``self.pos += 1`` only after it has looked at it, so the position
    # never passes ``eof``
    def expect(self, kind: str, what: str) -> Token:
        """Consume the next token, which must be of ``kind`` (never ``eof``)."""
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise _expected(tok, what)
        self.pos += 1
        return tok

    def word(self, words: tuple[str, ...], what: str, code: str) -> Token:
        """Consume the next token, which must be one of the keywords ``words``."""
        tok = self.expect("ident", what)
        if tok.text not in words:
            raise _SyntaxError(tok, f"expected {what}, found {tok.text!r}", code)
        return tok

    def error(self, tok: Token, message: str, code: str):
        self.diags.append(Diagnostic("error", tok.line, tok.column, message, code))

    # resolution checks: each reports one diagnostic and lets the parse go on
    def known(self, tok: Token, names, what: str, code: str) -> bool:
        """Whether ``tok`` names a declared ``what``."""
        if tok.text in names:
            return True
        self.error(tok, f"unknown {what} {tok.text!r}", code)
        return False

    def in_scope(self, att: str, values) -> set[str]:
        """The texts of the value tokens ``values`` that lie in ``att``'s scope."""
        scope = self.attrs[att]
        vals = set()
        for tok in values:
            if tok.text in scope:
                vals.add(tok.text)
            else:
                self.error(tok, f"value {tok.text!r} outside scope of {att!r}",
                           "scope-violation")
        return vals

    def synchronize(self):
        """Skip to the next construct start so one error never hides the rest."""
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "eof" or (tok.first_on_line and tok.text in _TOPLEVEL):
                return
            self.pos += 1

    # grammar
    def parse(self) -> ParseResult:
        while (tok := self.tokens[self.pos]).kind != "eof":
            try:
                if tok.text not in _TOPLEVEL:
                    raise _SyntaxError(tok, f"expected a declaration, found {tok.text!r}",
                                       "parse-toplevel")
                getattr(self, "parse_" + tok.text)()
            except _SyntaxError as exc:
                self.error(exc.token, exc.message, exc.code)
                self.synchronize()
        instance = self.resolve()
        return ParseResult(instance, self.queries, self.plans, self.diags)

    def parse_value_set(self) -> tuple[list[Token], Token]:
        open_tok = self.expect("{", "'{'")
        items: list[Token] = []
        tokens = self.tokens
        if tokens[self.pos].kind == "}":
            self.pos += 1
            return items, open_tok
        while True:
            items.append(self.expect("ident", "a value"))
            if tokens[self.pos].kind != ",":
                self.expect("}", "'}' or ','")
                return items, open_tok
            self.pos += 1

    def parse_attr(self):
        self.pos += 1
        name = self.expect("ident", "an attribute name")
        self.word(("scope",), "'scope'", "parse-expected")
        values, brace = self.parse_value_set()
        if name.text == "groups":
            self.error(name, "attribute name 'groups' is reserved for the user's groups",
                       "reserved-attr")
        if name.text in self.attrs:
            self.error(name, f"duplicate attribute {name.text!r}", "dup-attr")
            return
        if not values:
            self.error(brace, f"attribute {name.text!r} has an empty scope", "empty-scope")
        seen = set()
        for tok in values:
            if tok.text in seen:
                self.error(tok, f"duplicate scope value {tok.text!r}", "dup-value")
            seen.add(tok.text)
        self.attrs[name.text] = seen

    def declare(self, names: set[str], what: str, code: str):
        """`group <name>` and `role <name>`."""
        self.pos += 1
        name = self.expect("ident", f"a {what} name")
        if name.text in names:
            self.error(name, f"duplicate {what} {name.text!r}", code)
            return
        names.add(name.text)

    def parse_group(self):
        self.declare(self.groups, "group", "dup-group")

    def parse_role(self):
        self.declare(self.roles, "role", "dup-role")

    def parse_senior(self):
        self.pos += 1
        senior = self.expect("ident", "a group name")
        self.expect(">", "'>'")
        junior = self.expect("ident", "a group name")
        for tok in (senior, junior):
            self.known(tok, self.groups, "group", "unknown-group")
        edge = (senior.text, junior.text)
        if edge in self.seniority:
            self.error(senior, f"duplicate seniority edge {senior.text} > {junior.text}",
                       "dup-edge")
            return
        self.seniority.add(edge)

    def parse_assignment_block(self, allow_groups: bool):
        """`{ att = { ... } ... [groups = { ... }] }` with resolution checks."""
        self.expect("{", "'{'")
        attrs: dict[str, set[str]] = {}
        groups: Optional[set[str]] = None
        while self.tokens[self.pos].kind != "}":
            key = self.expect("ident", "an attribute name")
            self.expect("=", "'='")
            values, _ = self.parse_value_set()
            if allow_groups and key.text == "groups":
                if groups is not None:
                    self.error(key, "duplicate 'groups' entry", "dup-entry")
                for tok in values:
                    self.known(tok, self.groups, "group", "unknown-group")
                groups = {tok.text for tok in values}
            elif key.text in attrs:
                self.error(key, f"duplicate attribute entry {key.text!r}", "dup-entry")
            elif self.known(key, self.attrs, "attribute", "unknown-attr"):
                attrs[key.text] = self.in_scope(key.text, values)
            else:
                attrs[key.text] = set()
        self.pos += 1
        return attrs, (groups if groups is not None else set())

    def parse_user(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        attrs, groups = self.parse_assignment_block(allow_groups=True)
        if self.user_line is not None:
            self.error(tok, "duplicate user block", "dup-user")
            return
        self.user_line = (attrs, groups)

    def parse_groupstate(self):
        self.pos += 1
        name = self.expect("ident", "a group name")
        self.known(name, self.groups, "group", "unknown-group")
        attrs, _ = self.parse_assignment_block(allow_groups=False)
        if name.text in self.groupstates:
            self.error(name, f"duplicate groupstate for {name.text!r}", "dup-groupstate")
            return
        self.groupstates[name.text] = attrs

    # preconditions
    def parse_precondition(self) -> Precondition:
        # ``And`` splices a parenthesized conjunction into its parts, so the
        # tree is the one its flat spelling (as ``fmt`` prints it) parses to
        parts = [self.parse_pre_term()]
        while self.tokens[self.pos].text == "and":  # only an identifier has that text
            self.pos += 1
            parts.append(self.parse_pre_term())
        return conjunction(parts)

    def parse_pre_term(self) -> Precondition:
        subject = self.tokens[self.pos]
        if subject.kind == "(":
            self.pos += 1
            return self.parse_nested(subject)
        if subject.kind != "ident":
            raise _SyntaxError(subject, f"expected a precondition, found {subject.text!r}",
                               "parse-precondition")
        self.pos += 1
        # a keyword unless it is the subject of a literal; an identifier always
        # has a next token, if only ``eof``
        if self.tokens[self.pos].text != "in":
            if subject.text == "true":
                return TrueCond()
            if subject.text == "not":
                return Not(self.parse_nested(self.expect("(", "'(' after 'not'")))
        self.word(("in",), "'in'", "parse-precondition")
        kind = self.expect("ident", "'direct', 'effective', 'directUg' or 'effUg'")
        if kind.text in ("direct", "effective"):
            self.expect("(", "'('")
            att = self.expect("ident", "an attribute name")
            self.expect(")", "')'")
            if self.known(att, self.attrs, "attribute", "unknown-attr"):
                self.in_scope(att.text, (subject,))
            cls = DirectVal if kind.text == "direct" else EffVal
            return cls(att.text, subject.text)
        if kind.text in ("directUg", "effUg"):
            self.known(subject, self.groups, "group", "unknown-group")
            return (DirectGroup if kind.text == "directUg" else EffGroup)(subject.text)
        raise _SyntaxError(kind, f"expected a membership kind, found {kind.text!r}",
                           "parse-precondition")

    def parse_nested(self, opening: Token) -> Precondition:
        """The precondition after the parenthesis ``opening``, and its ')'."""
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
        while (tok := self.tokens[self.pos]).kind != "}":
            if tok.kind == "eof":
                raise _SyntaxError(tok, "unterminated rules block", "parse-unterminated")
            if tok.text != "rule":
                raise _SyntaxError(tok, f"expected 'rule', found {tok.text!r}", "parse-rule")
            self.parse_rule()
        self.pos += 1

    def parse_rule(self):
        self.pos += 1  # 'rule'
        rel_tok = self.expect("ident", "a relation name")
        relation = _RELATIONS.get(rel_tok.text)
        if relation is None:
            raise _SyntaxError(rel_tok, f"unknown relation {rel_tok.text!r}",
                               "unknown-relation")
        membership = relation.is_membership
        if not membership:
            att = self.expect("ident", "an attribute name")
            att_known = self.known(att, self.attrs, "attribute", "unknown-attr")
        self.expect(":", "':'")
        role = self.expect("ident", "a role name")
        self.known(role, self.roles, "role", "unknown-role")
        self.expect(",", "','")
        pre = self.parse_precondition()
        self.expect("->", "'->'")
        target = self.expect("ident", "a target value or group")
        if membership:
            self.known(target, self.groups, "group", "unknown-group")
            rule = Rule(relation, role.text, pre, target_group=target.text,
                        rule_id=len(self.rules))
        else:
            if att_known:
                self.in_scope(att.text, (target,))
            rule = Rule(relation, role.text, pre, target_attr=att.text,
                        target_val=target.text, rule_id=len(self.rules))
            for node in pre.walk():
                if isinstance(node, (DirectGroup, EffGroup)):
                    self.error(rel_tok, "group membership literal outside an "
                               "assign/remove rule", "group-literal-misplaced")
        self.rules.append(rule)

    def parse_query(self):
        self.pos += 1
        kind = self.word(("strict", "relaxed"), "'strict' or 'relaxed'", "parse-query")
        self.expect("{", "'{'")
        entries: dict[str, frozenset[str]] = {}
        while self.tokens[self.pos].kind != "}":
            key = self.expect("ident", "'e_<attribute>(u)'")
            if not key.text.startswith("e_") or len(key.text) <= 2:
                raise _SyntaxError(key, f"expected 'e_<attribute>', found {key.text!r}",
                                   "parse-query")
            att = key.text[2:]
            self.expect("(", "'('")
            self.word(("u",), "'u'", "parse-query")
            self.expect(")", "')'")
            self.expect("=", "'='")
            values, _ = self.parse_value_set()
            # reported at the key token, which spells the attribute as e_<att>
            if att not in self.attrs:
                self.error(key, f"unknown attribute {att!r}", "unknown-attr")
            elif att in entries:
                self.error(key, f"duplicate query entry for {att!r}", "dup-entry")
            else:
                entries[att] = frozenset(self.in_scope(att, values))
            if self.tokens[self.pos].kind == ",":
                self.pos += 1
        self.pos += 1
        qt = QueryType.STRICT if kind.text == "strict" else QueryType.RELAXED
        self.queries.append(ReachabilityQuery(entries, qt))

    # request name -> (relation, argument fields in the order a request renders
    # them): a membership request names role and group, a group-subject one
    # role, group, attribute and value, and the rest role, attribute and value
    _REQUEST_KINDS = {
        name: (rel, ("role", "group") if rel.is_membership
               else ("role", "group", "att", "val") if rel.is_group_subject
               else ("role", "att", "val"))
        for rel, name in REQUEST_NAMES.items()
    }

    def parse_plan(self):
        self.pos += 1
        self.expect("{", "'{'")
        requests: list[Request] = []
        while self.tokens[self.pos].kind != "}":
            name = self.expect("ident", "a request")
            spec = self._REQUEST_KINDS.get(name.text)
            if spec is None:
                raise _SyntaxError(name, f"unknown request kind {name.text!r}",
                                   "unknown-request")
            relation, fields = spec
            self.expect("(", "'('")
            args: dict[str, Token] = {}
            for i, arg in enumerate(fields):
                if i:
                    self.expect(",", "','")
                args[arg] = self.expect("ident", "an argument")
            self.expect(")", "')'")
            requests.append(self.build_request(relation, args))
            if self.tokens[self.pos].kind == ";":
                self.pos += 1
        self.pos += 1
        self.plans.append(Plan(tuple(requests)))

    def build_request(self, relation: Relation, args: dict[str, Token]) -> Request:
        self.known(args["role"], self.roles, "role", "unknown-role")
        if "group" in args:
            self.known(args["group"], self.groups, "group", "unknown-group")
        if "att" in args and self.known(args["att"], self.attrs, "attribute", "unknown-attr"):
            self.in_scope(args["att"].text, (args["val"],))
        return Request(relation, **{arg: tok.text for arg, tok in args.items()})

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
