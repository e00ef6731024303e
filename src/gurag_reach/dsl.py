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

Comments run from ``#`` to end of line.  Identifiers match ``[A-Za-z0-9_.]+``,
so numeric-looking value tokens like ``2.03`` are ordinary identifiers.
Parsing is total: malformed input produces positioned diagnostics, never an
exception.  ``serialize`` emits the canonical form (sorted declarations, LF
line endings) and round-trips bit-exactly with ``parse``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

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
from .transition import Plan, QueryType, ReachabilityQuery, Request


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int      # 1-based
    column: int    # 1-based
    message: str
    code: str

    def render(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message} [{self.code}]"


@dataclass
class ParseResult:
    instance: Optional[ProblemInstance]
    queries: list[ReachabilityQuery]
    plans: list[Plan]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.instance is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


# --- Lexer -------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z0-9_.]+")
_PUNCT = ("->", "{", "}", "=", ",", ";", ":", ">", "(", ")")

_TOPLEVEL = {
    "attr", "group", "senior", "role", "user", "groupstate", "rules", "query", "plan",
}


@dataclass(frozen=True)
class Token:
    kind: str   # "ident" | punctuation itself | "eof"
    text: str
    line: int
    column: int
    first_on_line: bool


def _lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        first = True
        while pos < len(line):
            ch = line[pos]
            if ch in " \t\r":
                pos += 1
                continue
            two = line[pos:pos + 2]
            if two == "->":
                tokens.append(Token("->", "->", lineno, pos + 1, first))
                pos += 2
            elif ch in "{}=,;:>()":
                tokens.append(Token(ch, ch, lineno, pos + 1, first))
                pos += 1
            else:
                m = _IDENT.match(line, pos)
                if m:
                    tokens.append(Token("ident", m.group(), lineno, pos + 1, first))
                    pos = m.end()
                else:
                    diags.append(Diagnostic(
                        "error", lineno, pos + 1,
                        f"unexpected character {ch!r}", "lex-unexpected-char"))
                    pos += 1
            first = False
    tokens.append(Token("eof", "", source.count("\n") + 1, 1, True))
    return tokens, diags


# --- Parser ------------------------------------------------------------------

class _SyntaxError(Exception):
    def __init__(self, token: Token, message: str, code: str):
        self.token = token
        self.message = message
        self.code = code


class _Parser:
    def __init__(self, source: str):
        self.tokens, lex_diags = _lex(source)
        self.diags: list[Diagnostic] = list(lex_diags)
        self.pos = 0
        # raw declarations, with positions for resolution diagnostics
        self.attrs: dict[str, set[str]] = {}
        self.groups: list[str] = []
        self.seniority: list[tuple[str, str]] = []
        self.roles: list[str] = []
        self.user_line: Optional[tuple[dict[str, set[str]], set[str]]] = None
        self.groupstates: dict[str, dict[str, set[str]]] = {}
        self.rules: list[Rule] = []
        self.queries: list[ReachabilityQuery] = []
        self.plans: list[Plan] = []

    # token helpers
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _SyntaxError(tok, f"expected {what}, found {tok.text or 'end of file'!r}",
                               "parse-expected")
        return self.advance()

    def ident(self, what: str) -> Token:
        return self.expect("ident", what)

    def error(self, tok: Token, message: str, code: str):
        self.diags.append(Diagnostic("error", tok.line, tok.column, message, code))

    def synchronize(self):
        """Skip to the next construct start so one error never hides the rest."""
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.first_on_line and tok.kind == "ident" and tok.text in _TOPLEVEL:
                return
            self.advance()

    # grammar
    def parse(self) -> ParseResult:
        while self.peek().kind != "eof":
            tok = self.peek()
            try:
                if tok.kind != "ident" or tok.text not in _TOPLEVEL:
                    raise _SyntaxError(tok, f"expected a declaration, found {tok.text!r}",
                                       "parse-toplevel")
                getattr(self, "parse_" + tok.text)()
            except _SyntaxError as exc:
                self.error(exc.token, exc.message, exc.code)
                self.synchronize()
        instance = self.resolve()
        return ParseResult(instance, self.queries, self.plans, self.diags)

    def parse_value_set(self) -> tuple[list[tuple[str, Token]], Token]:
        open_tok = self.expect("{", "'{'")
        items: list[tuple[str, Token]] = []
        if self.peek().kind == "}":
            self.advance()
            return items, open_tok
        while True:
            tok = self.ident("a value")
            items.append((tok.text, tok))
            if self.peek().kind == ",":
                self.advance()
                continue
            self.expect("}", "'}' or ','")
            return items, open_tok

    def parse_attr(self):
        self.advance()
        name = self.ident("an attribute name")
        kw = self.ident("'scope'")
        if kw.text != "scope":
            raise _SyntaxError(kw, f"expected 'scope', found {kw.text!r}", "parse-expected")
        values, brace = self.parse_value_set()
        if name.text in self.attrs:
            self.error(name, f"duplicate attribute {name.text!r}", "dup-attr")
            return
        if not values:
            self.error(brace, f"attribute {name.text!r} has an empty scope", "empty-scope")
        seen = set()
        for val, tok in values:
            if val in seen:
                self.error(tok, f"duplicate scope value {val!r}", "dup-value")
            seen.add(val)
        self.attrs[name.text] = seen

    def parse_group(self):
        self.advance()
        name = self.ident("a group name")
        if name.text in self.groups:
            self.error(name, f"duplicate group {name.text!r}", "dup-group")
            return
        self.groups.append(name.text)

    def parse_senior(self):
        self.advance()
        senior = self.ident("a group name")
        self.expect(">", "'>'")
        junior = self.ident("a group name")
        for tok in (senior, junior):
            if tok.text not in self.groups:
                self.error(tok, f"unknown group {tok.text!r}", "unknown-group")
        edge = (senior.text, junior.text)
        if edge in self.seniority:
            self.error(senior, f"duplicate seniority edge {senior.text} > {junior.text}",
                       "dup-edge")
            return
        self.seniority.append(edge)

    def parse_role(self):
        self.advance()
        name = self.ident("a role name")
        if name.text in self.roles:
            self.error(name, f"duplicate role {name.text!r}", "dup-role")
            return
        self.roles.append(name.text)

    def parse_assignment_block(self, allow_groups: bool):
        """`{ att = { ... } ... [groups = { ... }] }` with resolution checks."""
        self.expect("{", "'{'")
        attrs: dict[str, set[str]] = {}
        groups: Optional[set[str]] = None
        while self.peek().kind != "}":
            key = self.ident("an attribute name")
            self.expect("=", "'='")
            values, _ = self.parse_value_set()
            if allow_groups and key.text == "groups":
                if groups is not None:
                    self.error(key, "duplicate 'groups' entry", "dup-entry")
                groups = set()
                for g, tok in values:
                    if g not in self.groups:
                        self.error(tok, f"unknown group {g!r}", "unknown-group")
                    groups.add(g)
                continue
            if key.text in attrs:
                self.error(key, f"duplicate attribute entry {key.text!r}", "dup-entry")
                continue
            if key.text not in self.attrs:
                self.error(key, f"unknown attribute {key.text!r}", "unknown-attr")
                attrs[key.text] = set()
                continue
            scope = self.attrs[key.text]
            vals = set()
            for val, tok in values:
                if val not in scope:
                    self.error(tok, f"value {val!r} outside scope of {key.text!r}",
                               "scope-violation")
                else:
                    vals.add(val)
            attrs[key.text] = vals
        self.advance()
        return attrs, (groups if groups is not None else set())

    def parse_user(self):
        tok = self.advance()
        attrs, groups = self.parse_assignment_block(allow_groups=True)
        if self.user_line is not None:
            self.error(tok, "duplicate user block", "dup-user")
            return
        self.user_line = (attrs, groups)

    def parse_groupstate(self):
        self.advance()
        name = self.ident("a group name")
        if name.text not in self.groups:
            self.error(name, f"unknown group {name.text!r}", "unknown-group")
        attrs, _ = self.parse_assignment_block(allow_groups=False)
        if name.text in self.groupstates:
            self.error(name, f"duplicate groupstate for {name.text!r}", "dup-groupstate")
            return
        self.groupstates[name.text] = attrs

    # preconditions
    def parse_precondition(self) -> Precondition:
        parts = [self.parse_pre_term()]
        while self.peek().kind == "ident" and self.peek().text == "and":
            self.advance()
            parts.append(self.parse_pre_term())
        return conjunction(parts)

    def parse_pre_term(self) -> Precondition:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.parse_precondition()
            self.expect(")", "')'")
            return inner
        if tok.kind != "ident":
            raise _SyntaxError(tok, f"expected a precondition, found {tok.text!r}",
                               "parse-precondition")
        if tok.text == "true":
            self.advance()
            return TrueCond()
        if tok.text == "not":
            self.advance()
            self.expect("(", "'(' after 'not'")
            inner = self.parse_precondition()
            self.expect(")", "')'")
            return Not(inner)
        subject = self.advance()
        kw = self.ident("'in'")
        if kw.text != "in":
            raise _SyntaxError(kw, f"expected 'in', found {kw.text!r}", "parse-precondition")
        kind = self.ident("'direct', 'effective', 'directUg' or 'effUg'")
        if kind.text in ("direct", "effective"):
            self.expect("(", "'('")
            att = self.ident("an attribute name")
            self.expect(")", "')'")
            if att.text not in self.attrs:
                self.error(att, f"unknown attribute {att.text!r}", "unknown-attr")
            elif subject.text not in self.attrs[att.text]:
                self.error(subject, f"value {subject.text!r} outside scope of {att.text!r}",
                           "scope-violation")
            cls = DirectVal if kind.text == "direct" else EffVal
            return cls(att.text, subject.text)
        if kind.text in ("directUg", "effUg"):
            if subject.text not in self.groups:
                self.error(subject, f"unknown group {subject.text!r}", "unknown-group")
            return (DirectGroup if kind.text == "directUg" else EffGroup)(subject.text)
        raise _SyntaxError(kind, f"expected a membership kind, found {kind.text!r}",
                           "parse-precondition")

    def parse_rules(self):
        self.advance()
        self.expect("{", "'{'")
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind == "eof":
                raise _SyntaxError(tok, "unterminated rules block", "parse-unterminated")
            if tok.kind != "ident" or tok.text != "rule":
                raise _SyntaxError(tok, f"expected 'rule', found {tok.text!r}", "parse-rule")
            self.parse_rule()
        self.advance()

    def parse_rule(self):
        self.advance()  # 'rule'
        rel_tok = self.ident("a relation name")
        try:
            relation = Relation(rel_tok.text)
        except ValueError:
            raise _SyntaxError(rel_tok, f"unknown relation {rel_tok.text!r}",
                               "unknown-relation") from None
        att_tok = None
        if not relation.is_membership:
            att_tok = self.ident("an attribute name")
            if att_tok.text not in self.attrs:
                self.error(att_tok, f"unknown attribute {att_tok.text!r}", "unknown-attr")
        self.expect(":", "':'")
        role = self.ident("a role name")
        if role.text not in self.roles:
            self.error(role, f"unknown role {role.text!r}", "unknown-role")
        self.expect(",", "','")
        pre = self.parse_precondition()
        self.expect("->", "'->'")
        target = self.ident("a target value or group")
        if relation.is_membership:
            if target.text not in self.groups:
                self.error(target, f"unknown group {target.text!r}", "unknown-group")
            rule = Rule(relation, role.text, pre, target_group=target.text,
                        rule_id=len(self.rules))
        else:
            att = att_tok.text
            if att in self.attrs and target.text not in self.attrs[att]:
                self.error(target, f"value {target.text!r} outside scope of {att!r}",
                           "scope-violation")
            rule = Rule(relation, role.text, pre, target_attr=att,
                        target_val=target.text, rule_id=len(self.rules))
            for node in pre.walk():
                if isinstance(node, (DirectGroup, EffGroup)):
                    self.error(rel_tok, "group membership literal outside an "
                               "assign/remove rule", "group-literal-misplaced")
        self.rules.append(rule)

    def parse_query(self):
        self.advance()
        kind = self.ident("'strict' or 'relaxed'")
        if kind.text not in ("strict", "relaxed"):
            raise _SyntaxError(kind, f"expected 'strict' or 'relaxed', found {kind.text!r}",
                               "parse-query")
        self.expect("{", "'{'")
        entries: dict[str, frozenset[str]] = {}
        while self.peek().kind != "}":
            key = self.ident("'e_<attribute>(u)'")
            if not key.text.startswith("e_") or len(key.text) <= 2:
                raise _SyntaxError(key, f"expected 'e_<attribute>', found {key.text!r}",
                                   "parse-query")
            att = key.text[2:]
            self.expect("(", "'('")
            u = self.ident("'u'")
            if u.text != "u":
                raise _SyntaxError(u, f"expected 'u', found {u.text!r}", "parse-query")
            self.expect(")", "')'")
            self.expect("=", "'='")
            values, _ = self.parse_value_set()
            if att not in self.attrs:
                self.error(key, f"unknown attribute {att!r}", "unknown-attr")
            elif att in entries:
                self.error(key, f"duplicate query entry for {att!r}", "dup-entry")
            else:
                vals = set()
                for val, tok in values:
                    if val not in self.attrs[att]:
                        self.error(tok, f"value {val!r} outside scope of {att!r}",
                                   "scope-violation")
                    else:
                        vals.add(val)
                entries[att] = frozenset(vals)
            if self.peek().kind == ",":
                self.advance()
        self.advance()
        qt = QueryType.STRICT if kind.text == "strict" else QueryType.RELAXED
        self.queries.append(ReachabilityQuery(entries, qt))

    _REQUEST_KINDS = {
        "addU": (Relation.ADD_U, 3), "deleteU": (Relation.DELETE_U, 3),
        "addUG": (Relation.ADD_UG, 4), "deleteUG": (Relation.DELETE_UG, 4),
        "assign": (Relation.ASSIGN, 2), "remove": (Relation.REMOVE, 2),
    }

    def parse_plan(self):
        self.advance()
        self.expect("{", "'{'")
        requests: list[Request] = []
        while self.peek().kind != "}":
            name = self.ident("a request")
            spec = self._REQUEST_KINDS.get(name.text)
            if spec is None:
                raise _SyntaxError(name, f"unknown request kind {name.text!r}",
                                   "unknown-request")
            relation, arity = spec
            self.expect("(", "'('")
            args: list[Token] = []
            for i in range(arity):
                if i:
                    self.expect(",", "','")
                args.append(self.ident("an argument"))
            self.expect(")", "')'")
            requests.append(self.build_request(name, relation, args))
            if self.peek().kind == ";":
                self.advance()
        self.advance()
        self.plans.append(Plan(tuple(requests)))

    def build_request(self, name: Token, relation: Relation, args: list[Token]) -> Request:
        role = args[0]
        if role.text not in self.roles:
            self.error(role, f"unknown role {role.text!r}", "unknown-role")
        if relation.is_membership:
            group = args[1]
            if group.text not in self.groups:
                self.error(group, f"unknown group {group.text!r}", "unknown-group")
            return Request(relation, role.text, group=group.text)
        if relation in (Relation.ADD_UG, Relation.DELETE_UG):
            group, att, val = args[1], args[2], args[3]
            if group.text not in self.groups:
                self.error(group, f"unknown group {group.text!r}", "unknown-group")
        else:
            group, att, val = None, args[1], args[2]
        if att.text not in self.attrs:
            self.error(att, f"unknown attribute {att.text!r}", "unknown-attr")
        elif val.text not in self.attrs[att.text]:
            self.error(val, f"value {val.text!r} outside scope of {att.text!r}",
                       "scope-violation")
        return Request(relation, role.text, att=att.text, val=val.text,
                       group=group.text if group else None)

    def resolve(self) -> Optional[ProblemInstance]:
        if any(d.severity == "error" for d in self.diags):
            return None
        try:
            hierarchy = GroupHierarchy(frozenset(self.groups), frozenset(self.seniority))
        except ModelError as exc:
            # senior lines carry no position, so the cycle is reported at 1:1
            self.diags.append(Diagnostic("error", 1, 1, str(exc), "hierarchy-cycle"))
            return None
        user_attrs, user_groups = self.user_line or ({}, set())
        state = DirectState(user_attrs, self.groupstates, frozenset(user_groups))
        return ProblemInstance(
            scopes={a: frozenset(vs) for a, vs in self.attrs.items()},
            hierarchy=hierarchy,
            roles=frozenset(self.roles),
            rules=RuleSet(tuple(self.rules)),
            initial_state=state,
        )


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
