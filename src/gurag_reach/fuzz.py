"""Seeded instance generators and differential checking against the search oracle.

Three generator classes:

* ``nonneg`` — negation-free, no delete/remove rules, small enough that the
  exhaustive search always closes the state space.  The forward-fixpoint
  planner must agree with the oracle exactly.
* ``srd`` — no delete/remove rules, one rule per value pair and per group,
  direct-only conjuncts (negation allowed).  The two-phase planner must agree
  except where it deliberately discards cyclic group dependencies; those cases
  are recorded as known divergences, not failures.
* ``any`` — unrestricted.  Auto mode, whichever engine it picks, must agree
  with the oracle, every plan must replay, and the text format must
  round-trip.

Everything is a pure function of the seed.
"""

from __future__ import annotations

import random

from ._record import Frozen
from .encoding import candidate_requests
from .model import DirectState, GroupHierarchy, ProblemInstance, effective_user_attr
from .policy import (
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
from .search import SearchBounds, analyze
from .transition import QueryType, ReachabilityQuery, WorkingState, _denial

CLASSES = ("nonneg", "srd", "any")


def _gen_scopes(rng: random.Random, max_total: int,
                max_atts: int = 3) -> dict[str, frozenset[str]]:
    n_atts = rng.randint(1, max_atts)
    scopes: dict[str, frozenset[str]] = {}
    budget = max_total
    for i in range(n_atts):
        width = rng.randint(1, min(3, budget - (n_atts - 1 - i)))
        budget -= width
        att = f"a{i}"
        scopes[att] = frozenset(f"v{i}{j}" for j in range(width))
    return scopes


def _gen_hierarchy(rng: random.Random, n_groups: int) -> GroupHierarchy:
    groups = [f"G{i}" for i in range(n_groups)]
    edges = set()
    # edges only from lower to higher index: acyclic by construction
    for i in range(n_groups):
        for j in range(i + 1, n_groups):
            if rng.random() < 0.4:
                edges.add((groups[i], groups[j]))
    return GroupHierarchy(frozenset(groups), frozenset(edges))


def _value_literal(rng: random.Random, scopes, allow_effective: bool):
    att = rng.choice(sorted(scopes))
    val = rng.choice(sorted(scopes[att]))
    if allow_effective and rng.random() < 0.4:
        return EffVal(att, val)
    return DirectVal(att, val)


def _gen_state(rng: random.Random, scopes, groups, density=0.25) -> DirectState:
    # iterate values in sorted order: a frozenset's order follows string
    # hashing, which would make the instance depend on PYTHONHASHSEED
    user_attrs = {
        att: frozenset(v for v in sorted(vals) if rng.random() < density)
        for att, vals in scopes.items()
    }
    group_attrs = {
        g: {att: frozenset(v for v in sorted(vals) if rng.random() < density)
            for att, vals in scopes.items()}
        for g in groups
    }
    user_groups = frozenset(g for g in groups if rng.random() < density)
    return DirectState(user_attrs, group_attrs, user_groups)


def _rule(rng: random.Random, rel: Relation, parts, roles, scopes, groups) -> Rule:
    """A ``rel`` rule over the conjunction of ``parts``, with a random role and
    target, drawn in that order (the attribute of a value target first)."""
    if rel.is_membership:
        return Rule(rel, rng.choice(roles), conjunction(parts),
                    target_group=rng.choice(groups))
    att = rng.choice(sorted(scopes))
    return Rule(rel, rng.choice(roles), conjunction(parts), target_attr=att,
                target_val=rng.choice(sorted(scopes[att])))


def _gen_query(
    rng: random.Random, instance: ProblemInstance, strict_full: bool
) -> ReachabilityQuery:
    """Target sets biased toward reachable by simulating random requests."""
    requests = [req for req, _ in candidate_requests(instance)]
    state = WorkingState(instance.initial_state)
    for _ in range(rng.randint(0, 8)):
        cands = [req for req in requests
                 if _denial(state, instance.hierarchy, instance.rules, req) is None]
        if not cands:
            break
        state.apply(rng.choice(cands))

    atts = list(instance.attributes)
    if not strict_full:
        atts = [a for a in atts if rng.random() < 0.7] or [rng.choice(atts)]
    entries = {}
    for att in atts:
        eff = effective_user_attr(state, instance.hierarchy, att)
        vals = set(eff)
        # perturb to also exercise unreachable targets
        for v in sorted(instance.scopes[att]):
            if rng.random() < 0.15:
                vals.symmetric_difference_update({v})
        entries[att] = frozenset(vals)
    qt = QueryType.STRICT if (strict_full or rng.random() < 0.5) else QueryType.RELAXED
    return ReachabilityQuery(entries, qt)


def generate(cls: str, seed: int) -> tuple[ProblemInstance, ReachabilityQuery]:
    """Deterministically generate one (instance, query) in the given class."""
    if cls not in CLASSES:
        raise ValueError(f"unknown generator class {cls!r}")
    rng = random.Random((cls, seed).__repr__())
    # the nonneg envelope stays small enough that the oracle always closes
    # the monotone state space within default bounds
    scopes = _gen_scopes(rng, max_total=5 if cls == "nonneg" else (4 if cls == "srd" else 6),
                         max_atts=2 if cls == "nonneg" else 3)
    n_groups = rng.randint(0, 2)
    hierarchy = _gen_hierarchy(rng, n_groups)
    groups = sorted(hierarchy.groups)
    roles = [f"r{i}" for i in range(rng.randint(1, 2))]

    rules: list[Rule] = []
    n_rules = rng.randint(2, 10)

    if cls == "nonneg":
        relations = [Relation.ADD_U, Relation.ADD_UG, Relation.ASSIGN]
        for _ in range(n_rules):
            rel = rng.choice(relations if groups else [Relation.ADD_U])
            parts = [_value_literal(rng, scopes, allow_effective=True)
                     for _ in range(rng.randint(0, 2))]
            if rel == Relation.ASSIGN and rng.random() < 0.5:
                cls_lit = EffGroup if rng.random() < 0.5 else DirectGroup
                parts.append(cls_lit(rng.choice(groups)))
            rules.append(_rule(rng, rel, parts, roles, scopes, groups))
    elif cls == "srd":
        pairs = [(att, val) for att in sorted(scopes) for val in sorted(scopes[att])]
        rng.shuffle(pairs)
        for att, val in pairs[: rng.randint(1, len(pairs))]:
            rel = Relation.ADD_UG if (groups and rng.random() < 0.4) else Relation.ADD_U
            parts = []
            for _ in range(rng.randint(0, 2)):
                lit = _value_literal(rng, scopes, allow_effective=False)
                parts.append(Not(lit) if rng.random() < 0.3 else lit)
            rules.append(Rule(rel, rng.choice(roles), conjunction(parts),
                              target_attr=att, target_val=val))
        for g in groups:
            if rng.random() < 0.8:
                # assign preconditions over memberships only, possibly negated
                parts = []
                for other in groups:
                    if other != g and rng.random() < 0.3:
                        lit = DirectGroup(other)
                        parts.append(Not(lit) if rng.random() < 0.4 else lit)
                rules.append(Rule(Relation.ASSIGN, rng.choice(roles),
                                  conjunction(parts), target_group=g))
    else:  # any
        for _ in range(n_rules):
            rel = rng.choice(list(Relation) if groups
                             else [Relation.ADD_U, Relation.DELETE_U])
            parts = [_value_literal(rng, scopes, allow_effective=True)
                     for _ in range(rng.randint(0, 2))]
            parts = [Not(p) if rng.random() < 0.25 else p for p in parts]
            if rel.is_membership and rng.random() < 0.4:
                glit = (EffGroup if rng.random() < 0.5 else DirectGroup)(rng.choice(groups))
                parts.append(Not(glit) if rng.random() < 0.3 else glit)
            rules.append(_rule(rng, rel, parts, roles, scopes, groups))

    instance = ProblemInstance(
        scopes=scopes,
        hierarchy=hierarchy,
        roles=frozenset(roles),
        rules=RuleSet.build(rules),
        initial_state=_gen_state(rng, scopes, groups),
    )
    q = _gen_query(rng, instance, strict_full=(cls == "srd"))
    return instance, q


# --- Differential checking ---------------------------------------------------

class CaseResult(Frozen):
    _fields = ("cls", "seed", "status", "detail")

    def __init__(self, cls: str, seed: int, status: str, detail: str = ""):
        # status: "agree" | "diverge" | "known-divergence" | "skipped" | "invalid-plan"
        self.__dict__.update(cls=cls, seed=seed, status=status, detail=detail)


def check_case(cls: str, seed: int, bounds: SearchBounds = SearchBounds()) -> CaseResult:
    """Judge one generated case against the oracle's answer: for ``nonneg``
    and ``srd`` the answer of the engine of that name, and for ``any`` the
    answer of auto mode.  Both answers come through ``analyze``, which replays
    every plan it returns."""
    instance, q = generate(cls, seed)
    try:
        oracle = analyze(instance, q, "bfs", bounds)
        if oracle.outcome == "bound-exceeded":
            return CaseResult(cls, seed, "skipped", f"oracle hit {oracle.bound} bound")
        answer = analyze(instance, q, "auto" if cls == "any" else cls, bounds)
    except RuntimeError as exc:  # a plan that fails replay
        return CaseResult(cls, seed, "invalid-plan", str(exc))

    if answer.engine == "srd+bfs" and oracle.outcome == "reachable":
        # the planner failed after discarding a group cycle, and bfs settled it
        return CaseResult(cls, seed, "known-divergence", "cyclic group dependencies discarded")
    if answer.outcome == oracle.outcome:
        return CaseResult(cls, seed, "agree")
    if answer.outcome == "reachable":
        return CaseResult(cls, seed, "diverge", "planner found a plan the oracle calls unreachable")
    return CaseResult(cls, seed, "diverge",
                      f"oracle reachable but planner failed: {answer.reason}")


def run_fuzz(cls: str, count: int, seed: int = 0,
             bounds: SearchBounds = SearchBounds()) -> list[CaseResult]:
    """The judged cases of ``count`` seeds from ``seed`` on, in seed order."""
    return [check_case(cls, seed + i, bounds) for i in range(count)]
