"""The polynomial planners' answers, frozen per seed.

``tests/data/planner_answers.json`` holds, for each case, a short SHA-256 of
the planners' answer repr for the case's query and for its relaxed copy:

* ``nonneg``: ``solve_no_negation`` on fuzz seeds 0-499 of the class;
* ``srd``: ``solve_srd_no_delete``, ``group_phase`` and ``attr_phase`` (from
  the initial state) on fuzz seeds 0-499 of the class;
* ``srd-groups``: the same three on the 3-5 group instances of
  ``srd_groups_case`` for seeds 0-499, where fuzz has at most 2 groups.  An
  instance outside the srd class (an assign rule that reads a value) is
  recorded as the ``RestrictionViolation`` the planners raise.

Regenerate it with ``PYTHONPATH=src python tests/test_planner_answers.py``
only when a change of plan, reason code or note is intended.
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from gurag_reach import fuzz
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance
from gurag_reach.planner import (
    RestrictionViolation,
    attr_phase,
    group_phase,
    solve_no_negation,
    solve_srd_no_delete,
)
from gurag_reach.policy import DirectGroup, DirectVal, Not, Relation, Rule, RuleSet, conjunction
from gurag_reach.transition import QueryType, ReachabilityQuery

ANSWERS = pathlib.Path(__file__).parent / "data" / "planner_answers.json"
SEEDS = range(500)


def srd_groups_case(seed: int) -> tuple[ProblemInstance, ReachabilityQuery]:
    """A deletion-free instance with 3-5 groups, seniority edges, one rule per
    value pair and per group, assign rules over memberships (and now and then
    a value, which puts the instance outside the srd class), and a random
    query."""
    rng = random.Random(seed)
    groups = [f"G{i}" for i in range(rng.randint(3, 5))]
    seniority = {(a, b) for i, a in enumerate(groups) for b in groups[i + 1:]
                 if rng.random() < 0.3}
    scopes = {att: frozenset(f"{att}{j}" for j in range(rng.randint(1, 3)))
              for att in ("a", "b")[:rng.randint(1, 2)]}

    def maybe_not(lit):
        return Not(lit) if rng.random() < 0.3 else lit

    def value():
        att = rng.choice(sorted(scopes))
        return DirectVal(att, rng.choice(sorted(scopes[att])))

    def subset(vals, p):
        return frozenset(v for v in sorted(vals) if rng.random() < p)

    rules = []
    for att in sorted(scopes):
        for val in sorted(scopes[att]):
            if rng.random() < 0.8:
                rel = Relation.ADD_UG if rng.random() < 0.5 else Relation.ADD_U
                parts = [maybe_not(value()) for _ in range(rng.randint(0, 2))]
                rules.append(Rule(rel, "r", conjunction(parts), target_attr=att, target_val=val))
    for g in groups:
        if rng.random() < 0.85:
            parts = [maybe_not(DirectGroup(other)) for other in groups
                     if other != g and rng.random() < 0.35]
            if rng.random() < 0.2:
                parts.append(maybe_not(value()))
            rules.append(Rule(Relation.ASSIGN, "r", conjunction(parts), target_group=g))
    state = DirectState(
        {att: subset(scopes[att], 0.2) for att in sorted(scopes)},
        {g: {att: subset(scopes[att], 0.2) for att in sorted(scopes)} for g in groups},
        subset(groups, 0.2),
    )
    instance = ProblemInstance(scopes=scopes,
                               hierarchy=GroupHierarchy(frozenset(groups), frozenset(seniority)),
                               roles=frozenset({"r"}), rules=RuleSet.build(rules),
                               initial_state=state)
    entries = {att: subset(scopes[att], 0.5) for att in sorted(scopes) if rng.random() < 0.8}
    query_type = QueryType.STRICT if rng.random() < 0.5 else QueryType.RELAXED
    return instance, ReachabilityQuery(entries, query_type)


def srd_answer(instance, q):
    try:
        return (solve_srd_no_delete(instance, q), group_phase(instance, q),
                attr_phase(instance, instance.initial_state, q))
    except RestrictionViolation as violation:
        return violation


CASES = {
    "nonneg": (lambda seed: fuzz.generate("nonneg", seed), solve_no_negation),
    "srd": (lambda seed: fuzz.generate("srd", seed), srd_answer),
    "srd-groups": (srd_groups_case, srd_answer),
}


def digest(answer) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()[:16]


def answers(name: str) -> list[str]:
    """'<query digest> <relaxed-copy digest>' for each seed of one case set."""
    case, answer = CASES[name]
    out = []
    for seed in SEEDS:
        instance, q = case(seed)
        out.append(f"{digest(answer(instance, q))} {digest(answer(instance, q.relaxed_copy()))}")
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_answers_match_frozen(name):
    frozen = json.loads(ANSWERS.read_text())[name]
    now = answers(name)
    assert len(now) == len(frozen)
    differing = [seed for seed, a, b in zip(SEEDS, now, frozen) if a != b]
    assert not differing, f"{name}: answers differ at seeds {differing[:10]}"


def test_srd_groups_case_has_many_groups_and_is_srd():
    # in the srd class exactly when no assign rule reads a value
    for seed in SEEDS:
        instance, _ = srd_groups_case(seed)
        flags = instance.rules.restrictions
        reads_value = any(isinstance(node, DirectVal) for rule in instance.rules
                          if rule.relation == Relation.ASSIGN for node in rule.pre.walk())
        assert 3 <= len(instance.groups) <= 5
        assert flags.no_deletion and flags.single_rule_direct != reads_value, seed


if __name__ == "__main__":
    doc = {name: answers(name) for name in sorted(CASES)}
    ANSWERS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, doc.values()))} answers to {ANSWERS}", file=sys.stderr)
