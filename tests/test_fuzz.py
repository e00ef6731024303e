import subprocess
import sys

import pytest

from gurag_reach import planner, search
from gurag_reach.fuzz import CLASSES, check_case, generate, run_fuzz
from gurag_reach.model import validate_instance
from gurag_reach.transition import Plan

from conftest import child_env


@pytest.mark.parametrize("cls", CLASSES)
def test_generation_is_deterministic(cls):
    assert generate(cls, 42) == generate(cls, 42)
    assert generate(cls, 42) != generate(cls, 43)


_SERIALIZE_SEEDS = """
from gurag_reach.dsl import serialize
from gurag_reach.fuzz import CLASSES, generate
for cls in CLASSES:
    for seed in range(40):
        instance, q = generate(cls, seed)
        print(serialize(instance, [q]))
"""


def test_generation_does_not_depend_on_hash_seed():
    runs = [
        subprocess.run([sys.executable, "-c", _SERIALIZE_SEEDS], capture_output=True,
                       env=child_env(PYTHONHASHSEED=str(h)))
        for h in (0, 1)
    ]
    first, second = (r.stdout for r in runs)
    assert first and first == second, [
        (r.returncode, r.stderr.decode(errors="replace")) for r in runs]


@pytest.mark.parametrize("cls", CLASSES)
def test_generated_instances_are_well_formed(cls):
    for seed in range(50):
        instance, q = generate(cls, seed)
        assert validate_instance(instance) == [], (cls, seed)
        for att, vset in q.entries.items():
            assert vset <= instance.scopes[att]


def test_nonneg_class_satisfies_its_restrictions():
    for seed in range(50):
        instance, _ = generate("nonneg", seed)
        flags = instance.rules.restrictions
        assert flags.no_negation and flags.no_deletion, seed


def test_srd_class_satisfies_its_restrictions():
    for seed in range(50):
        instance, _ = generate("srd", seed)
        flags = instance.rules.restrictions
        assert flags.no_deletion and flags.single_rule_direct, seed


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        generate("everything", 0)


@pytest.mark.parametrize("cls", CLASSES)
def test_planner_oracle_agreement(cls):
    cases = run_fuzz(cls, 120, seed=0)
    assert len(cases) == 120
    failures = [(c.seed, c.detail) for c in cases
                if c.status not in ("agree", "known-divergence", "skipped")]
    assert failures == []


def test_check_case_statuses_are_recorded():
    cases = run_fuzz("srd", 30, seed=500)
    assert [c.seed for c in cases] == list(range(500, 530))
    assert cases == [check_case("srd", seed) for seed in range(500, 530)]


def test_case_result_is_deterministic():
    assert check_case("any", 17) == check_case("any", 17)


def test_plan_failing_replay_is_an_invalid_plan(monkeypatch):
    solve = planner.solve_srd_no_delete

    def dropping_first_request(instance, q):
        res = solve(instance, q)
        return type(res).found(Plan(res.plan.requests[1:]), res.notes)

    assert len(solve(*generate("srd", 0)).plan) == 2
    monkeypatch.setattr(planner, "solve_srd_no_delete", dropping_first_request)
    case = check_case("srd", 0)
    assert case.status == "invalid-plan"
    assert case.detail.startswith("srd plan")
    assert run_fuzz("srd", 1) == [case]


def test_any_class_judges_auto_mode(monkeypatch):
    # auto mode runs the srd planner on this case, not the oracle; the first
    # request of its plan can be dropped, the last cannot
    instance, q = generate("any", 131)
    answer = search.analyze(instance, q)
    assert (answer.engine, len(answer.plan)) == ("srd", 2)
    assert check_case("any", 131).status == "agree"
    solve = planner.solve_srd_no_delete

    def dropping_last_request(instance, q):
        res = solve(instance, q)
        return type(res).found(Plan(res.plan.requests[:-1]), res.notes)

    monkeypatch.setattr(planner, "solve_srd_no_delete", dropping_last_request)
    case = check_case("any", 131)
    assert (case.status, case.detail) == (
        "invalid-plan", "srd plan replays but leaves the query unsatisfied")


def test_plan_found_only_after_the_srd_fallback_is_a_known_divergence():
    # the group phase discards a cycle here and the oracle finds a plan
    case = check_case("srd", 1815)
    assert (case.status, case.detail) == ("known-divergence", "cyclic group dependencies discarded")
