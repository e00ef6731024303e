"""The benchmark measures what the CLI prints.

The in-process workloads answer each query through
``perfbench/pipeline.answer``, which runs its own copy of the CLI's engine
choice and fallback.  If that copy drifts from ``search.analyze``, the
benchmark times answers that no user sees; so for every golden and malformed
file, under each command that the cli-golden workload runs on it, and for
serialized fuzz documents, its exit code and report must be the CLI's exit
code and stdout; and its auto rule must pick ``analyze``'s engine under every
combination of restriction flags.
"""

import importlib.util
import pathlib
import sys

import pytest

from gurag_reach.dsl import parse, serialize
from gurag_reach.fuzz import CLASSES, generate
from gurag_reach.search import SearchBounds, analyze

from conftest import GOLDEN, MALFORMED, run_cli
from test_planner import ADMISSION_QUERY, ADMISSION_TABLE, admission_case, admission_id

PIPELINE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pipeline.py"


@pytest.fixture(scope="module")
def pipeline():
    # registered before it runs, as its dataclass looks its module up there
    spec = importlib.util.spec_from_file_location("perfbench_pipeline", PIPELINE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def commands(text):
    """The commands the cli-golden workload runs on a file with this text."""
    result = parse(text)
    return ["classify"] + (["solve", "oracle"] + (["validate"] if result.plans else [])
                           if result.queries else [])


def assert_same_answer(pipeline, command, path):
    outcome = pipeline.answer(command, path.read_text(), SearchBounds())
    res = run_cli(command, str(path))
    assert (outcome.code, outcome.report + "\n" if outcome.report else "") == \
        (res.exit_code, res.stdout), (command, path.name)


def test_fixtures(pipeline):
    paths = sorted(GOLDEN.glob("*.gurag")) + sorted(MALFORMED.glob("*.gurag"))
    for path in paths:
        for command in commands(path.read_text()):
            assert_same_answer(pipeline, command, path)


@pytest.mark.parametrize("cls", CLASSES)
def test_fuzz_documents(pipeline, tmp_path, cls):
    path = tmp_path / "case.gurag"
    for seed in range(40):
        instance, q = generate(cls, seed)
        path.write_text(serialize(instance, [q]))
        for command in ("classify", "solve", "oracle"):
            assert_same_answer(pipeline, command, path)


@pytest.mark.parametrize("combo", ADMISSION_TABLE, ids=admission_id)
def test_choose_engine_is_the_auto_rule(pipeline, combo):
    # every (negation, deletion, SR_d) combination, which fuzz documents
    # do not all reach
    instance = admission_case(*combo)
    assert pipeline.choose_engine(instance.rules.restrictions) == \
        analyze(instance, ADMISSION_QUERY).engine
