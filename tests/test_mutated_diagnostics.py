"""The parser's diagnostics on mutated files, frozen per case.

``tests/data/mutated_diagnostics.json`` holds, for each of ``CASES`` seeded
cases, the class, fuzz seed and word edits that make a file (``mutate`` over
the serialized ``fuzz.generate`` document and its query), a short SHA-256 of
that file, ``parse``'s ``result.ok`` and its rendered diagnostics in order.
The malformed corpus pins the text of 50 hand-written files; these pin the
positions, messages and error recovery on many more.

Regenerate it with ``PYTHONPATH=src python tests/test_mutated_diagnostics.py``
only when a change of diagnostic text, position or recovery is intended.
"""

import hashlib
import json
import pathlib
import random
import sys

from gurag_reach.dsl import parse, serialize
from gurag_reach.fuzz import CLASSES, generate

from test_dsl import VOCABULARY, mutate

FROZEN = pathlib.Path(__file__).parent / "data" / "mutated_diagnostics.json"
CASES = 300


def mutated_case(case: int) -> tuple[str, int, list[tuple[str, int, str]]]:
    """Class, fuzz seed and one to four word edits of case ``case``."""
    rng = random.Random(case)
    edits = [(rng.choice(("delete", "insert", "replace")), rng.randrange(10_000),
              rng.choice(VOCABULARY)) for _ in range(rng.randint(1, 4))]
    return CLASSES[case % len(CLASSES)], rng.randrange(10_000), edits


def mutated_source(cls: str, seed: int, edits) -> str:
    instance, q = generate(cls, seed)
    return mutate(serialize(instance, [q]), edits)


def outcome(case: int) -> dict:
    cls, seed, edits = mutated_case(case)
    source = mutated_source(cls, seed, edits)
    result = parse(source)
    return {"class": cls, "seed": seed, "edits": [list(edit) for edit in edits],
            "source": hashlib.sha256(source.encode()).hexdigest()[:16],
            "ok": result.ok, "diagnostics": [d.render() for d in result.diagnostics]}


def test_corpus_reaches_lexer_parser_and_resolution_errors():
    frozen = json.loads(FROZEN.read_text())
    assert len(frozen) == CASES
    codes = {d.rsplit("[", 1)[1] for entry in frozen for d in entry["diagnostics"]}
    assert {"lex-unexpected-char]", "parse-expected]", "unknown-attr]"} <= codes
    assert any("#" in edit for entry in frozen for edit in entry["edits"])


def test_diagnostics_match_frozen():
    frozen = json.loads(FROZEN.read_text())
    differing = [case for case, entry in enumerate(frozen) if outcome(case) != entry]
    assert not differing, f"outcomes differ at cases {differing[:10]}"


if __name__ == "__main__":
    doc = [outcome(case) for case in range(CASES)]
    FROZEN.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in doc) + "\n]\n")
    print(f"wrote {len(doc)} cases to {FROZEN}", file=sys.stderr)
