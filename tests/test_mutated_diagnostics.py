"""The parser's diagnostics on mutated files, frozen per case.

``tests/data/mutated_diagnostics.json`` holds, for each of ``CASES`` seeded
cases, the class, fuzz seed and word edits that make a file (``mutate`` over
the serialized ``fuzz.generate`` document and its query), a short SHA-256 of
that file, ``parse``'s ``result.ok`` and its rendered diagnostics in order.
The malformed corpus pins the text of 50 hand-written files; these pin the
positions, messages and error recovery on many more.

Regenerate it with ``PYTHONPATH=src python tests/test_mutated_diagnostics.py``
only when a change of diagnostic text, position or recovery is intended.

The same corpus, widened, pins the parser as the one well-formedness gate:
whatever parses cleanly passes every later check.
"""

import hashlib
import json
import pathlib
import random
import sys

from gurag_reach.dsl import parse, serialize
from gurag_reach.encoding import compile_instance
from gurag_reach.fuzz import CLASSES, generate
from gurag_reach.model import validate_instance

from conftest import GOLDEN, MALFORMED, one_rule_document
from test_dsl import VOCABULARY, mutate

FROZEN = pathlib.Path(__file__).parent / "data" / "mutated_diagnostics.json"
CASES = 300


def mutated_case(case: int) -> tuple[str, int, list[tuple[str, int, str]]]:
    """Class, fuzz seed and one to four word edits of case ``case``."""
    rng = random.Random(case)
    edits = [(rng.choice(("delete", "insert", "replace")), rng.randrange(10_000),
              rng.choice(VOCABULARY)) for _ in range(rng.randint(1, 4))]
    return CLASSES[case % len(CLASSES)], rng.randrange(10_000), edits


def fuzz_document(cls: str, seed: int) -> str:
    """The serialized ``fuzz.generate`` document of a class and seed, with its query."""
    instance, q = generate(cls, seed)
    return serialize(instance, [q])


def mutated_source(cls: str, seed: int, edits) -> str:
    return mutate(fuzz_document(cls, seed), edits)


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


def negated_conjunction_documents():
    """One-rule documents whose negated conjunctions expand to 64 clauses or
    fewer, or to more; (whether within the bound, document)."""
    pair = "not(x in direct(a) and y in direct(a))"
    for n in (63, 64, 65, 1200):  # n clauses
        yield n <= 64, one_rule_document(f"not({' and '.join(['x in direct(a)'] * n)})")
    for n in (6, 7):  # 2**n clauses
        yield n <= 6, one_rule_document(" and ".join([pair] * n))
        yield n <= 6, one_rule_document(f"not(not({' and '.join([pair] * n)}))")
    # under a negated conjunction each not(a and b) is a and b again, one clause
    yield True, one_rule_document(f"not({' and '.join([pair] * 7)})")


def test_clean_parse_passes_every_later_check():
    """``parse(text).ok`` is the one well-formedness gate: an instance that
    parses cleanly passes ``validate_instance``, and compiles for the kernels."""
    documents = [path.read_text() for directory in (GOLDEN, MALFORMED)
                 for path in sorted(directory.glob("*.gurag"))]
    documents += [mutated_source(*mutated_case(case)) for case in range(CASES + 2_000)]
    documents += [fuzz_document(cls, seed) for cls in CLASSES for seed in range(2_000)]
    bounded = list(negated_conjunction_documents())
    assert [parse(document).ok for _, document in bounded] == [ok for ok, _ in bounded]
    clean = 0
    for document in documents + [document for _, document in bounded]:
        result = parse(document)
        if result.ok:
            clean += 1
            assert validate_instance(result.instance) == [], document
            compile_instance(result.instance)
    assert clean > 6_000


if __name__ == "__main__":
    doc = [outcome(case) for case in range(CASES)]
    FROZEN.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in doc) + "\n]\n")
    print(f"wrote {len(doc)} cases to {FROZEN}", file=sys.stderr)
