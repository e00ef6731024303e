"""Every ``ParseResult`` the parser gives on a fixed corpus, frozen as a digest.

``tests/data/parse_digests.json`` maps each document of the corpus (the
golden and malformed files, fuzz seeds 0-399 of each class with their query,
and the mutated cases of ``test_mutated_diagnostics``) to a short SHA-256 of
its ``ParseResult``: instance, queries, plans and diagnostics.  The digest
is taken over ``stable_repr``, which is ``repr`` with every set's elements
sorted, so it does not depend on ``PYTHONHASHSEED``.  A parser fast path that
changed any field of any result, or the order of the diagnostics, shows here.

Regenerate it with ``PYTHONPATH=src python tests/test_parse_digests.py`` only
when a change of parse results is intended.
"""

import hashlib
import json
import pathlib
import sys

from gurag_reach._record import Record
from gurag_reach.dsl import parse
from gurag_reach.fuzz import CLASSES

from conftest import GOLDEN, MALFORMED
from test_mutated_diagnostics import CASES, fuzz_document, mutated_case, mutated_source

FROZEN = pathlib.Path(__file__).parent / "data" / "parse_digests.json"
FUZZ_SEEDS = 400


def stable_repr(value) -> str:
    """``repr(value)``, but with the elements of every set in sorted order."""
    if isinstance(value, Record):
        fields = ", ".join(f"{name}={stable_repr(getattr(value, name))}"
                           for name in value._fields)
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, (set, frozenset)):
        return f"{type(value).__name__}({{{', '.join(sorted(map(stable_repr, value)))}}})"
    if isinstance(value, dict):
        items = ", ".join(f"{stable_repr(k)}: {stable_repr(v)}" for k, v in value.items())
        return f"{{{items}}}"
    if isinstance(value, (list, tuple)):
        items = [stable_repr(item) for item in value]
        if isinstance(value, list):
            return f"[{', '.join(items)}]"
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    return repr(value)


def documents():
    """(name, source) for each document of the corpus."""
    for directory in (GOLDEN, MALFORMED):
        for path in sorted(directory.glob("*.gurag")):
            yield f"{directory.name}/{path.name}", path.read_text()
    for cls in CLASSES:
        for seed in range(FUZZ_SEEDS):
            yield f"fuzz/{cls}/{seed}", fuzz_document(cls, seed)
    for case in range(CASES):
        yield f"mutated/{case}", mutated_source(*mutated_case(case))


def digest(source: str) -> str:
    return hashlib.sha256(stable_repr(parse(source)).encode()).hexdigest()[:16]


def test_stable_repr_is_repr_up_to_set_order():
    result = parse((GOLDEN / "chain.gurag").read_text())
    assert stable_repr(result.diagnostics) == repr(result.diagnostics)
    assert stable_repr(result.plans) == repr(result.plans)
    assert stable_repr(frozenset({("b", "a"), ("a", "b")})) == "frozenset({('a', 'b'), ('b', 'a')})"


def test_parse_results_match_frozen():
    frozen = json.loads(FROZEN.read_text())
    current = {name: digest(source) for name, source in documents()}
    assert current.keys() == frozen.keys()
    differing = [name for name in frozen if current[name] != frozen[name]]
    assert not differing, f"parse results differ on {differing[:10]}"


if __name__ == "__main__":
    doc = {name: digest(source) for name, source in documents()}
    FROZEN.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(doc)} digests to {FROZEN}", file=sys.stderr)
