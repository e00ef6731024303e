"""Build a workload's queries from its seed and serialise them to ``.gurag`` text.

Run as a child process by ``run.py`` during set-up::

    python3 perfbench/gen.py --workload fuzz-mix --seed 3 --out FILE

It writes ``{"digest", "generate_ms", "queries": [...]}`` to FILE.  A query is
``{"id", "command", "text", "bounds", "expect", "path"}``: ``bounds`` are the
CLI's ``--max-depth/--max-states/--max-ms``, ``expect`` what is known about
the answer by construction (``None`` where the worker computes a reference),
``path`` the file a CLI run reads (cli-golden only).  ``digest`` is a sha256
over the serialised texts, so a change in what the generators produce is
visible and never mistaken for a change in speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import bench_kernel  # noqa: E402  the independent(n) and chain(n) builders
from gurag_reach import fuzz  # noqa: E402
from gurag_reach.dsl import parse, serialize  # noqa: E402
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance  # noqa: E402
from gurag_reach.policy import Relation, Rule, RuleSet, TrueCond  # noqa: E402
from gurag_reach.transition import ReachabilityQuery  # noqa: E402

GOLDEN_DIR = os.path.join("tests", "data", "golden")
# the CLI's defaults for --max-depth, --max-states and --max-ms
CLI_BOUNDS = (32, 1 << 20, 30_000)


def _query(qid, command, text, bounds=CLI_BOUNDS, expect=None, path=None):
    return {"id": qid, "command": command, "text": text, "bounds": list(bounds),
            "expect": expect, "path": path}


def cli_golden(seed: int):
    """Every golden file under every CLI command that applies to it."""
    queries = []
    for name in sorted(os.listdir(os.path.join(ROOT, GOLDEN_DIR))):
        if not name.endswith(".gurag"):
            continue
        path = os.path.join(GOLDEN_DIR, name)
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            text = fh.read()
        parsed = parse(text)
        commands = ["classify"]
        if parsed.queries:
            commands += ["solve", "oracle"]
            if parsed.plans:
                commands.append("validate")
        queries += [_query(f"{cmd}:{name}", cmd, text, path=path) for cmd in commands]
    random.Random(f"cli-golden:{seed}").shuffle(queries)
    return queries, 0.0


def fuzz_mix(seed: int, per_class: int = 400):
    """A contiguous range of ``per_class`` seeds from each generator class."""
    queries = []
    generate_s = 0.0
    for cls in fuzz.CLASSES:
        for s in range(seed * per_class, (seed + 1) * per_class):
            t0 = time.perf_counter()
            instance, q = fuzz.generate(cls, s)
            generate_s += time.perf_counter() - t0
            queries.append(_query(f"{cls}:{s}", "solve", serialize(instance, [q])))
    random.Random(f"fuzz-mix:{seed}").shuffle(queries)
    return queries, generate_s * 1000


def _rules_reordered(instance: ProblemInstance, rng: random.Random, drop=None):
    """The instance with its rules declared in a seeded order, less rule ``drop``.

    Declaration order changes the file but neither the answer nor the plan.
    """
    rules = [r for r in instance.rules if r.rule_id != drop]
    rng.shuffle(rules)
    return ProblemInstance(instance.scopes, instance.hierarchy, instance.roles,
                           RuleSet.build(rules), instance.initial_state)


def deep_chain(seed: int, count: int = 24, lo: int = 64, hi: int = 512):
    """``chain(n)`` for ``count`` lengths spaced log-uniformly from lo to hi.

    Every fourth length has a link removed at a seeded position, so its
    answer is unreachable and it has no plan to replay.  Each instance is
    asked with ``solve`` (auto picks ``nonneg``) and with ``oracle`` (bfs).
    The lengths and which of them are cut are fixed, so every seed gives the
    same mix of sizes.
    """
    rng = random.Random(f"deep-chain:{seed}")
    bounds = (2 * hi, CLI_BOUNDS[1], CLI_BOUNDS[2])
    queries = []
    for i in range(count):
        n = round(lo * (hi / lo) ** (i / (count - 1)))
        instance, q = bench_kernel.chain(n)
        if i % 4 == 1:
            # rule k adds value k, so dropping it cuts the chain there
            link = rng.randint(n // 4, 3 * n // 4)
            label, expect = f"chain({n})-cut{link}", {"verdict": "unreachable"}
        else:
            link = None
            label, expect = f"chain({n})", {"verdict": "reachable", "steps": n}
        text = serialize(_rules_reordered(instance, rng, link), [q])
        for cmd in ("solve", "oracle"):
            queries.append(_query(f"{cmd}:{label}", cmd, text, bounds, expect))
    rng.shuffle(queries)
    return queries, 0.0


def criterion8_wide():
    """The wide instance of acceptance criterion 8: 50 scope values, 2 groups.

    Its reachable space is far beyond 2^20 states, so a state bound always
    stops the search.
    """
    a_vals = [f"a{i}" for i in range(9)]
    b_vals = [f"b{i}" for i in range(41)]
    rules = [Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val=v)
             for v in a_vals]
    rules += [Rule(Relation.ADD_UG, "r", TrueCond(), target_attr="a", target_val=v)
              for v in a_vals]
    rules += [Rule(Relation.ASSIGN, "r", TrueCond(), target_group=g) for g in ("G1", "G2")]
    instance = ProblemInstance(
        scopes={"a": frozenset(a_vals), "b": frozenset(b_vals)},
        hierarchy=GroupHierarchy(frozenset({"G1", "G2"})),
        roles=frozenset({"r"}),
        rules=RuleSet.build(rules),
        initial_state=DirectState(),
    )
    return instance, ReachabilityQuery({"a": frozenset(a_vals)})


def wide_search(seed: int, sizes=(12, 13, 14, 15, 16), state_bounds=(1 << 15, 1 << 16)):
    """``independent(n)`` (2^n states, all explored) and the criterion-8
    instance stopped at each state bound, all through ``oracle``.  The seed
    orders the rules and the queries."""
    rng = random.Random(f"wide-search:{seed}")
    queries = []
    for n in sizes:
        instance, q = bench_kernel.independent(n)
        text = serialize(_rules_reordered(instance, rng), [q])
        queries.append(_query(f"oracle:independent({n})", "oracle", text,
                              (2 * n, CLI_BOUNDS[1], CLI_BOUNDS[2]),
                              {"verdict": "reachable", "steps": n, "states": 1 << n}))
    instance, q = criterion8_wide()
    text = serialize(_rules_reordered(instance, rng), [q])
    for bound in state_bounds:
        queries.append(_query(f"oracle:criterion8@{bound}", "oracle", text,
                              (CLI_BOUNDS[0], bound, CLI_BOUNDS[2]),
                              {"verdict": "bound-exceeded", "states": bound}))
    rng.shuffle(queries)
    return queries, 0.0


BUILDERS = {
    "cli-golden": cli_golden,
    "fuzz-mix": fuzz_mix,
    "deep-chain": deep_chain,
    "wide-search": wide_search,
}


def digest(queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        h.update(q["text"].encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    queries, generate_ms = BUILDERS[args.workload](args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"digest": digest(queries), "generate_ms": generate_ms,
                   "queries": queries}, fh)


if __name__ == "__main__":
    main()
