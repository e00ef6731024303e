#!/usr/bin/env python3
"""Compare the pure-Python and compiled search kernels on scaling instances.

Two workloads:
* ``independent(n)`` — n unconditional single-value additions; the reachable
  space is the full 2^n lattice, worst case for the visited table.
* ``chain(n)`` — value i requires value i-1; deep and narrow, worst case for
  queue churn.

Usage: python benchmarks/bench_kernel.py [--max-bits 18] [--repeat 3]
"""

import argparse
import statistics
import time

from gurag_reach.kernel import HAVE_COMPILED
from gurag_reach.model import DirectState, GroupHierarchy, ProblemInstance
from gurag_reach.policy import DirectVal, Relation, Rule, RuleSet, TrueCond
from gurag_reach.search import SearchBounds, bfs_solve
from gurag_reach.transition import ReachabilityQuery


def independent(n: int) -> tuple[ProblemInstance, ReachabilityQuery]:
    vals = [f"v{i:02d}" for i in range(n)]
    rules = RuleSet.build([
        Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val=v)
        for v in vals
    ])
    inst = ProblemInstance(
        scopes={"a": frozenset(vals)},
        hierarchy=GroupHierarchy(frozenset()),
        roles=frozenset({"r"}),
        rules=rules,
        initial_state=DirectState(),
    )
    return inst, ReachabilityQuery({"a": frozenset(vals)})


def chain(n: int) -> tuple[ProblemInstance, ReachabilityQuery]:
    vals = [f"v{i:02d}" for i in range(n)]
    rules = [Rule(Relation.ADD_U, "r", TrueCond(), target_attr="a", target_val=vals[0])]
    for prev, cur in zip(vals, vals[1:]):
        rules.append(Rule(Relation.ADD_U, "r", DirectVal("a", prev),
                          target_attr="a", target_val=cur))
    inst = ProblemInstance(
        scopes={"a": frozenset(vals)},
        hierarchy=GroupHierarchy(frozenset()),
        roles=frozenset({"r"}),
        rules=RuleSet.build(rules),
        initial_state=DirectState(),
    )
    return inst, ReachabilityQuery({"a": frozenset(vals)})


def run(inst, q, kernel, bounds, repeat):
    times = []
    outcome = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        outcome = bfs_solve(inst, q, bounds, kernel=kernel)
        times.append(time.perf_counter() - t0)
    return min(times), outcome


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-bits", type=int, default=18)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    if not HAVE_COMPILED:
        print("compiled kernel not available; benchmarking python only")
    bounds = SearchBounds(max_depth=10_000, max_states=1 << 22, max_millis=300_000)

    print(f"{'workload':<16}{'bits':>6}{'python (s)':>14}{'compiled (s)':>14}{'speedup':>10}")
    for name, make in (("independent", independent), ("chain", chain)):
        sizes = range(10, args.max_bits + 1, 2) if name == "independent" else (
            64, 128, 256)
        for n in sizes:
            inst, q = make(n)
            t_py, out_py = run(inst, q, "python", bounds, args.repeat)
            if HAVE_COMPILED:
                t_c, out_c = run(inst, q, "compiled", bounds, args.repeat)
                assert type(out_py) is type(out_c), "kernels disagree"
                if out_py != out_c:
                    raise SystemExit(f"kernel outcome mismatch at {name}({n})")
                print(f"{name:<16}{n:>6}{t_py:>14.4f}{t_c:>14.4f}{t_py / t_c:>10.1f}x")
            else:
                print(f"{name:<16}{n:>6}{t_py:>14.4f}{'-':>14}{'-':>10}")


if __name__ == "__main__":
    main()
