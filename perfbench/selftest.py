"""Fast self-test of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload at a tiny size, untraced and traced, and requires no
failures and every metric.  Then it corrupts the plans of one planner and
requires the harness to count them as failed, and it requires ``run.py`` to
fail without a result in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from gurag_reach.transition import Plan  # noqa: E402

TINY = {
    "cli-golden": lambda: gen.cli_golden(0)[0][:6],
    "fuzz-mix": lambda: gen.fuzz_mix(0, per_class=5)[0],
    "deep-chain": lambda: gen.deep_chain(0, count=8, lo=8, hi=16)[0],
    "wide-search": lambda: gen.wide_search(0, sizes=(4, 5), state_bounds=(64,))[0],
}


def measure(workload: str, trace: bool) -> dict:
    queries = [worker.Query(spec) for spec in TINY[workload]()]
    return worker.measure(workload, queries, 0.05, trace, run.child_env(ROOT))


def check_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # run.py adds these from the set-up, outside the worker
    from_setup = {"setup_s", "ok_frac", "fuzz.generate_ms"}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            res = measure(workload, trace)
            assert res["failed"] == 0, (workload, trace, res["failures"])
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            missing = wanted - from_setup - set(res["metrics"])
            assert not missing, (workload, trace, missing)
            if trace:
                assert res["outcomes_equal_untraced"], workload
            print(f"ok {workload} trace={int(trace)}: {res['attempted']} queries")


def check_corrupted_plan():
    solve = pipeline.solve_no_negation

    def dropping_first_request(instance, q):
        res = solve(instance, q)
        if res.reachable:
            return type(res).found(Plan(res.plan.requests[1:]), res.notes)
        return res

    pipeline.solve_no_negation = dropping_first_request
    try:
        res = measure("deep-chain", False)
    finally:
        pipeline.solve_no_negation = solve
    failing = dict(res["failures"])
    assert res["failed"] > 0, "a corrupted plan went unnoticed"
    assert all(qid.startswith("solve:chain(") and "cut" not in qid for qid in failing), failing
    assert all(reason.startswith("plan does not replay") for reason in failing.values()), failing
    print(f"ok corrupted plans: {res['failed']} of {res['attempted']} queries failed")


def check_bare_directory():
    bare = os.path.join(ROOT, run.CACHE, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok bare directory: exit {proc.returncode} in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    check_workloads()
    check_corrupted_plan()
    check_bare_directory()
