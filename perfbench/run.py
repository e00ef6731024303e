"""gurag-reach benchmark: end-to-end and per-layer timings on four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fuzz-mix --seed 1 --seconds 20 --trace 0

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it, and ``.perfbench_cache/<workload>-seed<n>-trace<t>/``,
hold the details (environment, digests, failing inputs, spans).

Each run sets up ``SETUP_REPS`` times: clear the bytecode cache, generate and
serialise the workload's queries in a fresh child (``gen.py``), start a fresh
worker (``worker.py``) that imports the package, warms up and reports ready.
``setup_s`` is the median of those set-ups.  The last worker then runs the
workload as a single-client closed loop (one process, one query at a time).
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes over the same queries and reports the
per-layer metrics, derived from spans the benchmark records around its calls
into each layer's public functions (nothing is traced inside the package).

End-to-end metrics: ``setup_s``; ``queries_per_s`` (queries over the summed
query latencies); ``query_p50_ms`` and ``query_p90_ms`` over every latency of
the run (the sample count is ``latency_samples`` in the details, at least 100
per run on every workload); ``peak_rss_mb`` (``ru_maxrss`` of the worker, or
of the largest CLI child on cli-golden); ``ok_frac``, the share of queries
answered correctly.  A query fails on a wrong verdict, a plan that does not
replay ``Valid``, a wrong exit code, empty stdout, or a report that differs
from the reference or from the query's first run; failing inputs are listed
in the details and never dropped from the workload.  Every timing, per-layer
ones too, is rescaled to a reference machine speed by ``calib``; the details
keep the unscaled end-to-end timings.

Which end-to-end metric each per-layer metric should move, and where:

* ``cli.interp_start_ms``, ``cli.import_ms``, ``cli.run_ms``: ``query_p50_ms``
  on cli-golden; nothing on the in-process workloads, which import at set-up.
* ``dsl.parse_ms``, ``dsl.parse_mb_per_s``: ``query_p50_ms`` on deep-chain and
  fuzz-mix.
* ``model.validate_ms``, ``policy.restrictions_ms``, ``encoding.compile_ms``,
  ``encoding.candidates``, ``encoding.nbits``, ``planner.nonneg_ms``,
  ``planner.srd_ms``, ``planner.fallback_ratio``, ``report.json_ms``:
  ``query_p50_ms`` on fuzz-mix, where the fixed cost of every query dominates.
* ``kernel.search_ms``, ``kernel.states``, ``kernel.states_per_s``,
  ``kernel.ns_per_candidate``, ``kernel.peak_alloc_mb``, ``encoding.decode_ms``:
  ``queries_per_s`` and ``peak_rss_mb`` on wide-search, and ``query_p90_ms``
  on deep-chain through its ``oracle`` queries.  ``kernel.ns_per_candidate`` is
  search time / (states x candidates), an estimate from outside the kernel.
* ``transition.replay_ms``, ``transition.replay_steps``,
  ``transition.us_per_step``: ``query_p50_ms`` and ``query_p90_ms`` on
  deep-chain.
* ``fuzz.generate_ms``: ``setup_s`` only (fuzz-mix).
* ``trace.overhead_pct``, ``trace.queries``: the cost and sample count of the
  traced passes themselves; they move nothing.

Only ``time.perf_counter``, ``ru_maxrss`` and ``tracemalloc`` are used; no
hardware counters are read.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402

WORKLOADS = ("cli-golden", "fuzz-mix", "deep-chain", "wide-search")
SETUP_REPS = 5
HASH_SEED = "0"
CACHE = ".perfbench_cache"
# what the benchmark needs besides its own files
REQUIRED = ("BENCHMARK.json", "src/gurag_reach/__init__.py", "tests/data/golden",
            "benchmarks/bench_kernel.py")
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    """The whole environment of every child process."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": HASH_SEED,
        "PYTHONPYCACHEPREFIX": os.path.join(root, CACHE, "pycache"),
        "GURAG_REACH_COLOR": "0",
    }


def src_sloc(root: str) -> int:
    """Non-blank, non-comment lines of the package's .py and .pyx sources."""
    n = 0
    pattern = os.path.join(root, "src", "gurag_reach", "*.py")
    for path in sorted(glob.glob(pattern) + glob.glob(pattern + "x")):
        with open(path, encoding="utf-8") as fh:
            n += sum(1 for line in fh if line.strip() and not line.strip().startswith("#"))
    return n


def _stop(proc):
    if proc is not None and proc.poll() is None:
        proc.kill()
    if proc is not None:
        proc.wait()


def source_digest(root: str) -> str:
    """sha256 over the package, benchmark and builder sources."""
    h = hashlib.sha256()
    for pattern in ("src/gurag_reach/*.py", "src/gurag_reach/*.pyx", "perfbench/*.py",
                    "benchmarks/bench_kernel.py"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _check_digest(root: str, key: str, digest: str):
    """Fail when an earlier run of the same sources and seed generated other inputs."""
    path = os.path.join(root, CACHE, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    if known.setdefault(key, digest) != digest:
        raise BenchError(f"{key}: workload digest {digest} differs from {known[key]} "
                         "of an earlier run with the same seed")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    env = child_env(root)
    run_dir = os.path.join(root, CACHE, f"{workload}-seed{seed}-trace{trace}")
    os.makedirs(run_dir, exist_ok=True)
    inputs = os.path.join(run_dir, "inputs.json")
    spans = os.path.join(run_dir, "spans.tsv")
    setups, digests, generate_ms = [], [], []
    worker = None
    try:
        for _ in range(SETUP_REPS):
            if worker is not None:
                worker.stdin.write("quit\n")
                worker.stdin.flush()
                _stop(worker)
            before = calib.sample()
            t0 = time.perf_counter()
            shutil.rmtree(env["PYTHONPYCACHEPREFIX"], ignore_errors=True)
            subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                            "--seed", str(seed), "--out", inputs], cwd=root, env=env, check=True)
            with open(inputs, encoding="utf-8") as fh:
                generated = json.load(fh)
            worker = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                 "--inputs", inputs, "--seconds", str(seconds), "--trace", str(trace),
                 "--spans", spans],
                cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            if worker.stdout.readline().strip() != "ready":
                raise BenchError("worker failed during set-up")
            elapsed = time.perf_counter() - t0
            scale = calib.REF_S / ((before + calib.sample()) / 2)
            setups.append((elapsed, scale))
            digests.append(generated["digest"])
            generate_ms.append(generated["generate_ms"] * scale)
        if len(set(digests)) != 1:
            raise BenchError(f"set-ups with seed {seed} generated different inputs: {digests}")
        _check_digest(root, f"{workload}:{seed}:{source_digest(root)}", digests[0])
        worker.stdin.write("go\n")
        worker.stdin.flush()
        line = worker.stdout.readline()
        if not line.startswith("result "):
            raise BenchError("worker failed while measuring")
        res = json.loads(line[len("result "):])
    finally:
        _stop(worker)

    metrics = dict(res.pop("metrics"))
    if trace:
        metrics["fuzz.generate_ms"] = statistics.median(generate_ms)
    else:
        metrics["setup_s"] = statistics.median(elapsed * scale for elapsed, scale in setups)
        metrics["ok_frac"] = (res["attempted"] - res["failed"]) / res["attempted"]
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "failed_frac": res["failed"] / res["attempted"],
        "failing_inputs": res.pop("failures"),
        "workload_digest": digests[0],
        "report_digest": res.pop("report_digest"),
        "setup_s": [elapsed for elapsed, _ in setups],
        "setup_scale": [scale for _, scale in setups],
        "env": {**env, "PYTHONPATH": "src", "PYTHONPYCACHEPREFIX": f"{CACHE}/pycache"},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_sloc": src_sloc(root),
        "clocks": "time.perf_counter, ru_maxrss and tracemalloc only; no hardware counters",
        "kernel": {"used": res.pop("kernels_used"), "have_compiled": res.pop("have_compiled"),
                   "note": "the compiled kernel is not built by this benchmark"},
        **res,
    }
    if trace:
        details["spans_file"] = os.path.relpath(spans, root)
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gurag-reach benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from a gurag-reach checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    def on_alarm(signum, frame):
        raise BenchError(f"no result within {TIME_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        metrics, details = run(root, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    with open(os.path.join(root, CACHE, f"{args.workload}-seed{args.seed}-trace{args.trace}",
                           "details.json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **details}, fh, indent=1)
    if details["failed"]:
        # the failing inputs stay in the workload; name them where a log shows them
        print(f"perfbench: {details['failed']} of {details['attempted']} queries failed:",
              file=sys.stderr)
        for qid, reason in details["failing_inputs"]:
            print(f"  {qid}: {reason}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": details["failed_frac"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
