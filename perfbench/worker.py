"""The worker process: one workload as a single-client closed loop.

``run.py`` starts it with the benchmark's fixed environment::

    python3 perfbench/worker.py --workload W --inputs FILE --seconds S --trace 0|1

It imports the package, loads the generated queries, warms up and prints
``ready``.  On ``go`` (stdin) it computes the references, measures, prints one
``result`` line of JSON and exits; on anything else it exits at once.  One
query at a time and no threads: the next query starts only after the previous
one has been answered and checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calib  # noqa: E402
import pipeline  # noqa: E402
from gurag_reach import kernel  # noqa: E402
from gurag_reach.dsl import parse  # noqa: E402
from gurag_reach.encoding import compile_instance  # noqa: E402
from gurag_reach.search import Reachable, SearchBounds, Unreachable, bfs_solve  # noqa: E402

CLI_WORKLOAD = "cli-golden"


class Query:
    def __init__(self, spec: dict):
        self.id = spec["id"]
        self.command = spec["command"]
        self.text = spec["text"]
        self.path = spec["path"]
        self.bounds = SearchBounds(*spec["bounds"])
        self.expect = spec["expect"] or {}
        self.reference = None  # in-process Outcome that a CLI run must reproduce


def oracle_verdict(text: str) -> str:
    """The bfs answer under the CLI's default bounds, through ``bfs_solve``."""
    result = parse(text)
    out = bfs_solve(result.instance, result.queries[0], SearchBounds())
    if isinstance(out, Reachable):
        return "reachable"
    if isinstance(out, Unreachable):
        return "unreachable"
    return "bound-exceeded"


def prepare_references(workload: str, queries: list[Query]):
    """Set what each query is checked against.

    A ``solve`` answer must match the oracle's verdict (unless the oracle hit
    a bound); a CLI run must print the in-process report of the same command.
    Answers known by construction are kept.
    """
    for q in queries:
        if workload == CLI_WORKLOAD:
            q.reference = pipeline.answer(q.command, q.text, q.bounds)
        if "verdict" not in q.expect and q.command == "solve":
            q.expect["verdict"] = oracle_verdict(q.text)


def cli_run(q: Query, env) -> pipeline.Outcome:
    proc = subprocess.run(
        [sys.executable, "-m", "gurag_reach.cli", q.command, q.path],
        cwd=ROOT, env=env, capture_output=True, text=True)
    return pipeline.Outcome(proc.returncode, proc.stdout, "cli")


def check(q: Query, out: pipeline.Outcome) -> str:
    """Empty when the outcome is right, else why it is wrong."""
    if q.reference is not None:
        if not out.report:
            return f"empty stdout (exit {out.code})"
        if out.code != q.reference.code:
            return f"exit code {out.code}, expected {q.reference.code}"
        if out.report != q.reference.report + "\n":
            return "stdout differs from the in-process report"
        out = q.reference
    if out.plan is not None and out.replay != "valid":
        return f"plan does not replay: {out.replay}"
    want = q.expect.get("verdict")
    # a bound-limited oracle gives a solve answer nothing to be compared with
    if want and out.verdict != want and not (want == "bound-exceeded" and q.command == "solve"):
        doc = json.loads(out.report) if out.report else {}
        return (f"verdict {out.verdict}, expected {want} "
                f"(engine {doc.get('engine')}, reason {doc.get('reason')})")
    steps = None if out.plan is None else len(out.plan)
    if "steps" in q.expect and steps != q.expect["steps"]:
        return f"plan of {steps} steps, expected {q.expect['steps']}"
    if "states" in q.expect and out.states != q.expect["states"]:
        return f"{out.states} states explored, expected {q.expect['states']}"
    return ""


class Loop:
    """Runs queries one at a time, times them and counts failures.

    Every run of a query must give the report and exit code of its first run,
    so the traced passes are checked against the untraced ones.
    """

    def __init__(self, workload: str, queries: list[Query], env):
        self.cli = workload == CLI_WORKLOAD
        self.queries = queries
        self.env = env
        self.latencies: list[tuple[float, float]] = []  # (time, seconds)
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}  # query id -> first reason
        self.first: dict[str, tuple] = {}   # query id -> (code, report)
        self.states: dict[str, int] = {}    # query id -> states of its bfs search
        self.kernels: set[str] = set()      # bfs kernels that ran

    def one(self, q: Query, tr=pipeline.NULL) -> float:
        t0 = time.perf_counter()
        try:
            if self.cli:
                tr.begin("cli.run")
                out = cli_run(q, self.env)
                tr.end()
            else:
                out = pipeline.answer(q.command, q.text, q.bounds, tr)
        except Exception:
            tr.abandon()
            out = None
        dt = time.perf_counter() - t0
        if out is None:
            reason = traceback.format_exc(limit=2).strip().splitlines()[-1]
        else:
            reason = check(q, out)
            first = self.first.setdefault(q.id, (out.code, out.report))
            if not reason and first != (out.code, out.report):
                reason = "report differs from the first run of the same query"
            answered = q.reference or out
            if answered.states is not None:
                self.states[q.id] = answered.states
                self.kernels.add(answered.kernel)
        self.attempted += 1
        if reason:
            self.failed += 1
            self.failures.setdefault(q.id, reason)
        return dt

    def timed(self, seconds: float, clock: calib.Clock) -> float:
        """Closed loop over whole passes until ``seconds`` have passed.

        Whole passes give every run the same mix of queries, so percentiles
        do not depend on where the time ran out.  Each latency is kept with
        the time of its middle, for rescaling by ``clock``.
        """
        start = time.perf_counter()
        deadline = start + seconds
        while not self.latencies or time.perf_counter() < deadline:
            for q in self.queries:
                clock.tick()
                t0 = time.perf_counter()
                dt = self.one(q)
                self.latencies.append((t0 + dt / 2, dt))
        clock.tick(force=True)
        return time.perf_counter() - start

    def one_pass(self, tr) -> float:
        start = time.perf_counter()
        for q in self.queries:
            tr.qid = q.id
            tr.begin("query")
            self.one(q, tr)
            tr.end()
        return time.perf_counter() - start

    def report_digest(self) -> str:
        """sha256 over every query's exit code and report, in query order."""
        h = hashlib.sha256()
        for q in self.queries:
            code, report = self.first.get(q.id, (None, ""))
            h.update(f"{q.id}\0{code}\0{report}\0".encode("utf-8"))
        return h.hexdigest()


def self_times(tr: pipeline.Tracer) -> dict[str, float]:
    """Self time in ms per span name: its duration minus its children's."""
    child = [0] * len(tr.spans)
    for _, start, end, parent, _ in tr.spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(tr.spans):
        out[name] = out.get(name, 0.0) + (end - start - child[i]) / 1e6
    return out


def layer_metrics(tr: pipeline.Tracer, queries: int, scale: float) -> dict[str, float]:
    """Per-layer numbers from the spans and counts of the traced passes.

    Times are self times in ms per query, so the layers add up to the mean
    query time; ``scale`` rescales them (see ``calib``).
    ``kernel.ns_per_candidate`` is kernel time over (states x candidates): an
    estimate from outside the kernel, not a count inside it.
    """
    st = {name: ms * scale for name, ms in self_times(tr).items()}
    total = {k: v[0] for k, v in tr.counts.items()}
    calls = {k: v[1] for k, v in tr.counts.items()}

    def per_query(*names):
        return sum(st.get(n, 0.0) for n in names) / queries

    def ratio(a, b, unit=1.0):
        return a / b * unit if b else 0.0

    def mean(name):
        return ratio(total.get(name, 0), calls.get(name, 0))

    search_ms = st.get("kernel.search", 0.0)
    return {
        "cli.run_ms": per_query("cli.run"),
        "dsl.parse_ms": per_query("dsl.parse"),
        "dsl.parse_mb_per_s": ratio(total.get("dsl.bytes", 0), st.get("dsl.parse", 0.0), 1e-3),
        "model.validate_ms": per_query("model.validate"),
        "policy.restrictions_ms": per_query("policy.restrictions"),
        "encoding.compile_ms": per_query("encoding.compile_instance", "encoding.compile_query",
                                         "encoding.encode_state"),
        "encoding.decode_ms": per_query("encoding.decode"),
        "encoding.candidates": mean("encoding.candidates"),
        "encoding.nbits": mean("encoding.nbits"),
        "kernel.search_ms": per_query("kernel.search"),
        "kernel.states": mean("kernel.states"),
        "kernel.states_per_s": ratio(total.get("kernel.states", 0), search_ms, 1e3),
        "kernel.ns_per_candidate": ratio(search_ms * 1e6, total.get("kernel.state_candidates", 0)),
        "planner.nonneg_ms": per_query("planner.nonneg"),
        "planner.srd_ms": per_query("planner.srd"),
        "planner.fallback_ratio": ratio(total.get("planner.fallbacks", 0),
                                        total.get("planner.srd_attempts", 0)),
        "transition.replay_ms": per_query("transition.replay"),
        "transition.replay_steps": mean("transition.steps"),
        "transition.us_per_step": ratio(st.get("transition.replay", 0.0) * 1e3,
                                        total.get("transition.steps", 0)),
        "report.json_ms": per_query("report.json"),
    }


def cli_start_ms(env, repeat: int = 7) -> tuple[float, float]:
    """Median wall in ms of ``python -c pass`` and of ``import gurag_reach.cli``."""
    bare, full = [], []
    for _ in range(repeat):
        bare.append(calib.interpreter_wall(env))
        full.append(calib.interpreter_wall(env, "import gurag_reach.cli"))
    return statistics.median(bare) * 1e3, statistics.median(full) * 1e3


def _compiled(q: Query):
    result = parse(q.text)
    instance, goal_q = result.instance, result.queries[0]
    ci = compile_instance(instance)
    return ci, ci.encode_state(instance.initial_state), ci.compile_query(goal_q), goal_q.strict


def _bfs(impl, ci, start, goal, strict, b: SearchBounds):
    return impl.bfs(ci, start, goal, strict, b.max_depth, b.max_states, b.max_millis)


def peak_alloc_mb(q: Query) -> float:
    """tracemalloc peak of one kernel search, in MB."""
    ci, start, goal, strict = _compiled(q)
    impl = kernel.select(ci)
    tracemalloc.start()
    try:
        _bfs(impl, ci, start, goal, strict, q.bounds)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def kernel_crosscheck(queries: list[Query], bfs_ids) -> dict:
    """Run every bfs query under each importable kernel; list disagreements."""
    names = ["python"] + (["compiled"] if kernel.HAVE_COMPILED else [])
    checked, mismatches = 0, []
    if len(names) > 1:
        for q in queries:
            if q.id not in bfs_ids:
                continue
            ci, start, goal, strict = _compiled(q)
            outs = {_bfs(kernel.select(ci, n), ci, start, goal, strict, q.bounds)[:3].__repr__()
                    for n in names if n == "python" or kernel.compiled_supports(ci)}
            checked += 1
            if len(outs) > 1:
                mismatches.append(q.id)
    return {"kernels": names, "checked": checked, "mismatches": mismatches,
            "note": "" if len(names) > 1 else
            "only the pure-Python kernel is importable; nothing to cross-check"}


def warm(loop: Loop):
    """First call of each command on its smallest input; results discarded."""
    smallest = {}
    for q in loop.queries:
        if q.command not in smallest or len(q.text) < len(smallest[q.command].text):
            smallest[q.command] = q
    for q in smallest.values():
        pipeline.answer(q.command, q.text, q.bounds)
    if loop.cli:
        cli_run(min(loop.queries, key=lambda q: len(q.text)), loop.env)


def write_spans(path: str, tracers):
    """One line per span: query id, name, start ns, end ns, parent line (-1: none)."""
    with open(path, "w", encoding="utf-8") as fh:
        base = 0
        for tr in tracers:
            for name, start, end, parent, qid in tr.spans:
                fh.write(f"{qid}\t{name}\t{start}\t{end}\t{parent + base if parent >= 0 else -1}\n")
            base += len(tr.spans)


def measure(workload: str, queries: list[Query], seconds: float, trace: bool, env,
            spans_path: str = os.devnull) -> dict:
    t0 = time.perf_counter()
    prepare_references(workload, queries)
    loop = Loop(workload, queries, env)
    res = {"reference_s": time.perf_counter() - t0, "queries_per_pass": len(queries)}
    if not trace:
        clock = calib.Clock(lambda: calib.interpreter_wall(env), calib.START_REF_S) \
            if loop.cli else calib.Clock()
        elapsed = loop.timed(seconds, clock)
        raw = [dt for _, dt in loop.latencies]
        lat = [dt * clock.scale(t) for t, dt in loop.latencies]
        who = resource.RUSAGE_CHILDREN if loop.cli else resource.RUSAGE_SELF
        res["metrics"] = {
            "queries_per_s": len(lat) / sum(lat),
            "query_p50_ms": statistics.median(lat) * 1e3,
            "query_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        res["unscaled"] = {
            "queries_per_s": len(raw) / elapsed,
            "query_p50_ms": statistics.median(raw) * 1e3,
            "query_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        }
        res["calibration_s"] = clock.values
        res["latency_samples"] = len(lat)
    else:
        tr = pipeline.Tracer()
        clock = calib.Clock()
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            clock.tick(force=True)
            plain.append(loop.one_pass(pipeline.NULL))
            traced.append(loop.one_pass(tr))
        clock.tick(force=True)
        scale = clock.scale()
        m = layer_metrics(tr, len(traced) * len(queries), scale)
        spans = [tr]
        if loop.cli:
            # the CLI child is opaque: time its layers in-process on the same files
            inproc = pipeline.Tracer()
            for q in queries:
                inproc.qid = q.id
                inproc.begin("query")
                out = pipeline.answer(q.command, q.text, q.bounds, inproc)
                inproc.end()
                loop.attempted += 1
                if (out.code, out.report) != (q.reference.code, q.reference.report):
                    loop.failed += 1
                    loop.failures.setdefault(q.id, "in-process rerun differs")
            m = {**layer_metrics(inproc, len(queries), scale), "cli.run_ms": m["cli.run_ms"]}
            spans.append(inproc)
        bare, full = cli_start_ms(env)
        m["cli.interp_start_ms"] = bare * scale
        m["cli.import_ms"] = (full - bare) * scale
        biggest = max(loop.states, key=loop.states.get, default=None)
        m["kernel.peak_alloc_mb"] = 0.0 if biggest is None else peak_alloc_mb(
            next(q for q in queries if q.id == biggest))
        m["trace.queries"] = len(traced) * len(queries)
        m["trace.overhead_pct"] = (sum(traced) / sum(plain) - 1) * 100
        res["metrics"] = m
        res["passes"] = {"untraced_s": plain, "traced_s": traced}
        res["calibration_s"] = clock.values
        res["kernel_crosscheck"] = kernel_crosscheck(queries, loop.states)
        write_spans(spans_path, spans)
        res["outcomes_equal_untraced"] = not any(
            r.startswith("report differs") or r.startswith("in-process rerun")
            for r in loop.failures.values())
    res.update(attempted=loop.attempted, failed=loop.failed,
               failures=sorted(loop.failures.items()), report_digest=loop.report_digest(),
               kernels_used=sorted(loop.kernels), have_compiled=kernel.HAVE_COMPILED)
    return res


def main():
    ap = argparse.ArgumentParser(description="one benchmark workload, closed loop")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=os.devnull, help="where the traced run writes its spans")
    args = ap.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        queries = [Query(spec) for spec in json.load(fh)["queries"]]
    env = dict(os.environ)
    warm(Loop(args.workload, queries, env))
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    res = measure(args.workload, queries, args.seconds, bool(args.trace), env, args.spans)
    print("result " + json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
