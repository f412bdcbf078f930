#!/usr/bin/env python3
"""Run one crekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The benchmark imports crekit from the ``src`` directory next to this one and
replays a seeded query set through the public API from one process: a closed
loop with one client, each query issued when the previous one returns.  A
run sets up several times (import, input generation, reference answers),
warms up with one untimed pass, then repeats timed passes over the same
query set for as long as another pass fits in ``--seconds``.  Every result
is checked against its reference outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans around
each call into a crekit module (see ``tracing.py``), writing the spans to
``perfbench/out/``.

The second-to-last line of standard output is the run record
(``{"record": ...}``); the last line is the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
whenever a result is printed, also when ``correct`` is false.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 5  # set-ups per run; setup_s is their median

END_TO_END = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "decided_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics, in the order they are reported.
PER_LAYER = {
    "syntax.parse_ms": "ms",
    "syntax.render_ms": "ms",
    "syntax.nodes": "count",
    "unambiguity.check_ms": "ms",
    "unambiguity.fast_path_share": "share",
    "engine.length_set_ms": "ms",
    "engine.enumerate_ms": "ms",
    "engine.words": "count",
    "engine.member_ms": "ms",
    "engine.expand_ms": "ms",
    "engine.expanded_nodes": "count",
    "engine.glushkov_ms": "ms",
    "engine.successors_ms": "ms",
    "engine.positions": "count",
    "engine.transitions": "count",
    "cli.main_ms": "ms",
    "cli.overhead_ms": "ms",
    "decision.includes_ms": "ms",
    "decision.equivalent_ms": "ms",
    "decision.overlaps_ms": "ms",
    "decision.construct_ms": "ms",
    "decision.search_ms": "ms",
    "decision.resource_errors": "count",
    "partition.build_ms": "ms",
    "partition.decide_ms": "ms",
    "syntax.self_ms": "ms",
    "engine.self_ms": "ms",
    "unambiguity.self_ms": "ms",
    "decision.self_ms": "ms",
    "partition.self_ms": "ms",
    "cli.self_ms": "ms",
    "engine.construct_self_share": "share",
    "decision.search_self_share": "share",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_share": "share",
}

NOTES = [
    "per-layer *_ms values are totals per pass over the query set",
    "Nfa.successors is built lazily on the first step; it is timed as "
    "engine.successors and counted as construction, so decision.search_ms "
    "is the product search alone",
    "product-state counts are not visible from outside the library",
    "peak_rss_mb includes set-up, which builds the reference answers",
]


class Failure:
    """A query that raised; ``label`` is its error code or exception type."""

    def __init__(self, exc: BaseException):
        self.label = workloads.error_label(exc)


# --- set-up ----------------------------------------------------------------------


def load_api() -> SimpleNamespace:
    """Import crekit and the test oracle afresh from this checkout."""
    src = ROOT / "src"
    oracle_path = ROOT / "tests" / "oracle.py"
    if not (src / "crekit" / "__init__.py").is_file() or not oracle_path.is_file():
        raise SystemExit(f"error: no crekit sources under {ROOT}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "crekit" or m.startswith("crekit.")]:
        del sys.modules[name]
    ck = importlib.import_module("crekit")
    importlib.import_module("crekit.cli")
    spec = importlib.util.spec_from_file_location("crekit_bench_oracle", oracle_path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    # ROADMAP item 5 moves the enumerate-and-test inclusion into the oracle
    reference = getattr(ck, "includes_reference", None) or oracle.includes_reference
    return SimpleNamespace(ck=ck, oracle=oracle, includes_reference=reference)


def setup(name: str, seed: int, tiny: bool):
    started = time.perf_counter()
    api = load_api()
    workload = workloads.build(api, name, seed, tiny)
    return api, workload, time.perf_counter() - started


# --- passes --------------------------------------------------------------------


def run_pass(queries, tracer=None):
    """Run every query once; returns (wall seconds, latencies, raw results)."""
    latencies, results = [], []
    clock = time.perf_counter
    started = clock()
    for index, query in enumerate(queries):
        t0 = clock()
        try:
            if tracer is None:
                result = query.run()
            else:
                with tracer.query_span(index):
                    result = query.run()
        except Exception as exc:  # any failure is recorded, never fatal
            result = Failure(exc)
        latencies.append(clock() - t0)
        results.append(result)
    return clock() - started, latencies, results


def check(query, result):
    """(agrees, canonical verdict) of one result; a malformed one disagrees."""
    try:
        return query.check(result)
    except Exception as exc:
        return False, {"unreadable": workloads.error_label(exc)}


def run_probes(workload):
    """Run the probes once, untimed; returns their records and wrong count."""
    records, wrong = [], 0
    for name, probe in workload.probes:
        t0 = time.perf_counter()
        try:
            result = probe.run()
        except Exception as exc:
            records.append(
                {"probe": name, "outcome": "failed", "error": workloads.error_label(exc),
                 "ms": (time.perf_counter() - t0) * 1e3}
            )
            continue
        ms = (time.perf_counter() - t0) * 1e3
        ok, got = check(probe, result)
        wrong += not ok
        records.append(
            {"probe": name, "outcome": "decided", "verdict": got, "agrees": ok, "ms": ms}
        )
    return records, wrong


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- the two kinds of run ----------------------------------------------------------


class Run:
    """Accumulates checks over the passes of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.reference_digest = None
        self.canonical = None
        self.wrong = 0
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.first_failures = None  # failure labels of the first pass
        self.undecided = set()  # query indexes that failed in some pass

    def account(self, results):
        """Check one pass; every pass must also reproduce the first one."""
        canonical, failures = [], Counter()
        for index, (query, result) in enumerate(zip(self.workload.queries, results)):
            if isinstance(result, Failure):
                failures[result.label] += 1
                self.undecided.add(index)
                canonical.append({"error": result.label})
                continue
            ok, got = check(query, result)
            if self.canonical is not None:
                ok = ok and got == self.canonical[index]
            self.wrong += not ok
            canonical.append(got)
        if self.canonical is None:
            self.canonical = canonical
            self.first_failures = failures
            self.reference_digest = digest(canonical)
        self.attempted += len(results)
        self.failed += sum(failures.values())
        self.failures += failures

    def resource_errors(self, probes) -> Counter:
        """Resource errors of one pass over the query set, plus the probes'."""
        codes = Counter(
            {k: v for k, v in self.first_failures.items() if k in workloads.RESOURCE_CODES}
        )
        codes.update(p["error"] for p in probes if p.get("error") in workloads.RESOURCE_CODES)
        return codes

    def decided_share(self, probes) -> float:
        queries = len(self.workload.queries)
        decided = queries - len(self.undecided)
        decided += sum(p["outcome"] == "decided" for p in probes)
        return decided / (queries + len(probes))


def timed_run(name, seed, seconds, tiny=False):
    setup_times = []
    for _ in range(SETUP_REPS):
        api, workload, elapsed = setup(name, seed, tiny)
        setup_times.append(elapsed)
    gc.collect()
    gc.freeze()  # keep set-up objects out of the collections timed below
    run = Run(workload)
    run_pass_checked(run, workload)  # warm-up
    walls, latencies = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + walls[-1] <= deadline:
        gc.collect()
        wall, lat, results = run_pass(workload.queries)
        walls.append(wall)
        latencies += lat
        run.account(results)
    probes, probe_wrong = run_probes(workload)
    run.wrong += probe_wrong
    p50, p90 = quantiles(latencies)
    metrics = {
        "wall_s": statistics.median(walls),
        "query_p50_ms": p50 * 1e3,
        "query_p90_ms": p90 * 1e3,
        "decided_share": run.decided_share(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    detail = {
        "passes": len(walls),
        "queries_per_pass": len(workload.queries),
        "query_p50_ms": {"samples": len(latencies), "beyond": sum(x > p50 for x in latencies)},
        "query_p90_ms": {"samples": len(latencies), "beyond": sum(x > p90 for x in latencies)},
        "setup_s_each": setup_times,
        "wall_s_each": walls,
    }
    return run, probes, metrics, detail, END_TO_END


def traced_run(name, seed, seconds, tiny=False):
    api, workload, _ = setup(name, seed, tiny)
    gc.collect()
    gc.freeze()
    run = Run(workload)
    run_pass_checked(run, workload)  # warm-up
    tracer = tracing.Tracer(api)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + untraced[-1] + traced[-1] <= deadline:
        gc.collect()
        untraced.append(run_pass_checked(run, workload))
        gc.collect()
        with tracer.patched():
            wall, _, results = run_pass(workload.queries, tracer)
        traced.append(wall)
        run.account(results)
    probes, probe_wrong = run_probes(workload)
    run.wrong += probe_wrong
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["decision.resource_errors"] = sum(run.resource_errors(probes).values())
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{name}-{seed}.json.gz"
    tracer.dump(trace_file)
    detail = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "queries_per_pass": len(workload.queries),
        "spans": len(tracer.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return run, probes, metrics, detail, PER_LAYER


def run_pass_checked(run, workload) -> float:
    wall, _, results = run_pass(workload.queries)
    run.account(results)
    return wall


def quantiles(values):
    """Median and 90th percentile, as statistics.quantiles gives them."""
    deciles = statistics.quantiles(values, n=10)
    return deciles[4], deciles[8]


# --- record ----------------------------------------------------------------------


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load = os.getloadavg()
    started = time.perf_counter()
    kind = traced_run if args.trace else timed_run
    run, probes, metrics, detail, units = kind(args.workload, args.seed, args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load),
        "src_lines": src_lines(),
        "elapsed_s": time.perf_counter() - started,
        "verdict_digest": run.reference_digest,
        "wrong_verdicts": run.wrong,
        "failures": dict(run.failures),
        "resource_errors": dict(run.resource_errors(probes)),
        "probes": probes,
        "excluded": run.workload.excluded,
        "detail": detail,
        "notes": NOTES,
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": run.wrong == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
