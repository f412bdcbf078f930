"""Spans around calls into crekit's public functions, recorded from outside.

``Tracer.patched()`` swaps each public function listed in ``SPANS`` for a
wrapper, in every crekit module namespace that holds it, and restores them
on exit.  Calls that one crekit module makes into another (``includes`` into
``glushkov``, ``cli.main`` into ``member``) therefore nest as child spans,
and no library code changes.  The lazily built ``Nfa.successors`` table is
wrapped the same way, so the time to build it counts as construction and
not as search.

Counting hooks (nodes, words, positions, transitions) run in ``bench``
spans, which are excluded from layer self time; calls they make record no
spans of their own.  Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import copy
import functools
import gzip
import json
import time
from contextlib import contextmanager

# span name -> public function name, looked up on the crekit package
SPANS = {
    "syntax.parse": "parse_expr",
    "syntax.render": "render_expr",
    "unambiguity.check": "check_unambiguous",
    "engine.length_set": "length_set",
    "engine.enumerate": "enumerate_words",
    "engine.member": "member",
    "engine.expand": "expand",
    "engine.glushkov": "glushkov",
    "decision.includes": "includes",
    "decision.overlaps": "overlaps",
    "decision.equivalent": "equivalent",
    "partition.build": "build_expressions",
    "partition.decide": "decide_partition_via_inclusion",
    "partition.verify": "verify_theorem_instance",
}
CONSTRUCTION = ("engine.expand", "engine.glushkov", "engine.successors")
# the package's modules, which are also the layers
LAYERS = ("syntax", "engine", "unambiguity", "decision", "partition", "cli")


class Tracer:
    """In-memory span recorder: (name, start_ns, end_ns, parent, query)."""

    def __init__(self, api):
        self.api = api
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query: int | None = None
        self.muted = False  # set while a counting hook runs
        self.counts = {
            "nodes": 0,
            "checks": 0,
            "single_occurrence": 0,
            "words": 0,
            "expanded_nodes": 0,
            "positions": 0,
            "transitions": 0,
        }

    @contextmanager
    def span(self, name: str):
        if self.muted:
            yield
            return
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, time.perf_counter_ns(), None, parent, self.query]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            record[2] = time.perf_counter_ns()

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span("bench.count"):
                    self.muted = True
                    try:
                        after(result, *args)
                    finally:
                        self.muted = False
            return result

        return traced

    # counting hooks; they call the original functions, never the wrappers

    def _hooks(self):
        ck = self.api.ck
        c = self.counts
        node_count = ck.node_count

        def parsed(e, *_):
            c["nodes"] += node_count(e)

        def checked(_verdict, e, *_):
            c["checks"] += 1
            c["single_occurrence"] += ck.is_single_occurrence(e)

        def enumerated(words, *_):
            c["words"] += len(words)

        def expanded(e, *_):
            c["expanded_nodes"] += node_count(e)

        def built(nfa, e, *_):
            # Count on a copy through the public step, so the original keeps
            # its lazily built table for the search that follows.
            twin = copy.copy(nfa)
            symbols = list(ck.alphabet_of(e))
            c["positions"] += nfa.state_count - 1
            c["transitions"] += sum(
                len(twin.step((q,), s)) for q in range(nfa.state_count) for s in symbols
            )

        return {
            "syntax.parse": parsed,
            "unambiguity.check": checked,
            "engine.enumerate": enumerated,
            "engine.expand": expanded,
            "engine.glushkov": built,
        }

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        ck = self.api.ck
        modules = [ck] + [getattr(ck, m) for m in LAYERS]
        originals = {name: getattr(ck, fn) for name, fn in SPANS.items()}
        originals["cli.main"] = ck.cli.main
        hooks = self._hooks()
        wrappers = {
            id(fn): self._wrap(name, fn, hooks.get(name)) for name, fn in originals.items()
        }
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        nfa = ck.engine.Nfa
        table = nfa.__dict__.get("successors")
        if table is not None:
            timed = functools.cached_property(self._wrap("engine.successors", table.func))
            timed.__set_name__(nfa, "successors")
            nfa.successors = timed
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)
            if table is not None:
                nfa.successors = table

    @contextmanager
    def query_span(self, query_id: int):
        self.query = query_id
        try:
            with self.span("query"):
                yield
        finally:
            self.query = None

    def dump(self, path):
        """Write the spans as a gzipped JSON list; times are ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(
                [
                    {
                        "id": i,
                        "name": name,
                        "start_ns": start - origin,
                        "end_ns": end - origin,
                        "parent": parent,
                        "query": query,
                    }
                    for i, (name, start, end, parent, query) in enumerate(self.spans)
                ],
                handle,
            )


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer totals per pass (ms and counts) from the recorded spans."""
    spans = tracer.spans
    duration = [(end - start) / 1e6 for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    construct_below = [0.0] * len(spans)  # construction time in the subtree
    bench_below = [0.0] * len(spans)  # counting-hook time in the subtree
    # children always come after their parent, so one reverse sweep suffices
    for i in range(len(spans) - 1, -1, -1):
        name, _, _, parent, _ = spans[i]
        if name in CONSTRUCTION:
            construct_below[i] = duration[i]
        elif name == "bench.count":
            bench_below[i] = duration[i]
        if parent is not None:
            child_time[parent] += duration[i]
            construct_below[parent] += construct_below[i]
            bench_below[parent] += bench_below[i]

    total: dict[str, float] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    construct_ms = search_ms = 0.0
    for i, (name, _, _, parent, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + duration[i]
        layer = name.split(".")[0]
        if layer in self_time:
            self_time[layer] += duration[i] - child_time[i]
        parent_name = spans[parent][0] if parent is not None else ""
        if name.startswith("decision.") and not parent_name.startswith("decision."):
            construct_ms += construct_below[i]
            search_ms += duration[i] - construct_below[i] - bench_below[i]

    def per_pass(value):
        return value / passes

    construct_self = sum(
        duration[i] - child_time[i] for i, s in enumerate(spans) if s[0] in CONSTRUCTION
    )
    layer_self = sum(self_time.values()) or 1.0
    c = tracer.counts
    metrics = {
        "syntax.parse_ms": per_pass(total.get("syntax.parse", 0.0)),
        "syntax.render_ms": per_pass(total.get("syntax.render", 0.0)),
        "syntax.nodes": per_pass(c["nodes"]),
        "unambiguity.check_ms": per_pass(total.get("unambiguity.check", 0.0)),
        "unambiguity.fast_path_share": c["single_occurrence"] / max(c["checks"], 1),
        "engine.length_set_ms": per_pass(total.get("engine.length_set", 0.0)),
        "engine.enumerate_ms": per_pass(total.get("engine.enumerate", 0.0)),
        "engine.words": per_pass(c["words"]),
        "engine.member_ms": per_pass(total.get("engine.member", 0.0)),
        "engine.expand_ms": per_pass(total.get("engine.expand", 0.0)),
        "engine.expanded_nodes": per_pass(c["expanded_nodes"]),
        "engine.glushkov_ms": per_pass(total.get("engine.glushkov", 0.0)),
        "engine.successors_ms": per_pass(total.get("engine.successors", 0.0)),
        "engine.positions": per_pass(c["positions"]),
        "engine.transitions": per_pass(c["transitions"]),
        "cli.main_ms": per_pass(total.get("cli.main", 0.0)),
        "cli.overhead_ms": per_pass(self_time["cli"]),
        "decision.includes_ms": per_pass(total.get("decision.includes", 0.0)),
        "decision.equivalent_ms": per_pass(total.get("decision.equivalent", 0.0)),
        "decision.overlaps_ms": per_pass(total.get("decision.overlaps", 0.0)),
        "decision.construct_ms": per_pass(construct_ms),
        "decision.search_ms": per_pass(search_ms),
        "partition.build_ms": per_pass(total.get("partition.build", 0.0)),
        "partition.decide_ms": per_pass(total.get("partition.decide", 0.0)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = per_pass(self_time[layer])
    metrics["engine.construct_self_share"] = construct_self / layer_self
    metrics["decision.search_self_share"] = search_ms / layer_self
    return metrics
