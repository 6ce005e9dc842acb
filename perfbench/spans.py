"""Spans recorded by the benchmark around its own calls into cppatlas, and
the per-layer metrics derived from them.

A span has a name, start and end (``perf_counter`` seconds), the id of the
span open around it, the request it belongs to (one id per tool request,
index build or pipeline run; ``setup<i>`` for the i-th set-up, ``check``
for work done to check outputs) and counts taken at the same boundary.
Spans stay in memory and are written as JSONL when the run ends;
``layer_metrics`` reads them back from that file.

``<name>.busy_s`` is the time spent in spans called ``<name>`` per request
that has any: per index build, pipeline run or set-up. Counts are summed
the same way.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request):
        """Yields the span's count dict, which the caller may fill."""
        record = {"id": len(self.spans), "name": name, "request": request,
                  "parent": self._open[-1] if self._open else None,
                  "counts": {}}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def index_counts(index) -> dict:
    """Symbols, edges by kind and call sites of a structural index."""
    edges: dict[str, int] = {}
    for e in index.edges:
        edges[e.kind.value] = edges.get(e.kind.value, 0) + 1
    unresolved = sum(1 for c in index.call_sites
                     if index.symbols[c.callee].is_synthetic)
    return {"symbols": len(index.symbols), "edges": edges,
            "call_sites": len(index.call_sites),
            "unresolved_calls": unresolved}


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[dict], untraced_op_s: list[float]) -> dict:
    """Every per-layer metric, from the spans alone plus the untraced
    operation times the traced run interleaved with its traced ones.
    A layer the workload never calls reads 0."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    def requests(name):
        return {s["request"] for s in by_name.get(name, [])}

    def busy(name):
        d = durations(name)
        return sum(d) / len(requests(name)) if d else 0.0

    def count(name, key):
        pool = by_name.get(name, [])
        total = sum(s["counts"].get(key, 0) for s in pool)
        return total / len(requests(name)) if pool else 0

    def calls_per_request(name):
        return len(durations(name)) / len(requests(name)) if durations(name) else 0.0

    def ms(name, q):
        return percentile(durations(name), q) * 1e3

    def self_s(outer, inner):
        return busy(outer) - busy(inner) if by_name.get(inner) else 0.0

    calls = count("index.build", "call_sites")
    generated = count("pipeline.generate", "candidates")
    kept = count("pipeline.prune", "kept")
    lexed = sum(durations("cxx.lexer"))
    tokens = sum(s["counts"]["tokens"] for s in by_name.get("cxx.lexer", []))
    builds = by_name.get("index.build", [])
    edges = builds[-1]["counts"]["edges"] if builds else {}

    # per request: time in handle_line minus the direct call of the query
    # function with the same arguments
    direct = {s["request"]: s["end"] - s["start"] for s in spans
              if s["name"].startswith(("queries.", "intent.query"))}
    overhead = [s["end"] - s["start"] - direct[s["request"]]
                for s in by_name.get("server.handle_line", [])
                if s["request"] in direct]
    responses = [s["counts"]["response_bytes"]
                 for s in by_name.get("server.handle_line", [])]

    ops = durations("op")
    metrics = {
        "repo.load.busy_s": busy("repo.load"),
        "repo.units": count("repo.load", "units"),
        "repo.source_bytes": count("repo.load", "source_bytes"),
        "cxx.lexer.busy_s": busy("cxx.lexer"),
        "cxx.lexer.tokens": count("cxx.lexer", "tokens"),
        "cxx.lexer.tokens_per_s": tokens / lexed if lexed else 0.0,
        "cxx.parser.self_s": self_s("cxx.parser", "cxx.lexer"),
        "cxx.parser.symbols": count("cxx.parser", "symbols"),
        "cxx.parser.errors": count("cxx.parser", "errors"),
        "index.resolve.self_s": self_s("index.build", "cxx.parser"),
        "index.symbols": count("index.build", "symbols"),
        "index.unresolved_call_ratio": (
            count("index.build", "unresolved_calls") / calls if calls else 0.0),
        "index.persist.busy_s": busy("index.persist"),
        "index.file_bytes": count("index.persist", "file_bytes"),
        "index.load.busy_s": busy("index.load"),
        "intent.summarize.busy_s": busy("intent.summarize"),
        "intent.embed.busy_s": busy("intent.embed"),
        "intent.build.busy_s": busy("intent.build"),
        "intent.docs": count("intent.build", "docs"),
        "intent.query.p50_ms": ms("intent.query", 50),
        "intent.query.p99_ms": ms("intent.query", 99),
        "server.overhead_p50_ms": percentile(overhead, 50) * 1e3,
        "server.response_bytes": (
            statistics.fmean(responses) if responses else 0.0),
        "server.requests": len(responses),
        "pipeline.candidates": generated,
        "pipeline.kept_ratio": kept / generated if generated else 0.0,
        "pipeline.valid_ratio": (
            count("pipeline.validate", "valid") / kept if kept else 0.0),
        "diffs.apply.busy_s": busy("diffs.apply"),
        "diffs.apply.count": calls_per_request("diffs.apply"),
        "runner.run_test.count": calls_per_request("runner.run_test"),
        "runner.run_test.p50_ms": ms("runner.run_test", 50),
        "runner.materialize.busy_s": busy("runner.materialize"),
        "runner.exec.self_s": self_s("runner.run_test", "runner.materialize"),
        "trace.overhead_op_ms": (
            (statistics.fmean(ops) - statistics.fmean(untraced_op_s)) * 1e3
            if ops and untraced_op_s else 0.0),
    }
    for kind in ("contains", "inherits_from", "calls", "overload_of",
                 "overrides"):
        metrics[f"index.edges.{kind}"] = edges.get(kind, 0)
    for fn in ("find_class", "find_function", "get_inheritance_chain",
               "get_function_calls", "grep_baseline", "defect_subgraph"):
        metrics[f"queries.{fn}.p50_ms"] = ms(f"queries.{fn}", 50)
    metrics["queries.defect_subgraph.p99_ms"] = ms("queries.defect_subgraph", 99)
    for stage in ("reproduce", "localize", "generate", "prune", "validate",
                  "select"):
        metrics[f"pipeline.{stage}.busy_s"] = busy(f"pipeline.{stage}")
    return metrics
