"""One workload in a process of its own, so its peak RSS is the workload's.

Started by ``run.py`` from the root of a checkout. Reads the prepared
inputs from the work directory, then: one set-up, one untimed operation,
the peak RSS (what a one-shot ``cppatlas index``, ``serve`` or pipeline
run holds), and the timed closed loop with the remaining set-ups spread
over it. Writes what the checks need to ``result.json``. It imports
cppatlas and nothing of the tests.

With ``--trace 1`` the loop alternates an untraced operation with a traced
one. A traced operation runs inside an ``op`` span; after it, the same
request also calls the lower layers' public functions directly (the lexer
and parser passes, summarize and embed, each query function, apply_patch,
run_test and materialize_repo) so their spans split the operation by layer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from spans import Tracer, index_counts  # noqa: E402

from cppatlas.backends import HeuristicJudge, ScriptedBackend  # noqa: E402
from cppatlas.cxx.lexer import lex  # noqa: E402
from cppatlas.cxx.parser import parse_unit  # noqa: E402
from cppatlas.diffs import apply_patch  # noqa: E402
from cppatlas.errors import EngineError, JudgeError  # noqa: E402
from cppatlas.index import (  # noqa: E402
    IndexContainer, build_index, load_index, persist_index)
from cppatlas.intent import (  # noqa: E402
    HashEmbeddingProvider, build_intent_index, localize, query_code_intent,
    summarize_artifact)
from cppatlas.pipeline import (  # noqa: E402
    BaselineCache, CandidateReport, PipelineConfig, complexity,
    generate_candidates, locality, prune, reproduce, run_pipeline, select,
    validate, vote_score)
from cppatlas.queries import (  # noqa: E402
    defect_subgraph, find_class, find_function, get_function_calls,
    get_inheritance_chain, grep_baseline, snippet_for)
from cppatlas.repo import IssueDescription, load_repository  # noqa: E402
from cppatlas.runner import (  # noqa: E402
    RunnerConfig, TestCase, materialize_repo, run_test)
from cppatlas.server import handle_line  # noqa: E402
from cppatlas.tools import ToolContext  # noqa: E402

# Set-ups per run. A set-up of a few hundredths of a second is timed more
# often, so that its median does not rest on a few short samples.
SETUP_REPEATS = 5
SHORT_SETUP_REPEATS = 11
# The reference computation is timed after every REFERENCE_EVERY_S seconds
# of operations, and after the last one.
REFERENCE_EVERY_S = 0.2

pc = time.perf_counter


def _reference_work() -> int:
    """A fixed pure-Python computation of about 8 ms: build strings, count
    them in a dict, sort and join them. Nothing it makes outlives it, and
    it uses nothing of cppatlas."""
    words = [str(i * 7919 % 100003) for i in range(10000)]
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + len(word)
    words.sort()
    return sum(counts.values()) + len("".join(words))


def reference_s() -> float:
    """Fastest of three runs of the reference computation, with the
    collector off so that it never pays for the program's garbage."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            started = pc()
            _reference_work()
            best = min(best, pc() - started)
    finally:
        gc.enable()
    return best


class _Untraced:
    """Stands in for a Tracer when the run is not traced."""

    @contextlib.contextmanager
    def span(self, name, request):
        yield {}


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_phases(setup, step, seconds: float, alternate: bool,
               setups: int = SETUP_REPEATS) -> dict:
    """``setup(i)`` performs set-up ``i`` and returns its seconds;
    ``step(n, traced)`` performs operation ``n`` and returns ``(key,
    seconds)`` for an untraced operation, where ``key`` names the request
    it served, or None when it was traced. Operation 0 runs right after the
    first set-up and is not timed, so heap growth and first-touch page
    faults stay out of the loop; the peak RSS is read after it. The timed
    loop is closed: the next operation starts when the last returns, until
    ``seconds`` of operations have passed. The remaining set-ups are spread
    evenly over the loop, so that their median covers the same stretch of
    time as the operations; the time they take does not count towards
    ``seconds``. With ``alternate`` every second operation is traced, and
    there is at least one of each.

    The machine's speed changes under the workload: one index build of the
    same corpus took 0.39 to 0.77 s within three minutes, its fastest in
    each 20 s stretch 0.39 to 0.60 s, with CPU time equal to wall time. So
    each timed operation is paired with a timing of a fixed reference
    computation made right after it (``op_ref`` indexes ``reference_s``);
    operation time over reference time moves with the program, and much
    less with the machine."""
    setup_s = [setup(0)]
    step(0, False)
    rss = peak_rss_bytes()
    gap = seconds / setups
    op_s, op_key, op_ref, refs = [], [], [], []
    pending = 0  # timed operations not yet paired with a reference timing
    since = 0.0  # their seconds
    n = 1
    start = pc()
    aside = 0.0  # seconds spent in set-ups since the loop started
    while True:
        elapsed = pc() - start - aside
        if len(setup_s) < setups and elapsed >= gap * len(setup_s):
            began = pc()
            setup_s.append(setup(len(setup_s)))
            aside += pc() - began
            continue
        done = elapsed >= seconds and len(setup_s) == setups and not (
            alternate and n < 3)
        if pending and (done or since >= REFERENCE_EVERY_S):
            began = pc()
            refs.append(reference_s())
            aside += pc() - began
            op_ref += [len(refs) - 1] * pending
            pending, since = 0, 0.0
        if done:
            break
        timed = step(n, alternate and n % 2 == 0)
        if timed is not None:
            op_key.append(timed[0])
            op_s.append(timed[1])
            pending += 1
            since += timed[1]
        n += 1
    return {"setup_s": setup_s, "peak_rss_bytes": rss, "attempted": n,
            "op_s": op_s, "op_key": op_key, "op_ref": op_ref,
            "reference_s": refs}


def build_traced(tr, repo, request):
    with tr.span("index.build", request) as counts:
        index = build_index(repo)
    counts.update(index_counts(index))
    with tr.span("intent.build", request) as counts:
        intent = build_intent_index(index)
    counts["docs"] = len(intent.docs)
    return index, intent


def probe_index_layers(tr, repo, index, request):
    """Direct calls into the layers build_index and build_intent_index use
    internally: lex and parse_unit on every unit, in turn, so that parse
    time minus lex time is taken under the same conditions; then one
    summarize pass and one embed pass over every real symbol."""
    for unit in repo.units:
        if unit.kind not in ("header", "source"):
            continue
        with tr.span("cxx.lexer", request) as counts:
            lexed = lex(unit.content)
        counts["tokens"] = len(lexed.tokens)
        with tr.span("cxx.parser", request) as counts:
            parsed = parse_unit(unit)
        counts.update(symbols=len(parsed.symbols), errors=parsed.error_count)
    records = [r for r in index.symbols if not r.is_synthetic]
    with tr.span("intent.summarize", request):
        texts = [summarize_artifact(r, snippet_for(index, r)) for r in records]
    with tr.span("intent.embed", request):
        HashEmbeddingProvider().embed_many(texts)


def load_traced(tr, root: Path, request):
    with tr.span("repo.load", request) as counts:
        repo = load_repository(root)
    counts.update(units=len(repo.units), source_bytes=sum(
        len(u.content.encode("utf-8")) for u in repo.units))
    return repo


# ---------------------------------------------------------------------------
# index-replicated: the `cppatlas index` path


def index_workload(work: Path, inputs: dict, seconds: float, tracer) -> dict:
    tr = tracer or _Untraced()
    out = work / "index.caidx"
    state = {}
    digests = []

    def setup(i):
        started = pc()
        state["repo"] = load_traced(tr, work / "tree", f"setup{i}")
        return pc() - started

    def step(n, traced):
        repo = state["repo"]
        state.pop("index", None)
        state.pop("intent", None)
        gc.collect()
        elapsed = None
        if traced:
            with tr.span("op", n):
                index, intent = build_traced(tr, repo, n)
                with tr.span("index.persist", n) as counts:
                    persist_index(IndexContainer(index, intent), out)
            counts["file_bytes"] = out.stat().st_size
            probe_index_layers(tr, repo, index, n)
        else:
            started = pc()
            index = build_index(repo)
            intent = build_intent_index(index)
            persist_index(IndexContainer(index, intent), out)
            elapsed = pc() - started
        state.update(index=index, intent=intent)
        digests.append(_sha256(out))
        return None if elapsed is None else (0, elapsed)

    result = run_phases(setup, step, seconds, tracer is not None,
                        SHORT_SETUP_REPEATS)
    with tr.span("index.load", "check"):
        loaded = load_index(out)
    return {
        **result,
        "failed": sum(d != digests[0] for d in digests),
        "roundtrip": (loaded.structural == state["index"]
                      and loaded.intent == state["intent"]),
        "index_bytes": out.stat().st_size,
        "counts": index_counts(state["index"]),
    }


def _sha256(path: Path) -> str:
    """Digest read in blocks, so checking adds nothing to the peak RSS."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# query-distinct: one agent sending tool requests to the server


def _direct_call(ctx: ToolContext, tool: str, a: dict):
    """The query function a tool request ends in, with the same
    arguments, and the span name it is recorded under."""
    s = ctx.structural
    if tool == "FindClass":
        return "queries.find_class", lambda: find_class(s, a["name"])
    if tool == "FindFunction":
        return "queries.find_function", lambda: find_function(
            s, a["name"], a.get("signature"))
    if tool == "GetInheritanceChain":
        return "queries.get_inheritance_chain", lambda: get_inheritance_chain(
            s, a["name"], a["direction"])
    if tool == "GetFunctionCalls":
        return "queries.get_function_calls", lambda: get_function_calls(
            s, a["name"], a["signature"], a["direction"])
    if tool == "QueryCodeIntent":
        return "intent.query", lambda: query_code_intent(
            ctx.intent, a["text"], k=a["k"], provider=ctx.provider)
    if tool == "GrepBaseline":
        return "queries.grep_baseline", lambda: grep_baseline(
            s, a["pattern"], a["max_results"], a["regex"])
    return "queries.defect_subgraph", lambda: defect_subgraph(
        s, a["seeds"], a["hops"])


def query_workload(work: Path, inputs: dict, seconds: float, tracer) -> dict:
    tr = tracer or _Untraced()
    state = {}

    def setup(i):
        state.clear()  # let the previous set-up go before loading again
        gc.collect()
        started = pc()
        with tr.span("index.load", f"setup{i}"):
            container = load_index(work / "index.caidx")
        with tr.span("server.start", f"setup{i}"):
            state["ctx"] = ToolContext(structural=container.structural,
                                       intent=container.intent)
        return pc() - started

    requests = inputs["requests"]
    lines = [json.dumps({"request_id": r["request_id"], "tool": r["tool"],
                         "arguments": r["arguments"]}) for r in requests]
    first: list[str | None] = [None] * len(lines)
    executed = [0] * len(lines)
    differ = 0

    def step(n, _):
        nonlocal differ
        ctx = state["ctx"]
        i = n % len(lines)
        started = pc()
        response = handle_line(ctx, lines[i])
        elapsed = pc() - started
        if tracer is not None:
            with tr.span("op", n):
                with tr.span("server.handle_line", n) as counts:
                    again = handle_line(ctx, lines[i])
            counts["response_bytes"] = len(again.encode("utf-8"))
            name, call = _direct_call(ctx, requests[i]["tool"],
                                      requests[i]["arguments"])
            with tr.span(name, n):
                try:
                    call()
                except EngineError:
                    pass
            differ += again != response
        executed[i] += 1
        if first[i] is None:
            first[i] = response
        else:
            differ += response != first[i]
        return i, elapsed

    # Every request is timed untraced; a traced run also repeats each one
    # under spans right after it, so the loop does not alternate here.
    result = run_phases(setup, step, seconds, False)
    with open(work / "responses.jsonl", "w", encoding="utf-8") as fh:
        for response in first:
            if response is not None:
                fh.write(response + "\n")
    return {**result, "failed": differ, "executed": executed}


# ---------------------------------------------------------------------------
# pipeline-toy: validate-and-vote on the planted defect


def _summary(status, selected, candidates, prune_report, reports) -> dict:
    return {
        "status": status,
        "selected_diff": selected.candidate.diff if selected else None,
        "diffs": {c.id: c.diff for c in candidates},
        "prune": prune_report,
        "candidates": [{"candidate_id": r.candidate.id, "valid": r.valid,
                        "reason": r.reason} for r in reports],
    }


def traced_pipeline(tr, n, repo, issue, repro_backend, gen_backend,
                    regression, config, structural, intent) -> dict:
    """``run_pipeline`` recomposed from its public stage functions, in the
    same order and with the same arguments, so each stage gets a span."""
    judge = HeuristicJudge()
    with tr.span("op", n):
        tool_ctx = ToolContext(structural=structural, intent=intent)
        with tr.span("pipeline.reproduce", n):
            repro = reproduce(repo, issue, repro_backend, config, tool_ctx)
        with tr.span("pipeline.localize", n):
            loc = localize(structural, intent, issue, k=config.intent_k,
                           hops=config.subgraph_hops)
        with tr.span("pipeline.generate", n) as gen_counts:
            generation = generate_candidates(
                repo, issue, gen_backend, config, tool_ctx, localization=loc)
        with tr.span("pipeline.prune", n) as prune_counts:
            kept, prune_report = prune(repo, generation.candidates)
        with tr.span("pipeline.validate", n) as valid_counts:
            cache = BaselineCache()
            cache.seed(repo, repro.test.test_id, repro.baseline_outcome.status)
            verdicts = validate(repo, kept, [repro.test], regression,
                                config.runner, cache)
        with tr.span("pipeline.select", n):
            reports = []
            for candidate in kept:
                ok, reason, outcomes = verdicts[candidate.id]
                try:
                    align = judge.score(issue.query_text, candidate)
                except JudgeError as exc:
                    ok, reason, align = False, f"judge_error:{exc}", 0.0
                comp = complexity(candidate)
                loc01 = locality(candidate, structural, loc["subgraph_nodes"])
                reports.append(CandidateReport(
                    candidate=candidate, valid=ok, reason=reason, align=align,
                    complexity=comp, locality=loc01,
                    vote=vote_score(align, comp, loc01, config.vote_weights),
                    outcomes=outcomes))
            winner = select(reports, config.selection_strategy)
    gen_counts["candidates"] = len(generation.candidates)
    prune_counts["kept"] = len(kept)
    valid_counts["valid"] = sum(1 for v in verdicts.values() if v[0])

    for candidate in generation.candidates:
        with tr.span("diffs.apply", n):
            try:
                apply_patch(repo, candidate)
            except EngineError:
                pass
    # Re-run, on the same snapshots, every test the pipeline ran: the
    # reproduction on the baseline, each candidate's outcomes, and the
    # baseline run of each regression test validation consulted.
    tests = {t.test_id: t for t in [repro.test, *regression]}
    runs = [(repo, repro.test)]
    consulted = set()
    for report in reports:
        patched = apply_patch(repo, report.candidate)
        for outcome in report.outcomes:
            runs.append((patched, tests[outcome.test_id]))
            if outcome.test_id != repro.test.test_id:
                consulted.add(outcome.test_id)
    runs.extend((repo, tests[t]) for t in sorted(consulted))
    for snapshot, test in runs:
        with tr.span("runner.run_test", n):
            run_test(snapshot, test, config.runner)
        scratch = Path(tempfile.mkdtemp(dir=config.runner.scratch_root))
        with tr.span("runner.materialize", n):
            materialize_repo(snapshot, scratch)
        shutil.rmtree(scratch)
    return _summary("SUCCESS" if winner else "FAILURE", winner,
                    generation.candidates, prune_report, reports)


def pipeline_workload(work: Path, inputs: dict, seconds: float, tracer) -> dict:
    tr = tracer or _Untraced()
    state = {}

    def setup(i):
        state.clear()
        gc.collect()
        started = pc()
        repo = load_traced(tr, work / "tree", f"setup{i}")
        index, intent = build_traced(tr, repo, f"setup{i}")
        elapsed = pc() - started
        if tracer is not None and i == SHORT_SETUP_REPEATS - 1:
            probe_index_layers(tr, repo, index, f"setup{i}")
        state.update(repo=repo, index=index, intent=intent)
        return elapsed

    issue = IssueDescription.from_text(inputs["issue"]["title"],
                                       inputs["issue"]["body"])
    tests = [TestCase.from_dict(t) for t in inputs["tests"]]
    repro_turns = [{"turn": "emit", "kind": "test", "test": tests[0].to_dict()}]
    gen_turns = [{"turn": "emit", "kind": "patch", "diff": d}
                 for d in inputs["emitted_diffs"]]
    scratch = work / "runner"
    scratch.mkdir(exist_ok=True)
    config = PipelineConfig(runner=RunnerConfig(scratch_root=str(scratch)))
    summaries = []

    def step(n, traced):
        repo, index, intent = state["repo"], state["index"], state["intent"]
        repro_backend = ScriptedBackend(repro_turns)
        gen_backend = ScriptedBackend(gen_turns)
        gc.collect()
        try:
            if traced:
                summaries.append(traced_pipeline(
                    tr, n, repo, issue, repro_backend, gen_backend, tests[1:],
                    config, index, intent))
                return None
            started = pc()
            result = run_pipeline(repo, issue, repro_backend, gen_backend,
                                  regression_tests=tests[1:], config=config,
                                  structural=index, intent=intent)
            elapsed = pc() - started
        except EngineError as exc:
            summaries.append({"error": exc.kind})
            return None
        summaries.append(_summary(result.status, result.selected,
                                  result.generation.candidates,
                                  result.prune_report, result.reports))
        return 0, elapsed

    result = run_phases(setup, step, seconds, tracer is not None,
                        SHORT_SETUP_REPEATS)
    return {**result, "failed": 0, "summaries": summaries,
            "counts": index_counts(state["index"])}


WORKLOADS = {
    "index-replicated": index_workload,
    "query-distinct": query_workload,
    "pipeline-toy": pipeline_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = Path(args.work)
    inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    tracer = Tracer() if args.trace else None
    result = WORKLOADS[args.workload](work, inputs, args.seconds, tracer)
    if tracer is not None:
        tracer.write(work / "trace.jsonl")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
