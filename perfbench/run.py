"""Offline benchmark for cppatlas.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The seed picks the corpusgen seeds
(``tests/corpusgen.py``, about 70 or 400 of them); the benchmark lays
them out as a C++ tree under ``.perfbench_work/<workload>/``, starts
``worker.py`` in a process of its own to set up and run the workload
against that tree for ``--seconds``, then checks every output against
oracles that do not use cppatlas (see ``oracle.py``). Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
(from the span file ``.perfbench_work/<workload>/trace.jsonl``) with
``--trace 1``.

Workloads: ``index-replicated``, ``query-distinct``, ``pipeline-toy``;
``perfbench/README.md`` says what each measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
NEEDED = ("src/cppatlas", "tests/corpusgen.py", "tests/refquery.py",
          "tests/data/toyrepo", "BENCHMARK.json")

if __name__ == "__main__":
    _missing = [p for p in NEEDED if not (ROOT / p).exists()]
    if _missing:
        print(f"perfbench: run from the root of a cppatlas checkout; "
              f"missing {_missing}", file=sys.stderr)
        sys.exit(2)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import numpy  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from cppatlas.diffs import make_diff  # noqa: E402
from cppatlas.index import (  # noqa: E402
    IndexContainer, build_index, load_index, persist_index)
from cppatlas.intent import build_intent_index  # noqa: E402
from cppatlas.repo import load_repository  # noqa: E402

WORK = ROOT / ".perfbench_work"
# A run must end within 180 s; leave room for preparation and checks.
WORKER_TIMEOUT_S = 140
# Rounds of seven requests, one per tool. The loop cycles through the
# batch, so each request runs about eight times in a 25 s run and its
# median cost is known.
QUERY_ROUNDS = 20

FIX_OLD = "last_result_ = a - b;\n    return a + b;"
FIX_NEW = "last_result_ = a - b;\n    return a - b;"


def content_test(test_id: str, needle: str) -> dict:
    """A test in the style of scripts/run_toy_pipeline.py: pass when
    src/calc.cpp contains ``needle``. It runs ``grep``, not a Python
    interpreter, so that starting the test does not swamp the rest of the
    run."""
    return {"test_id": test_id,
            "command": ["grep", "-qF", "--", needle, "src/calc.cpp"]}


# ---------------------------------------------------------------------------
# preparation (untimed) and checks, one pair per workload


def prep_index(work: Path, seed: int):
    model, parts = corpus.build(seed, "replicated")
    corpus.write_tree(model.files, work / "tree")
    return {}, {"model": model, "files": model.files,
                "corpusgen_seeds": len(parts)}


def check_index(ctx: dict, result: dict, work: Path, report: dict) -> int:
    container = load_index(work / "index.caidx")
    bad = oracle.index_mismatches(container.structural, ctx["model"],
                                  "replicated")
    if not result["roundtrip"]:
        bad.append("persist_roundtrip")
    report["model_mismatches"] = bad
    report["index_bytes_per_source_byte"] = (
        result["index_bytes"] / report["shape"]["source_bytes"])
    return result["attempted"] if bad else result["failed"]


def prep_query(work: Path, seed: int):
    model, parts = corpus.build(seed, "distinct")
    corpus.write_tree(model.files, work / "tree")
    index = build_index(load_repository(work / "tree"))
    intent = build_intent_index(index)
    persist_index(IndexContainer(index, intent), work / "index.caidx")
    requests = corpus.request_batch(model, parts, seed, QUERY_ROUNDS)
    ctx = {"files": model.files, "requests": requests,
           "corpusgen_seeds": len(parts), "counts": spans.index_counts(index),
           "bad": oracle.index_mismatches(index, model, "distinct"),
           "oracle": oracle.ToolOracle(model, parts, index, intent)}
    return {"requests": requests}, ctx


def check_query(ctx: dict, result: dict, work: Path, report: dict) -> int:
    report["model_mismatches"] = ctx["bad"]
    if ctx["bad"]:
        return result["attempted"]
    with open(work / "responses.jsonl", encoding="utf-8") as fh:
        responses = [json.loads(line) for line in fh]
    failed = result["failed"]
    for i, response in enumerate(responses):
        if not ctx["oracle"].check(ctx["requests"][i], response):
            failed += result["executed"][i]
    return failed


def prep_pipeline(work: Path, seed: int):
    # The toy repository alone: with ~1,200 corpus files next to it, each
    # test's materialize_repo dominated the run and its time on this disk
    # swung tenfold from minute to minute (see README.md).
    toy = ROOT / "tests" / "data" / "toyrepo"
    files = {path.relative_to(toy).as_posix(): path.read_text(encoding="utf-8")
             for path in sorted(toy.rglob("*")) if path.is_file()}
    corpus.write_tree(files, work / "tree")

    calc = files["src/calc.cpp"]
    fixed = calc.replace(FIX_OLD, FIX_NEW)
    stale = calc.replace("int Calculator::subtract(int a, int b) {",
                         "int Calculator::subtract(long a, long b) {")
    diffs = {
        "twin": make_diff(calc, fixed.replace(
            "int Calculator::subtract",
            "// fixed\nint Calculator::subtract"), "src/calc.cpp"),
        "breaker": make_diff(calc, calc.replace('return "basic";',
                                                'return "fancy";'),
                             "src/calc.cpp"),
        "stale": make_diff(stale, stale.replace(FIX_OLD, FIX_NEW),
                           "src/calc.cpp"),
        "fix": make_diff(calc, fixed, "src/calc.cpp"),
    }
    diffs["duplicate"] = diffs["fix"]
    tests = [content_test("t-subtract-fixed", "return a - b;"),
             content_test("t-flavor", 'return "basic";')]
    inputs = {
        "issue": {
            "title": "Calculator::subtract returns the sum",
            "body": "Calling `Calculator::subtract` adds its arguments "
                    "instead of subtracting them.",
        },
        "tests": tests,
        # The seed only orders the emissions; no verdict depends on it.
        "emitted_diffs": random.Random(seed).sample(list(diffs.values()),
                                                    len(diffs)),
    }
    expect = {"diffs": diffs, "repro_test_id": tests[0]["test_id"]}
    return inputs, {"files": files, "expect": expect, "corpusgen_seeds": 0}


def check_pipeline(ctx: dict, result: dict, work: Path, report: dict) -> int:
    report["model_mismatches"] = []
    return sum(0 if "error" not in s and oracle.check_pipeline(s, ctx["expect"])
               else 1 for s in result["summaries"])


WORKLOADS = {
    "index-replicated": (prep_index, check_index),
    "query-distinct": (prep_query, check_query),
    "pipeline-toy": (prep_pipeline, check_pipeline),
}


# ---------------------------------------------------------------------------


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from this process's mount
    table; memory-backed types are tmpfs and ramfs."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                if (str(path).startswith(mount.rstrip("/") + "/")
                        and len(mount) > len(best)):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def end_to_end(result: dict) -> dict:
    """``op_cost_ref`` is what one operation costs in units of the
    worker's reference computation: each timed operation's seconds over
    those of the reference timing made right after it, the median of that
    over the repeats of each distinct operation (each request of the batch
    on query-distinct; the one build or pipeline run elsewhere), averaged
    over the distinct operations. The machine's speed changes, the
    program's cost relative to the reference much less (see README.md)."""
    ratios: dict = {}
    for key, seconds, ref in zip(result["op_key"], result["op_s"],
                                 result["op_ref"]):
        ratios.setdefault(key, []).append(seconds / result["reference_s"][ref])
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_bytes"] / 1e6,
        "op_cost_ref": statistics.fmean(
            statistics.median(r) for r in ratios.values()),
    }


def workload_lines(name: str, result: dict, report: dict) -> list[str]:
    """The workload's own end-to-end names, printed for people."""
    ops = sorted(result["op_s"])
    if name == "index-replicated":
        return [f"index_s {statistics.median(ops):.4f} s (median of "
                f"{len(ops)}; fastest {ops[0]:.4f} s)",
                "index_bytes_per_source_byte "
                f"{report['index_bytes_per_source_byte']:.3f} ratio"]
    if name == "pipeline-toy":
        return [f"pipeline_s {statistics.median(ops):.4f} s (median of "
                f"{len(ops)}; fastest {ops[0]:.4f} s)"]
    n = len(ops)
    beyond = n - -(-n * 99 // 100)
    return [f"query_p50_ms {spans.percentile(ops, 50) * 1e3:.4f} ms (n={n}, "
            f"{n / len(set(result['op_key'])):.1f} runs per request)",
            f"query_p99_ms {spans.percentile(ops, 99) * 1e3:.4f} ms "
            f"(n={n}, {beyond} samples beyond p99)",
            f"query_per_s {n / sum(ops):.3f} 1/s"]


def reference_line(result: dict) -> str:
    refs = result["reference_s"]
    return (f"reference_ms {statistics.median(refs) * 1e3:.4f} ms (median of "
            f"{len(refs)}; fastest {min(refs) * 1e3:.4f} ms)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prep, check = WORKLOADS[args.workload]
    inputs, ctx = prep(work, args.seed)
    (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")

    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             args.workload, "--work", str(work), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=WORKER_TIMEOUT_S,
            # One process, one client, no threads: OpenBLAS would otherwise
            # keep a second thread spinning on the other core after every
            # intent query (same latency, 1.6x the CPU time).
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    report = {"shape": {**corpus.tree_shape(ctx["files"]),
                        "corpusgen_seeds": ctx["corpusgen_seeds"]}}
    attempted = result["attempted"]
    failed = min(attempted, check(ctx, result, work, report))

    if args.trace:
        values = spans.layer_metrics(spans.read_spans(work / "trace.jsonl"),
                                     result["op_s"])
        table = declared["per_layer"]
    else:
        values = end_to_end(result)
        table = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds}")
    print(f"environment: python {platform.python_version()}, numpy "
          f"{numpy.__version__}, nproc {os.cpu_count()}, scratch "
          f"{work.relative_to(ROOT)} on {filesystem_of(work)}")
    shape = report["shape"]
    counts = result.get("counts") or ctx.get("counts")
    print(f"corpus: {shape['corpusgen_seeds']} corpusgen seeds, "
          f"units {shape['units']}, "
          f"source_bytes {shape['source_bytes']}"
          + (f", symbols {counts['symbols']}, edges "
             + " ".join(f"{k}={v}" for k, v in counts["edges"].items())
             if counts else ""))
    if report["model_mismatches"]:
        print(f"model mismatches: {report['model_mismatches']}")
    if not args.trace:
        for line in workload_lines(args.workload, result, report):
            print(line)
        print(reference_line(result))
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and not report["model_mismatches"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
