"""Paired benchmark runs of a parent checkout against a change checkout.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --seeds 6201-6210 --out BENCH_x.json --what "what the change does"

For each seed, and each workload in turn, it runs
``python3 perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0``
once in each checkout, one after the other. The side that runs first
alternates: the parent in pairs 1, 3, 5, ..., the change in pairs 2, 4,
6, .... It reads the JSON object on the last line of each run's stdout
and prints, per workload and end-to-end metric of ``BENCHMARK.json``,
the medians of both sides, the pairs in which the change was better, the
parent's interquartile range and a verdict against the metric's bound.
It also prints each side's failed share of the operations it attempted,
the runs that read ``correct: false``, and whether the change failed a
larger share than the parent, which rejects a change.
With ``--claim WORKLOAD:METRIC`` it also prints whether the gain rule
holds for that metric (``claim``), and records it under ``claim``.
The summary file (``--out``) is rewritten after every pair, so a run that
is stopped keeps the pairs it finished. Nothing is written in either
checkout but what ``perfbench/run.py`` itself writes there.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
WORKLOADS = ("index-replicated", "query-distinct", "pipeline-toy")


def seed_list(text: str) -> list[int]:
    """``6201-6210`` or ``6201,6205,6300-6302``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its last stdout line, or a failed run,
    which counts as one failed operation."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{checkout} {workload} {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def complete_pairs(runs: dict, metric: dict):
    """The parent's and the change's values of one metric, as two arrays,
    over the pairs in which both sides gave it; with the number of pairs
    in which the change was better (a tie counts for neither side)."""
    name = metric["name"]
    pairs = [(p, c) for p, c in zip(runs["parent"][name], runs["change"][name])
             if p is not None and c is not None]
    parent = np.array([p for p, _ in pairs], dtype=float)
    change = np.array([c for _, c in pairs], dtype=float)
    better = change < parent if metric["better"] == "lower" else change > parent
    return parent, change, int(np.sum(better))


def summarize(runs: dict, metric: dict) -> dict:
    """Medians, quartiles and wins of one metric over the pairs run."""
    lower = metric["better"] == "lower"
    parent, change, wins = complete_pairs(runs, metric)
    if not len(parent):
        return {"unit": metric["unit"], "pairs": 0}
    p25, p50, p75 = np.percentile(parent, [25, 50, 75])
    c25, c50, c75 = np.percentile(change, [25, 50, 75])
    worse = (c50 - p50 if lower else p50 - c50) / p50
    spread = (p75 - p25) / p50
    if (change.max() < parent.min()) if lower else (change.min() > parent.max()):
        verdict = "better in every run"
    elif spread > metric["bound"]:
        verdict = (f"unresolved: the parent's IQR is {spread:.1%} of its "
                   f"median, wider than the bound {metric['bound']:.0%}")
    elif worse > metric["bound"]:
        verdict = f"worse beyond the bound {metric['bound']:.0%}"
    else:
        verdict = f"within the bound {metric['bound']:.0%}"
    return {
        "unit": metric["unit"],
        "parent_median": p50,
        "parent_quartiles": [p25, p75],
        "parent_iqr": p75 - p25,
        "change_median": c50,
        "change_quartiles": [c25, c75],
        "change_better_in_pairs": f"{wins}/{len(parent)}",
        "median_change_percent": (c50 - p50) / p50 * 100,
        "verdict": verdict,
    }


def failed_shares(entry: dict) -> dict:
    """Each side's failed and attempted operations, summed over its runs,
    and their share; the [seed, side] of every run that read ``correct:
    false``; and whether the change failed a larger share than the
    parent (``change_fails_more``)."""
    result = {}
    for side in SIDES:
        failed, attempted = sum(entry["failed"][side]), sum(entry["attempted"][side])
        result[side] = {"failed": failed, "attempted": attempted,
                        "share": failed / attempted if attempted else 0.0}
    result["not_correct"] = [
        [seed, side] for side in SIDES
        for seed, ok in zip(entry["seeds"], entry["correct"][side]) if not ok]
    result["change_fails_more"] = (result["change"]["share"]
                                   > result["parent"]["share"])
    return result


MIN_PAIRS = 10


def claim(runs: dict, metric: dict) -> dict:
    """The gain rule for one metric: at least ``MIN_PAIRS`` pairs run; the
    change better in at least nine tenths of all of them (a pair that
    lacks a side's value counts as no win); and the change's median better
    than the parent's by more than the parent's interquartile range."""
    parent, change, wins = complete_pairs(runs, metric)
    pairs = len(runs["parent"][metric["name"]])
    result = {"metric": metric["name"], "pairs_run": pairs,
              "change_better_in_pairs": f"{wins}/{pairs}"}
    if not len(parent):
        return {**result, "holds": False, "verdict": "not met: no complete pair"}
    p25, p50, p75 = np.percentile(parent, [25, 50, 75])
    c50 = float(np.median(change))
    gain = p50 - c50 if metric["better"] == "lower" else c50 - p50
    result.update(parent_median=p50, change_median=c50, parent_iqr=p75 - p25,
                  median_gain=gain)
    failed = []
    if pairs < MIN_PAIRS:
        failed.append(f"{pairs} pairs run, fewer than {MIN_PAIRS}")
    if wins * 10 < pairs * 9:
        failed.append(f"better in {wins} of {pairs} pairs, fewer than 9 in 10")
    if not gain > p75 - p25:
        failed.append(f"the medians' gain {gain:.4g} is not more than the "
                      f"parent's IQR {p75 - p25:.4g}")
    verdict = ("not met: " + "; ".join(failed) if failed else
               f"holds: better in {wins} of {pairs} pairs, and the medians' "
               f"gain {gain:.4g} exceeds the parent's IQR {p75 - p25:.4g}")
    return {**result, "holds": not failed, "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--what", default="")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="judge the gain rule for this metric")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"]
    workloads = args.workloads.split(",")
    claimed = None
    if args.claim:
        workload, _, name = args.claim.partition(":")
        claimed = next((m for m in metrics if m["name"] == name), None)
        if workload not in workloads or claimed is None:
            parser.error(f"--claim {args.claim}: not a workload run and an "
                         "end-to-end metric")
    seeds = ",".join(map(str, args.seeds))
    summary = {
        "what": args.what,
        "commands": [f"python3 perfbench/run.py --workload {w} --seed <{seeds}> "
                     f"--seconds {args.seconds:g} --trace 0" for w in workloads],
        "environment": f"python {platform.python_version()}, numpy "
                       f"{np.__version__}, {platform.system()} "
                       f"{platform.release()}; both sides run one after the "
                       "other, the first side alternating; quartiles are "
                       "numpy.percentile 25 and 75",
        "end_to_end": {},
    }
    table = {w: {"pairs_run": 0, "seeds": [], "first_side": [],
                 **{k: {s: [] for s in SIDES}
                    for k in ("correct", "failed", "attempted")},
                 "summary": {},
                 "runs": {s: {m["name"]: [] for m in metrics} for s in SIDES}}
             for w in workloads}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            entry = table[workload]
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds)
                for key in ("correct", "failed", "attempted"):
                    entry[key][side].append(result[key])
                for m in metrics:
                    value = result["metrics"].get(m["name"], {}).get("value")
                    entry["runs"][side][m["name"]].append(value)
            entry["pairs_run"] += 1
            entry["seeds"].append(seed)
            entry["first_side"].append(order[0])
            entry["summary"] = {m["name"]: summarize(entry["runs"], m)
                                for m in metrics}
            entry["failures"] = failed_shares(entry)
            summary["end_to_end"][workload] = entry
            if claimed and workload == args.claim.partition(":")[0]:
                summary["claim"] = claim(entry["runs"], claimed)
            args.out.write_text(json.dumps(summary, indent=1) + "\n")
            print(f"pair {i + 1} seed {seed} {workload}: " + ", ".join(
                f"{side} {'correct' if entry['correct'][side][-1] else 'WRONG'}"
                for side in SIDES), flush=True)

    for workload, entry in summary["end_to_end"].items():
        failures = entry["failures"]
        print(f"\n{workload}: {entry['pairs_run']} pairs; failed " + ", ".join(
            f"{side} {failures[side]['failed']} of {failures[side]['attempted']} "
            f"({failures[side]['share']:.4%})" for side in SIDES)
            + "; the change failed a larger share: "
            + ("YES" if failures["change_fails_more"] else "no"))
        if failures["not_correct"]:
            print("  not correct: " + ", ".join(
                f"seed {seed} {side}" for seed, side in failures["not_correct"]))
        for name, s in entry["summary"].items():
            if not s.get("pairs", 1):
                print(f"  {name}: no complete pair")
                continue
            print(f"  {name}: parent {s['parent_median']:.6g} -> change "
                  f"{s['change_median']:.6g} {s['unit']} "
                  f"({s['median_change_percent']:+.1f}%), change better in "
                  f"{s['change_better_in_pairs']}, parent IQR "
                  f"{s['parent_iqr']:.4g}; {s['verdict']}")
    if claimed:
        print(f"\nclaim {args.claim}: {summary['claim']['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
