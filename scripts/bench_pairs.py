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
    """One untraced benchmark run: its last stdout line, or a failed run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{checkout} {workload} {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {}}
    return json.loads(lines[-1])


def summarize(runs: dict, metric: dict) -> dict:
    """Medians, quartiles and wins of one metric over the pairs run."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(p, c) for p, c in zip(runs["parent"][name], runs["change"][name])
             if p is not None and c is not None]
    if not pairs:
        return {"unit": metric["unit"], "pairs": 0}
    parent, change = (np.array(side, dtype=float) for side in zip(*pairs))
    p25, p50, p75 = np.percentile(parent, [25, 50, 75])
    c25, c50, c75 = np.percentile(change, [25, 50, 75])
    wins = int(np.sum(change < parent if lower else change > parent))
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
        "change_better_in_pairs": f"{wins}/{len(pairs)}",
        "median_change_percent": (c50 - p50) / p50 * 100,
        "verdict": verdict,
    }


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
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"]
    workloads = args.workloads.split(",")
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
            summary["end_to_end"][workload] = entry
            args.out.write_text(json.dumps(summary, indent=1) + "\n")
            print(f"pair {i + 1} seed {seed} {workload}: " + ", ".join(
                f"{side} {'correct' if entry['correct'][side][-1] else 'WRONG'}"
                for side in SIDES), flush=True)

    for workload, entry in summary["end_to_end"].items():
        bad = sum(not ok for side in SIDES for ok in entry["correct"][side])
        print(f"\n{workload}: {entry['pairs_run']} pairs, {bad} runs not correct")
        for name, s in entry["summary"].items():
            if not s.get("pairs", 1):
                print(f"  {name}: no complete pair")
                continue
            print(f"  {name}: parent {s['parent_median']:.6g} -> change "
                  f"{s['change_median']:.6g} {s['unit']} "
                  f"({s['median_change_percent']:+.1f}%), change better in "
                  f"{s['change_better_in_pairs']}, parent IQR "
                  f"{s['parent_iqr']:.4g}; {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
