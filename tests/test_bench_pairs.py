"""scripts/bench_pairs.py: seed lists, the verdict on each end-to-end
metric, the gain rule for a claimed one and the failed shares, on
synthetic runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs(parent, change, name="setup_s"):
    return {"parent": {name: list(parent)}, "change": {name: list(change)}}


def test_seed_list():
    assert bench_pairs.seed_list("6201-6204") == [6201, 6202, 6203, 6204]
    assert bench_pairs.seed_list("6201,6205,6300-6302") == [
        6201, 6205, 6300, 6301, 6302]
    assert bench_pairs.seed_list("7") == [7]


@pytest.mark.parametrize("parent, change, verdict", [
    # every change run below every parent run
    ([1.0, 1.1, 1.2, 1.3], [0.5, 0.6, 0.7, 0.9], "better in every run"),
    # the parent's own spread is wider than the bound
    ([1.0, 2.0, 3.0, 4.0], [2.0, 2.5, 3.5, 0.9], "unresolved"),
    ([1.0, 1.0, 1.02, 1.02], [1.4, 1.4, 1.4, 0.9], "worse beyond the bound"),
    ([1.0, 1.0, 1.02, 1.02], [1.1, 1.1, 0.9, 1.1], "within the bound"),
], ids=["better", "unresolved", "worse", "within"])
def test_summarize_verdicts(parent, change, verdict):
    summary = bench_pairs.summarize(runs(parent, change), LOWER)
    assert summary["verdict"].startswith(verdict)
    assert summary["change_better_in_pairs"].endswith(f"/{len(parent)}")


def test_summarize_skips_a_pair_without_both_sides():
    summary = bench_pairs.summarize(runs([1.0, None, 1.0], [0.5, 0.5, None]),
                                    LOWER)
    assert summary["change_better_in_pairs"] == "1/1"
    assert bench_pairs.summarize(runs([None], [0.5]), LOWER)["pairs"] == 0


# ten parent runs of median 100 and interquartile range 10
PARENT = [90, 92, 94, 96, 98, 102, 104, 106, 108, 110]


def test_claim_holds_when_nine_in_ten_win_beyond_the_iqr():
    change = [p - 15 for p in PARENT[:-1]] + [PARENT[-1] + 1]
    got = bench_pairs.claim(runs(PARENT, change), LOWER)
    assert got["holds"], got["verdict"]
    assert got["change_better_in_pairs"] == "9/10"
    assert got["verdict"].startswith("holds")


def test_claim_needs_nine_tenths_of_all_pairs():
    change = [p - 15 for p in PARENT[:-2]] + PARENT[-2:]  # two ties
    got = bench_pairs.claim(runs(PARENT, change), LOWER)
    assert not got["holds"] and "8 of 10" in got["verdict"]
    # a pair that lost a side's value is no win, but a pair run
    change = [p - 15 for p in PARENT[:-2]] + [None, None]
    got = bench_pairs.claim(runs(PARENT, change), LOWER)
    assert not got["holds"] and got["change_better_in_pairs"] == "8/10"


def test_claim_needs_a_gain_beyond_the_parents_iqr():
    change = [p - 5 for p in PARENT]  # better in every pair, by half the IQR
    got = bench_pairs.claim(runs(PARENT, change), LOWER)
    assert not got["holds"] and "IQR" in got["verdict"]
    assert got["change_better_in_pairs"] == "10/10"


def test_claim_needs_ten_pairs():
    got = bench_pairs.claim(runs(PARENT[:9], [p - 50 for p in PARENT[:9]]),
                            LOWER)
    assert not got["holds"] and "fewer than 10" in got["verdict"]


def test_claim_on_a_metric_where_higher_is_better():
    up = runs(PARENT, [p + 15 for p in PARENT], "rate")
    assert bench_pairs.claim(up, HIGHER)["holds"]
    down = runs(PARENT, [p - 15 for p in PARENT], "rate")
    assert not bench_pairs.claim(down, HIGHER)["holds"]


def entry(correct, failed, attempted, seeds=(1101, 1102)):
    """A workload's record of runs: each argument maps a side to its runs."""
    return {"seeds": list(seeds), "correct": correct, "failed": failed,
            "attempted": attempted}


def test_failed_shares_sum_each_sides_runs():
    got = bench_pairs.failed_shares(entry(
        {"parent": [False, True], "change": [False, True]},
        {"parent": [305, 0], "change": [305, 0]},
        {"parent": [40_000, 2_000], "change": [41_000, 2_000]}))
    assert got["parent"] == {"failed": 305, "attempted": 42_000,
                             "share": 305 / 42_000}
    assert got["change"]["attempted"] == 43_000
    assert got["not_correct"] == [[1101, "parent"], [1101, "change"]]
    assert not got["change_fails_more"]


def test_a_change_that_fails_a_larger_share_is_flagged():
    got = bench_pairs.failed_shares(entry(
        {"parent": [True, True], "change": [True, False]},
        {"parent": [0, 0], "change": [0, 1]},
        {"parent": [100, 100], "change": [100, 100]}))
    assert got["change_fails_more"]
    assert got["not_correct"] == [[1102, "change"]]


def test_a_run_that_gave_no_result_counts_as_one_failure(tmp_path):
    # a checkout without perfbench/run.py: the run exits nonzero
    result = bench_pairs.run_once(tmp_path, "pipeline-toy", 1, 0.1)
    assert (result["correct"], result["failed"], result["attempted"]) == (
        False, 1, 1)
    got = bench_pairs.failed_shares(entry(
        {"parent": [True], "change": [False]}, {"parent": [0], "change": [1]},
        {"parent": [50], "change": [1]}, seeds=[7]))
    assert got["change"]["share"] == 1.0 and got["change_fails_more"]
