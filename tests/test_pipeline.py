"""Patch pipeline stages: behavioral digests, pruning, scoring, the
reproduce/generate agent loops, validation and final selection."""

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppatlas.backends import (
    HeuristicJudge,
    ScriptedBackend,
    ScriptedJudge,
    load_transcript,
    validate_turn,
)
from cppatlas.diffs import make_diff, parse_unified_diff
from cppatlas.errors import (
    BackendError,
    GenerationFailed,
    JudgeError,
    ReproductionFailed,
)
from cppatlas.index import build_index
from cppatlas.intent import tokenize
from cppatlas.pipeline import (
    BaselineCache,
    CandidateReport,
    PipelineConfig,
    behavioral_digest,
    complexity,
    generate_candidates,
    locality,
    prune,
    reproduce,
    run_pipeline,
    select,
    validate,
    vote_score,
)
from cppatlas.queries import defect_subgraph
from cppatlas.repo import IssueDescription, load_repository
from cppatlas.runner import RunnerConfig, TestCase
from cppatlas.server import handle_request
from cppatlas.tools import ToolContext

PY = sys.executable

# The toy repository plants one defect: Calculator::subtract computes
# the difference into last_result_ but returns the sum.
FIX_OLD = "last_result_ = a - b;\n    return a + b;"
FIX_NEW = "last_result_ = a - b;\n    return a - b;"


@pytest.fixture(scope="module")
def repo(toyrepo_root):
    return load_repository(toyrepo_root)


@pytest.fixture(scope="module")
def tool_ctx(toy_index, toy_intent):
    return ToolContext(structural=toy_index, intent=toy_intent)


def edit(repo, path, old_sub, new_sub, origin="test"):
    """Candidate that rewrites one unique substring of a unit."""
    old = repo.unit(path).content
    assert old.count(old_sub) == 1, f"ambiguous edit anchor {old_sub!r}"
    diff = make_diff(old, old.replace(old_sub, new_sub), path)
    return parse_unified_diff(diff, origin=origin)


def content_test(test_id, needle, path="src/calc.cpp"):
    """Passes iff the materialized unit contains the needle. Commands run
    with the scratch snapshot as cwd, so the path is relative."""
    code = (
        "import pathlib, sys; "
        f"text = pathlib.Path({path!r}).read_text(); "
        f"sys.exit(0 if {needle!r} in text else 1)"
    )
    return TestCase(test_id=test_id, command=(PY, "-c", code))


def subtract_test():
    # fails on baseline, passes once subtract returns the difference
    return content_test("t-subtract-fixed", "return a - b;")


def flavor_test():
    # passes on baseline; a regression canary
    return content_test("t-flavor", 'return "basic";')


def emit_test(tc):
    return {"turn": "emit", "kind": "test", "test": tc.to_dict()}


def emit_patch(candidate):
    return {"turn": "emit", "kind": "patch", "diff": candidate.diff}


def call_turn(tool, **arguments):
    return {"turn": "call", "tool": tool, "arguments": arguments}


@pytest.fixture(scope="module")
def good_fix(repo):
    return edit(repo, "src/calc.cpp", FIX_OLD, FIX_NEW)


@pytest.fixture(scope="module")
def cosmetic_twin(repo):
    """Same fix plus a comment above subtract: behaviorally identical."""
    old = repo.unit("src/calc.cpp").content
    new = old.replace(FIX_OLD, FIX_NEW).replace(
        "int Calculator::subtract",
        "// fixed: return the difference\nint Calculator::subtract",
    )
    return parse_unified_diff(make_diff(old, new, "src/calc.cpp"), origin="test")


@pytest.fixture(scope="module")
def comment_only(repo):
    return edit(
        repo,
        "src/calc.h",
        "// Returns the product of a and b.",
        "// Computes the product of a and b.",
    )


@pytest.fixture(scope="module")
def ws_only(repo):
    return edit(
        repo,
        "src/calc.cpp",
        "    last_result_ = total;",
        "      last_result_  =   total;",
    )


@pytest.fixture(scope="module")
def flavor_break(repo):
    return edit(repo, "src/calc.cpp", 'return "basic";', 'return "fancy";')


@pytest.fixture(scope="module")
def fix_and_break(repo):
    old = repo.unit("src/calc.cpp").content
    new = old.replace(FIX_OLD, FIX_NEW).replace('return "basic";', 'return "odd";')
    return parse_unified_diff(make_diff(old, new, "src/calc.cpp"), origin="test")


@pytest.fixture(scope="module")
def ghost_patch():
    # targets a path the repository does not have
    return parse_unified_diff(make_diff("a\n", "b\n", "src/ghost.cpp"))


@pytest.fixture(scope="module")
def stale_patch(repo):
    # context drawn from an older revision of the unit
    old = repo.unit("src/calc.cpp").content
    stale = old.replace("last_result_ = a - b;", "last_result_ = b - a + 2 * a;")
    fixed = stale.replace(
        "last_result_ = b - a + 2 * a;\n    return a + b;",
        "last_result_ = b - a + 2 * a;\n    return a - b;",
    )
    return parse_unified_diff(make_diff(stale, fixed, "src/calc.cpp"))


class TestBehavioralDigest:
    def test_comment_only_edit_has_no_effect(self, repo, comment_only):
        assert behavioral_digest(repo, comment_only) is None

    def test_whitespace_only_edit_has_no_effect(self, repo, ws_only):
        assert behavioral_digest(repo, ws_only) is None

    def test_blank_line_insertion_has_no_effect(self, repo):
        cand = edit(
            repo,
            "src/calc.cpp",
            "}\n\nint Calculator::multiply",
            "}\n\n\nint Calculator::multiply",
        )
        assert behavioral_digest(repo, cand) is None

    def test_real_edit_digests(self, repo, good_fix):
        digest = behavioral_digest(repo, good_fix)
        assert isinstance(digest, str) and len(digest) == 64

    def test_cosmetic_variants_share_a_digest(self, repo, good_fix, cosmetic_twin):
        assert cosmetic_twin.id != good_fix.id
        assert behavioral_digest(repo, cosmetic_twin) == behavioral_digest(
            repo, good_fix
        )

    def test_comment_noise_in_another_file_is_ignored(
        self, repo, good_fix, comment_only
    ):
        # two-file candidate: the fix plus a header comment tweak
        combined = parse_unified_diff(
            good_fix.diff + comment_only.diff, origin="test"
        )
        assert set(combined.touched_files) == {"src/calc.cpp", "src/calc.h"}
        assert behavioral_digest(repo, combined) == behavioral_digest(repo, good_fix)

    def test_distinct_edits_digest_apart(self, repo, good_fix, flavor_break):
        assert behavioral_digest(repo, good_fix) != behavioral_digest(
            repo, flavor_break
        )


class TestPrune:
    def test_duplicates_collapse_to_smallest_id(self, repo, good_fix, cosmetic_twin):
        kept, report = prune(repo, [cosmetic_twin, good_fix])
        winner_id = min(good_fix.id, cosmetic_twin.id)
        loser_id = max(good_fix.id, cosmetic_twin.id)
        assert [c.id for c in kept] == [winner_id]
        assert report[winner_id]["status"] == "kept"
        assert report[loser_id] == {
            "status": "dropped",
            "reason": f"duplicate_of:{winner_id}",
            "digest": report[winner_id]["digest"],
        }

    def test_non_behavioral_candidates_dropped(self, repo, comment_only, ws_only,
                                               good_fix):
        kept, report = prune(repo, [comment_only, good_fix, ws_only])
        assert [c.id for c in kept] == [good_fix.id]
        assert report[comment_only.id]["reason"] == "non_behavioral"
        assert report[ws_only.id]["reason"] == "non_behavioral"

    def test_inapplicable_candidates_dropped_with_kind(self, repo, ghost_patch,
                                                       stale_patch, good_fix):
        kept, report = prune(repo, [ghost_patch, stale_patch, good_fix])
        assert [c.id for c in kept] == [good_fix.id]
        assert report[ghost_patch.id]["reason"] == "not_applicable:FileMissing"
        assert report[stale_patch.id]["reason"] == "not_applicable:ContextMismatch"

    def test_exact_id_duplicates_deduped(self, repo, good_fix):
        kept, report = prune(repo, [good_fix, good_fix, good_fix])
        assert [c.id for c in kept] == [good_fix.id]
        assert report[good_fix.id]["status"] == "kept"

    def test_output_sorted_by_id(self, repo, good_fix, flavor_break, fix_and_break):
        kept, _ = prune(repo, [fix_and_break, good_fix, flavor_break])
        assert [c.id for c in kept] == sorted(c.id for c in kept)
        assert len(kept) == 3


@pytest.fixture(scope="module")
def prune_pool(repo, good_fix, cosmetic_twin, comment_only, ws_only, flavor_break,
               fix_and_break, ghost_patch, stale_patch):
    return [good_fix, cosmetic_twin, comment_only, ws_only, flavor_break,
            fix_and_break, ghost_patch, stale_patch]


class TestPruneLaws:
    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.integers(min_value=0, max_value=7), max_size=12),
           shuffle_seed=st.integers(min_value=0, max_value=2**32))
    def test_idempotent_and_order_free(self, repo, prune_pool, picks, shuffle_seed):
        batch = [prune_pool[i] for i in picks]
        kept, report = prune(repo, batch)

        again, again_report = prune(repo, kept)
        assert [c.id for c in again] == [c.id for c in kept]
        assert all(again_report[c.id]["status"] == "kept" for c in again)

        shuffled = list(batch)
        random.Random(shuffle_seed).shuffle(shuffled)
        kept2, report2 = prune(repo, shuffled)
        assert [c.id for c in kept2] == [c.id for c in kept]
        assert report2 == report


class TestComplexity:
    def test_counts_changed_lines_plus_file_tax(self, good_fix, fix_and_break):
        # one line out, one line in, one file
        assert complexity(good_fix) == 2 + 10
        # two replaced lines
        assert complexity(fix_and_break) == 4 + 10

    def test_blank_insertions_are_free(self, repo):
        cand = edit(
            repo,
            "src/calc.cpp",
            "}\n\nint Calculator::multiply",
            "}\n\n\nint Calculator::multiply",
        )
        assert complexity(cand) == 0 + 10

    def test_every_touched_file_costs_ten(self, good_fix, comment_only):
        combined = parse_unified_diff(good_fix.diff + comment_only.diff)
        assert complexity(combined) == 4 + 20


class TestLocality:
    def test_inside_subgraph_span(self, repo, toy_index, good_fix):
        sub = defect_subgraph(toy_index, ["calc::Calculator::subtract"], hops=0)
        assert locality(good_fix, toy_index, sub["nodes"]) == 1.0

    def test_outside_subgraph_span(self, repo, toy_index, good_fix):
        sub = defect_subgraph(toy_index, ["calc::SciCalculator::power"], hops=0)
        assert locality(good_fix, toy_index, sub["nodes"]) == 0.0

    def test_half_in_half_out(self, repo, toy_index, fix_and_break):
        # touches subtract (line 16) and flavor (line 29); only subtract
        # is in the subgraph
        sub = defect_subgraph(toy_index, ["calc::Calculator::subtract"], hops=0)
        assert locality(fix_and_break, toy_index, sub["nodes"]) == 0.5

    def test_empty_subgraph_scores_zero(self, toy_index, good_fix):
        assert locality(good_fix, toy_index, []) == 0.0


class TestVoteScore:
    def test_hand_value(self):
        # complexity 0 gives simplicity 1, so all-ones scores 1
        assert vote_score(1.0, 0, 1.0) == 1.0
        # default weights: 0.5 * 0.8 + 0.25 * (1 / 13) + 0.25 * 0.5
        expected = 0.5 * 0.8 + 0.25 * (1.0 / 13.0) + 0.25 * 0.5
        assert vote_score(0.8, 12, 0.5) == pytest.approx(expected)

    @settings(max_examples=80, deadline=None)
    @given(
        align=st.floats(min_value=0, max_value=1),
        comp=st.integers(min_value=0, max_value=500),
        loc=st.floats(min_value=0, max_value=1),
        weights=st.tuples(*[st.floats(min_value=0, max_value=10)] * 3).filter(
            lambda w: sum(w) > 1e-6
        ),
        factor=st.floats(min_value=0.1, max_value=50),
    )
    def test_weight_scaling_is_a_no_op(self, align, comp, loc, weights, factor):
        scaled = tuple(w * factor for w in weights)
        a = vote_score(align, comp, loc, weights)
        b = vote_score(align, comp, loc, scaled)
        assert b == pytest.approx(a, abs=1e-9)
        assert 0.0 <= a <= 1.0 + 1e-9

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            vote_score(0.5, 1, 0.5, (-0.1, 0.5, 0.6))
        with pytest.raises(ValueError):
            vote_score(0.5, 1, 0.5, (0.0, 0.0, 0.0))


class TestBaselineCache:
    def marker_test(self, test_id, marker):
        code = (
            "import pathlib; "
            f"p = pathlib.Path({str(marker)!r}); "
            "p.write_text(p.read_text() + 'x') if p.exists() else p.write_text('x')"
        )
        return TestCase(test_id=test_id, command=(PY, "-c", code))

    def test_status_computed_once_per_snapshot(self, repo, tmp_path):
        marker = tmp_path / "runs.txt"
        cache = BaselineCache()
        test = self.marker_test("t-marked", marker)
        runner = RunnerConfig()
        assert cache.status(repo, test, runner) == "pass"
        assert cache.status(repo, test, runner) == "pass"
        assert marker.read_text() == "x"

        # a different snapshot is a different cache key
        other = repo.with_units({"src/extra.h": "#pragma once\n"})
        assert cache.status(other, test, runner) == "pass"
        assert marker.read_text() == "xx"

    def test_seed_preempts_execution(self, repo, tmp_path):
        marker = tmp_path / "never.txt"
        cache = BaselineCache()
        test = self.marker_test("t-seeded", marker)
        cache.seed(repo, "t-seeded", "fail")
        assert cache.status(repo, test, RunnerConfig()) == "fail"
        assert not marker.exists()


ISSUE = IssueDescription.from_text(
    "Calculator::subtract returns the sum",
    "Calling `Calculator::subtract` adds its arguments instead of "
    "subtracting them. last_result_ is correct, the return value is not.",
)


class TestReproduce:
    def test_failing_test_is_returned(self, repo):
        backend = ScriptedBackend([emit_test(subtract_test())])
        result = reproduce(repo, ISSUE, backend)
        assert result.test.test_id == "t-subtract-fixed"
        assert result.baseline_outcome.status == "fail"
        assert result.turns_used == 1
        assert backend.observations[0]["event"] == "task"
        assert backend.observations[0]["stage"] == "reproduce"
        assert backend.observations[0]["issue"]["mentioned_symbols"] == [
            "Calculator::subtract",
            "last_result_",
        ]

    def test_passing_test_gets_feedback_and_loop_continues(self, repo):
        backend = ScriptedBackend([emit_test(flavor_test()),
                                   emit_test(subtract_test())])
        result = reproduce(repo, ISSUE, backend)
        assert result.turns_used == 2
        feedback = backend.observations[1]
        assert feedback["event"] == "test_result"
        assert feedback["status"] == "pass"
        assert "not a reproduction" in feedback["message"]

    def test_tool_calls_are_dispatched(self, repo, tool_ctx):
        backend = ScriptedBackend([
            call_turn("FindClass", name="Calculator"),
            call_turn("FindClass", name="Nonesuch"),
            call_turn("NoSuchTool"),
            emit_test(subtract_test()),
        ])
        result = reproduce(repo, ISSUE, backend, tool_ctx=tool_ctx)
        assert result.turns_used == 4
        ok, missing, unknown = backend.observations[1:4]
        assert ok["event"] == "tool_result"
        assert ok["result"]["record"]["qualified_name"] == "calc::Calculator"
        assert missing == {
            "event": "tool_error",
            "tool": "FindClass",
            "error_kind": "NotFound",
            "message": missing["message"],
        }
        assert unknown["error_kind"] == "UnknownTool"

    def test_tool_calls_without_context_error_out(self, repo):
        backend = ScriptedBackend([
            call_turn("FindClass", name="Calculator"),
            emit_test(subtract_test()),
        ])
        reproduce(repo, ISSUE, backend, tool_ctx=None)
        assert backend.observations[1]["event"] == "tool_error"
        assert backend.observations[1]["error_kind"] == "BadRequest"

    def test_tool_errors_use_the_server_envelope(self, repo, tmp_path):
        (tmp_path / "twin.h").write_text(
            "namespace x { class Twin {}; }\nnamespace y { class Twin {}; }\n",
            encoding="utf-8",
        )
        local = ToolContext(structural=build_index(load_repository(tmp_path)))
        calls = [("FindClass", {"name": "Twin"}),
                 ("QueryCodeIntent", {"text": "twin"})]
        backend = ScriptedBackend(
            [call_turn(tool, **args) for tool, args in calls]
            + [emit_test(subtract_test())])
        reproduce(repo, ISSUE, backend, tool_ctx=local)
        ambiguous, no_intent = backend.observations[1:3]
        assert ambiguous["error_kind"] == "AmbiguousName"
        assert ambiguous["candidates"] == ["x::Twin", "y::Twin"]
        assert no_intent["error_kind"] == "EmptyIndex"
        for (tool, args), observation in zip(calls, backend.observations[1:3]):
            response = handle_request(local, {"tool": tool, "arguments": args})
            del response["request_id"], response["ok"]
            assert observation == {"event": "tool_error", "tool": tool,
                                   **response}

    def test_bad_test_payload_is_rejected_not_fatal(self, repo):
        backend = ScriptedBackend([
            {"turn": "emit", "kind": "test", "test": {"nonsense": 1}},
            emit_test(subtract_test()),
        ])
        result = reproduce(repo, ISSUE, backend)
        assert result.turns_used == 2
        assert backend.observations[1]["event"] == "test_rejected"

    def test_unexpected_emission_is_ignored_with_feedback(self, repo, good_fix):
        backend = ScriptedBackend([emit_patch(good_fix),
                                   emit_test(subtract_test())])
        result = reproduce(repo, ISSUE, backend)
        assert result.turns_used == 2
        assert backend.observations[1]["event"] == "ignored"

    def test_backend_exhaustion(self, repo):
        with pytest.raises(ReproductionFailed) as exc:
            reproduce(repo, ISSUE, ScriptedBackend([]))
        assert exc.value.reason == "backend_exhausted"

    def test_stop_turn_ends_the_episode(self, repo):
        backend = ScriptedBackend([{"turn": "stop"},
                                   emit_test(subtract_test())])
        with pytest.raises(ReproductionFailed) as exc:
            reproduce(repo, ISSUE, backend)
        assert exc.value.reason == "backend_exhausted"

    def test_budget_exhaustion_consumes_exact_turn_count(self, repo):
        config = PipelineConfig(reproduce_budget=3)
        backend = ScriptedBackend([call_turn("GrepBaseline", pattern="x")] * 10)
        with pytest.raises(ReproductionFailed) as exc:
            reproduce(repo, ISSUE, backend, config)
        assert exc.value.reason == "budget_exhausted"
        assert len(backend.observations) == 3


class TestGenerateCandidates:
    def test_collects_accepted_patches(self, repo, good_fix, flavor_break):
        backend = ScriptedBackend([emit_patch(good_fix), emit_patch(flavor_break)])
        result = generate_candidates(repo, ISSUE, backend,
                                     localization={"subgraph_nodes": [1, 2]})
        assert [c.id for c in result.candidates] == [good_fix.id, flavor_break.id]
        assert result.turns_used == 2
        assert result.rejected == 0
        assert backend.observations[0]["stage"] == "generate"
        assert backend.observations[0]["localization"] == {"subgraph_nodes": [1, 2]}
        accepted = backend.observations[1]
        assert accepted["event"] == "patch_accepted"
        assert accepted["candidate_id"] == good_fix.id
        assert accepted["count"] == 1

    def test_duplicate_emission_acknowledged_once(self, repo, good_fix, flavor_break):
        backend = ScriptedBackend([
            emit_patch(good_fix),
            emit_patch(good_fix),
            emit_patch(flavor_break),
        ])
        result = generate_candidates(repo, ISSUE, backend)
        assert [c.id for c in result.candidates] == [good_fix.id, flavor_break.id]
        assert result.rejected == 0
        dup_ack = backend.observations[2]
        assert dup_ack["event"] == "patch_accepted"
        assert dup_ack["count"] == 1
        assert "duplicate" in dup_ack["message"]

    def test_malformed_diffs_rejected_with_feedback(self, repo, good_fix):
        backend = ScriptedBackend([
            {"turn": "emit", "kind": "patch", "diff": 42},
            {"turn": "emit", "kind": "patch", "diff": "not a diff\n"},
            {"turn": "emit", "kind": "patch", "diff": ""},
            emit_patch(good_fix),
        ])
        result = generate_candidates(repo, ISSUE, backend)
        assert [c.id for c in result.candidates] == [good_fix.id]
        assert result.rejected == 3
        kinds = [o["error_kind"] for o in backend.observations[1:4]]
        assert kinds == ["MalformedDiff", "MalformedDiff", "MalformedDiff"]

    def test_budget_caps_turns(self, repo, good_fix, flavor_break, fix_and_break):
        config = PipelineConfig(generate_budget=3)
        backend = ScriptedBackend([
            emit_patch(good_fix),
            call_turn("FindClass", name="Calculator"),
            emit_patch(flavor_break),
            emit_patch(fix_and_break),
        ])
        result = generate_candidates(repo, ISSUE, backend, config)
        assert result.turns_used == 3
        assert [c.id for c in result.candidates] == [good_fix.id, flavor_break.id]

    def test_candidate_count_caps_collection(self, repo, good_fix, flavor_break,
                                             fix_and_break):
        config = PipelineConfig(candidate_count=2)
        backend = ScriptedBackend([
            emit_patch(good_fix),
            emit_patch(flavor_break),
            emit_patch(fix_and_break),
        ])
        result = generate_candidates(repo, ISSUE, backend, config)
        assert len(result.candidates) == 2
        assert result.turns_used == 2

    def test_no_candidates_raises(self, repo):
        with pytest.raises(GenerationFailed):
            generate_candidates(repo, ISSUE, ScriptedBackend([]))
        with pytest.raises(GenerationFailed):
            generate_candidates(
                repo, ISSUE,
                ScriptedBackend([{"turn": "emit", "kind": "patch", "diff": "x\n"}]),
            )


class TestValidate:
    def test_fixing_candidate_is_valid(self, repo, good_fix):
        verdicts = validate(repo, [good_fix], [subtract_test()], [flavor_test()])
        ok, reason, outcomes = verdicts[good_fix.id]
        assert (ok, reason) == (True, None)
        assert [o.status for o in outcomes] == ["pass", "pass"]

    def test_apply_failure_reported_with_kind(self, repo, ghost_patch, stale_patch):
        verdicts = validate(repo, [ghost_patch, stale_patch], [], [])
        assert verdicts[ghost_patch.id][:2] == (False, "apply_failed:FileMissing")
        assert verdicts[stale_patch.id][:2] == (
            False, "apply_failed:ContextMismatch")

    def test_non_fixing_candidate_fails_reproduction(self, repo, flavor_break):
        verdicts = validate(repo, [flavor_break], [subtract_test()], [])
        ok, reason, outcomes = verdicts[flavor_break.id]
        assert not ok
        assert reason == "repro_still_failing:t-subtract-fixed"
        assert outcomes[-1].status == "fail"

    def test_regression_blamed_only_when_baseline_passed(self, repo, fix_and_break):
        # fixes subtract but rewrites the flavor string
        verdicts = validate(repo, [fix_and_break], [subtract_test()],
                            [flavor_test()])
        ok, reason, _ = verdicts[fix_and_break.id]
        assert not ok
        assert reason == "regression:t-flavor"

        # the same failure against an already-broken baseline test is
        # not the candidate's fault
        broken = content_test("t-broken", "return 42;")
        verdicts = validate(repo, [fix_and_break], [subtract_test()], [broken])
        assert verdicts[fix_and_break.id][:2] == (True, None)

    def test_baseline_cache_is_honored(self, repo, good_fix):
        cache = BaselineCache()
        cache.seed(repo, "t-flavor", "fail")  # pretend it was broken before
        breaking = content_test("t-flavor", "return a - b; // never present")
        verdicts = validate(repo, [good_fix], [subtract_test()], [breaking],
                            cache=cache)
        assert verdicts[good_fix.id][:2] == (True, None)


def report(candidate, valid=True, vote=0.5, comp=10, reason=None):
    return CandidateReport(
        candidate=candidate, valid=valid, reason=reason, align=0.0,
        complexity=comp, locality=0.0, vote=vote,
    )


class TestSelect:
    def test_vote_prefers_highest_then_simplest_then_id(self, good_fix,
                                                        flavor_break,
                                                        fix_and_break):
        a, b, c = sorted([good_fix, flavor_break, fix_and_break],
                         key=lambda x: x.id)
        picked = select([report(a, vote=0.2), report(b, vote=0.9, comp=14),
                         report(c, vote=0.9, comp=12)])
        assert picked.candidate.id == c.id

        picked = select([report(a, vote=0.9, comp=12),
                         report(b, vote=0.9, comp=12),
                         report(c, vote=0.2)])
        assert picked.candidate.id == a.id

    def test_invalid_reports_never_win(self, good_fix, flavor_break):
        picked = select([report(good_fix, valid=False, vote=1.0),
                         report(flavor_break, vote=0.1)])
        assert picked.candidate.id == flavor_break.id

    def test_empty_valid_set_returns_none(self, good_fix):
        assert select([]) is None
        assert select([report(good_fix, valid=False)]) is None

    def test_min_complexity_strategy(self, good_fix, flavor_break, fix_and_break):
        a, b, c = sorted([good_fix, flavor_break, fix_and_break],
                         key=lambda x: x.id)
        picked = select([report(a, comp=14), report(b, comp=12),
                         report(c, comp=12)], strategy="min_complexity")
        assert picked.candidate.id == b.id

    def test_unknown_strategy_rejected(self, good_fix):
        with pytest.raises(ValueError):
            select([report(good_fix)], strategy="best_vibes")


class TestBackends:
    def test_validate_turn_rejects_malformed_shapes(self):
        for bad in [
            "not a dict",
            {"turn": "dance"},
            {"turn": "call"},
            {"turn": "call", "tool": 7},
            {"turn": "call", "tool": "FindClass", "arguments": "x"},
            {"turn": "emit", "kind": "poem"},
            {"turn": "emit", "kind": "score", "score": 0.5},
        ]:
            with pytest.raises(BackendError):
                validate_turn(bad)

    def test_scripted_backend_replays_in_order(self, good_fix):
        turns = [call_turn("GrepBaseline", pattern="a"), emit_patch(good_fix)]
        backend = ScriptedBackend(turns, name="replay")
        assert backend.next_turn({"event": "task"}) == turns[0]
        assert backend.next_turn({"event": "x"}) == turns[1]
        assert backend.next_turn({"event": "y"}) is None
        assert backend.name == "replay"
        assert len(backend.observations) == 3

    def test_transcript_round_trip(self, tmp_path, good_fix):
        path = tmp_path / "session.jsonl"
        turns = [call_turn("FindClass", name="Calculator"), emit_patch(good_fix),
                 {"turn": "stop"}]
        path.write_text(
            "\n".join(json.dumps(t) for t in turns) + "\n\n", encoding="utf-8"
        )
        assert load_transcript(path) == turns
        backend = ScriptedBackend.from_file(path)
        assert backend.name == "session"
        assert backend.next_turn({}) == turns[0]

    def test_bad_transcript_line_is_located(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"turn": "stop"}\n{oops\n', encoding="utf-8")
        with pytest.raises(BackendError) as exc:
            load_transcript(path)
        assert "bad.jsonl:2" in str(exc.value)

    def test_transcript_line_nested_past_the_parser_depth(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"turn": "stop"}\n' + "[" * 100000 + "]" * 100000,
                        encoding="utf-8")
        with pytest.raises(BackendError) as exc:
            load_transcript(path)
        assert "deep.jsonl:2" in str(exc.value)

    def test_heuristic_judge_is_token_overlap(self, flavor_break):
        judge = HeuristicJudge()
        issue_text = "the flavor string returns basic"
        score = judge.score(issue_text, flavor_break)
        issue_tokens = set(tokenize(issue_text))
        patch_tokens = set(tokenize('return "basic"; return "fancy";'))
        expected = len(issue_tokens & patch_tokens) / len(issue_tokens | patch_tokens)
        assert score == pytest.approx(expected)
        assert 0.0 < score < 1.0

    def test_heuristic_judge_empty_overlap(self, repo):
        cand = edit(repo, "src/calc.cpp", 'return "basic";', 'return "";')
        assert HeuristicJudge().score("", cand) < 1.0

    def test_scripted_judge_validates_scores(self, good_fix):
        judge = ScriptedJudge({good_fix.id: 0.75})
        assert judge.score("anything", good_fix) == 0.75
        with pytest.raises(JudgeError):
            ScriptedJudge({}).score("x", good_fix)
        with pytest.raises(JudgeError):
            ScriptedJudge({good_fix.id: 1.5}).score("x", good_fix)


class TestRunPipeline:
    def backends(self, *candidates):
        repro = ScriptedBackend([emit_test(subtract_test())], name="repro")
        gen = ScriptedBackend([emit_patch(c) for c in candidates], name="gen")
        return repro, gen

    def test_success_selects_the_fix(self, repo, toy_index, toy_intent, good_fix,
                                     flavor_break, comment_only):
        repro, gen = self.backends(good_fix, flavor_break, comment_only)
        result = run_pipeline(
            repo, ISSUE, repro, gen,
            regression_tests=[flavor_test()],
            structural=toy_index, intent=toy_intent,
        )
        assert result.status == "SUCCESS"
        assert result.selected.candidate.id == good_fix.id
        assert result.selected.valid
        assert result.prune_report[comment_only.id]["reason"] == "non_behavioral"
        # flavor_break survives pruning but fails validation
        reasons = {r.candidate.id: r.reason for r in result.reports}
        assert reasons[flavor_break.id] == "repro_still_failing:t-subtract-fixed"
        assert json.dumps(result.to_dict())  # wire-serializable

    def test_all_candidates_invalid_is_failure_not_error(self, repo, toy_index,
                                                         toy_intent, flavor_break):
        repro, gen = self.backends(flavor_break)
        result = run_pipeline(repo, ISSUE, repro, gen,
                              structural=toy_index, intent=toy_intent)
        assert result.status == "FAILURE"
        assert result.selected is None
        assert result.to_dict()["selected_diff"] is None

    def test_min_complexity_strategy_threads_through(self, repo, toy_index,
                                                     toy_intent, good_fix,
                                                     cosmetic_twin, fix_and_break):
        # cosmetic_twin collapses into good_fix at the prune stage, so the
        # valid set is {good_fix} vs {fix_and_break}; the fix is simpler
        repro, gen = self.backends(fix_and_break, good_fix, cosmetic_twin)
        config = PipelineConfig(selection_strategy="min_complexity")
        result = run_pipeline(repo, ISSUE, repro, gen, config=config,
                              structural=toy_index, intent=toy_intent)
        assert result.strategy == "min_complexity"
        assert result.selected.candidate.id == good_fix.id

    def test_scripted_judge_errors_disqualify(self, repo, toy_index, toy_intent,
                                              good_fix, fix_and_break):
        repro, gen = self.backends(good_fix, fix_and_break)
        result = run_pipeline(
            repo, ISSUE, repro, gen,
            judge=ScriptedJudge({fix_and_break.id: 0.9}),
            structural=toy_index, intent=toy_intent,
        )
        # no score for good_fix: invalidated, fix_and_break wins
        reasons = {r.candidate.id: r.reason for r in result.reports}
        assert reasons[good_fix.id].startswith("judge_error:")
        assert result.status == "SUCCESS"
        assert result.selected.candidate.id == fix_and_break.id

    def test_reproduction_failure_propagates(self, repo, toy_index, toy_intent,
                                             good_fix):
        gen = ScriptedBackend([emit_patch(good_fix)])
        with pytest.raises(ReproductionFailed):
            run_pipeline(repo, ISSUE, ScriptedBackend([]), gen,
                         structural=toy_index, intent=toy_intent)

    def test_generation_failure_propagates(self, repo, toy_index, toy_intent):
        repro = ScriptedBackend([emit_test(subtract_test())])
        with pytest.raises(GenerationFailed):
            run_pipeline(repo, ISSUE, repro, ScriptedBackend([]),
                         structural=toy_index, intent=toy_intent)

    def test_repeat_runs_agree(self, repo, toy_index, toy_intent, good_fix,
                               flavor_break, comment_only):
        def run_once():
            repro, gen = self.backends(good_fix, flavor_break, comment_only)
            result = run_pipeline(repo, ISSUE, repro, gen,
                                  regression_tests=[flavor_test()],
                                  structural=toy_index, intent=toy_intent)
            d = result.to_dict()
            for cand in d["candidates"]:  # wall-clock noise is not an output
                for outcome in cand["tests"]:
                    outcome.pop("duration_seconds")
            return d

        assert run_once() == run_once()
