"""Patch selection pipeline: reproduce, generate, prune, validate, vote.

Stages are plain functions so each one is testable alone:

- ``reproduce`` drives a backend until it emits a test that fails on the
  baseline snapshot (within a turn budget).
- ``generate_candidates`` drives a backend seeded with the localization
  result and collects parsed diff candidates.
- ``prune`` drops candidates that do not apply, change nothing
  behavioral, or duplicate another candidate after normalization.
- ``validate`` keeps candidates that make the reproduction tests pass
  without breaking regression tests that passed on the baseline.
- ``select`` picks the winner by weighted vote or by minimum complexity.

Every stage is deterministic given its inputs; the only nondeterminism
lives behind the backend interface.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import logging
import re
from dataclasses import dataclass, field

from .backends import HeuristicJudge
from .diffs import PatchCandidate, apply_patch, parse_unified_diff, touched_old_lines
from .errors import (
    BadRequest,
    EngineError,
    GenerationFailed,
    JudgeError,
    MalformedDiff,
    ReproductionFailed,
)
from .index import StructuralIndex, build_index
from .intent import DEFAULT_K, IntentIndex, build_intent_index, localize
from .queries import DEFAULT_HOPS
from .repo import IssueDescription, Repository
from .runner import RunnerConfig, TestCase, TestOutcome, run_test
from .tools import ToolContext, dispatch_tool

log = logging.getLogger(__name__)

DEFAULT_VOTE_WEIGHTS = (0.5, 0.25, 0.25)  # alignment, simplicity, locality


@dataclass(frozen=True)
class PipelineConfig:
    reproduce_budget: int = 20
    generate_budget: int = 50
    candidate_count: int = 10
    intent_k: int = DEFAULT_K
    subgraph_hops: int = DEFAULT_HOPS
    vote_weights: tuple[float, float, float] = DEFAULT_VOTE_WEIGHTS
    selection_strategy: str = "vote"  # or "min_complexity"
    runner: RunnerConfig = field(default_factory=RunnerConfig)


@dataclass
class ReproductionResult:
    test: TestCase
    baseline_outcome: TestOutcome
    turns_used: int

    def to_dict(self) -> dict:
        return {
            "test": self.test.to_dict(),
            "baseline_status": self.baseline_outcome.status,
            "turns_used": self.turns_used,
        }


class BaselineCache:
    """Memoizes baseline test statuses per repository snapshot, so a
    pre-existing failure is computed once and never blamed on a patch.
    A status is kept by the test itself, not its id: two tests may share
    an id."""

    def __init__(self):
        self._statuses: dict[tuple[str, TestCase], str] = {}

    def status(
        self, repo: Repository, test: TestCase, runner: RunnerConfig
    ) -> str:
        key = (repo.snapshot_id, test)
        if key not in self._statuses:
            self._statuses[key] = run_test(repo, test, runner).status
        return self._statuses[key]

    def seed(self, repo: Repository, test: TestCase, status: str):
        self._statuses[(repo.snapshot_id, test)] = status


def _issue_payload(issue: IssueDescription) -> dict:
    return {
        "title": issue.title,
        "body": issue.body,
        "mentioned_symbols": list(issue.mentioned_symbols),
    }


def _dispatch_observation(ctx: ToolContext | None, turn: dict) -> dict:
    tool = turn["tool"]
    try:
        if ctx is None:
            raise BadRequest("no tool context in this stage")
        result = dispatch_tool(ctx, tool, turn.get("arguments", {}))
        return {"event": "tool_result", "tool": tool, "result": result}
    except EngineError as exc:
        return {"event": "tool_error", "tool": tool, **exc.to_dict()}


def reproduce(
    repo: Repository,
    issue: IssueDescription,
    backend,
    config: PipelineConfig | None = None,
    tool_ctx: ToolContext | None = None,
) -> ReproductionResult:
    """Drive the backend until it emits a test that fails on the
    baseline. Raises ``ReproductionFailed`` when the budget runs out or
    the backend stops without a failing test."""
    config = config or PipelineConfig()
    observation: dict = {"event": "task", "stage": "reproduce",
                         "issue": _issue_payload(issue)}
    turns = 0
    while turns < config.reproduce_budget:
        turn = backend.next_turn(observation)
        if turn is None:
            raise ReproductionFailed(
                "backend stopped before reproducing the issue",
                reason="backend_exhausted",
            )
        turns += 1
        if turn.get("turn") == "call":
            observation = _dispatch_observation(tool_ctx, turn)
            continue
        if turn.get("turn") == "emit" and turn.get("kind") == "test":
            try:
                test = TestCase.from_dict(turn["test"])
            except (KeyError, TypeError, ValueError):
                observation = {"event": "test_rejected",
                               "message": "bad test payload"}
                continue
            outcome = run_test(repo, test, config.runner)
            if outcome.status != "pass":
                return ReproductionResult(test, outcome, turns)
            observation = {
                "event": "test_result",
                "test_id": test.test_id,
                "status": outcome.status,
                "message": "test passes on baseline; not a reproduction",
            }
            continue
        observation = {"event": "ignored",
                       "message": f"unexpected turn in reproduce: {turn.get('kind')}"}
    raise ReproductionFailed(
        f"no failing test within {config.reproduce_budget} turns",
        reason="budget_exhausted",
    )


@dataclass
class GenerationResult:
    candidates: list[PatchCandidate]
    turns_used: int
    rejected: int

    def to_dict(self) -> dict:
        return {
            "candidate_ids": [c.id for c in self.candidates],
            "turns_used": self.turns_used,
            "rejected": self.rejected,
        }


def generate_candidates(
    repo: Repository,
    issue: IssueDescription,
    backend,
    config: PipelineConfig | None = None,
    tool_ctx: ToolContext | None = None,
    localization: dict | None = None,
) -> GenerationResult:
    """Collect candidate patches from the backend, seeding it with the
    localization result. Malformed diffs are rejected with feedback, not
    fatal. Raises ``GenerationFailed`` if no candidate parses."""
    config = config or PipelineConfig()
    observation: dict = {
        "event": "task",
        "stage": "generate",
        "issue": _issue_payload(issue),
        "localization": localization or {},
    }
    candidates: list[PatchCandidate] = []
    seen_ids: set[str] = set()
    turns = 0
    rejected = 0
    while turns < config.generate_budget and len(candidates) < config.candidate_count:
        turn = backend.next_turn(observation)
        if turn is None:
            break
        turns += 1
        if turn.get("turn") == "call":
            observation = _dispatch_observation(tool_ctx, turn)
            continue
        if turn.get("turn") == "emit" and turn.get("kind") == "patch":
            diff_text = turn.get("diff")
            try:
                if not isinstance(diff_text, str):
                    raise MalformedDiff("patch emit without diff text")
                candidate = parse_unified_diff(diff_text, origin=backend.name)
                if not candidate.files:
                    raise MalformedDiff("empty diff")
            except EngineError as exc:
                rejected += 1
                observation = {"event": "patch_rejected", **exc.to_dict()}
                continue
            if candidate.id in seen_ids:
                observation = {"event": "patch_accepted",
                               "candidate_id": candidate.id,
                               "count": len(candidates),
                               "message": "duplicate of an earlier emission"}
                continue
            seen_ids.add(candidate.id)
            candidates.append(candidate)
            observation = {"event": "patch_accepted",
                           "candidate_id": candidate.id,
                           "count": len(candidates)}
            continue
        observation = {"event": "ignored",
                       "message": f"unexpected turn in generate: {turn.get('kind')}"}
    if not candidates:
        raise GenerationFailed(
            f"no candidate patches after {turns} turns ({rejected} rejected)"
        )
    return GenerationResult(candidates, turns, rejected)


_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/")
_LINE_COMMENT_RE = re.compile(r"//.*$")


def _normalize_line(line: str) -> str:
    line = _BLOCK_COMMENT_RE.sub(" ", line)
    line = _LINE_COMMENT_RE.sub("", line)
    return " ".join(line.split())


def _normalized_regions(old: str, new: str) -> list[tuple[list[str], list[str]]]:
    old_lines = old.split("\n")
    new_lines = new.split("\n")
    sm = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    regions = []
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag == "equal":
            continue
        old_norm = [n for n in (_normalize_line(s) for s in old_lines[i1:i2]) if n]
        new_norm = [n for n in (_normalize_line(s) for s in new_lines[j1:j2]) if n]
        if old_norm == new_norm:
            continue
        regions.append((old_norm, new_norm))
    return regions


def behavioral_digest(repo: Repository, candidate: PatchCandidate) -> str | None:
    """Digest of the candidate's behavioral effect, or ``None`` when the
    patch changes nothing but comments and spacing. Applies the patch
    internally; propagation of apply errors is the caller's concern."""
    patched = apply_patch(repo, candidate)
    effect = []
    for path in candidate.touched_files:
        before_unit = repo.unit(path)
        after_unit = patched.unit(path)
        before = before_unit.content if before_unit else ""
        after = after_unit.content if after_unit else ""
        regions = _normalized_regions(before, after)
        if regions:
            effect.append((path, regions))
    if not effect:
        return None
    blob = json.dumps(sorted(effect), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def prune(
    repo: Repository, candidates: list[PatchCandidate]
) -> tuple[list[PatchCandidate], dict[str, dict]]:
    """Filter to behaviorally distinct, applicable candidates. Output is
    sorted by candidate id, so the result does not depend on input
    order; within a duplicate group the lexicographically smallest id
    survives. Running prune on its own output is a no-op."""
    report: dict[str, dict] = {}
    by_digest: dict[str, list[PatchCandidate]] = {}
    unique: list[PatchCandidate] = []
    seen_ids: set[str] = set()
    for candidate in sorted(candidates, key=lambda c: c.id):
        if candidate.id not in seen_ids:
            seen_ids.add(candidate.id)
            unique.append(candidate)
    for candidate in unique:
        try:
            digest = behavioral_digest(repo, candidate)
        except EngineError as exc:
            report[candidate.id] = {
                "status": "dropped",
                "reason": f"not_applicable:{exc.kind}",
            }
            continue
        if digest is None:
            report[candidate.id] = {"status": "dropped",
                                    "reason": "non_behavioral"}
            continue
        by_digest.setdefault(digest, []).append(candidate)
    kept: list[PatchCandidate] = []
    for digest, group in by_digest.items():
        winner = group[0]  # insertion is in id order already
        kept.append(winner)
        report[winner.id] = {"status": "kept", "digest": digest}
        for dup in group[1:]:
            report[dup.id] = {
                "status": "dropped",
                "reason": f"duplicate_of:{winner.id}",
                "digest": digest,
            }
    kept.sort(key=lambda c: c.id)
    return kept, report


def complexity(candidate: PatchCandidate) -> int:
    """Changed lines with any non-whitespace content, plus 10 per
    touched file."""
    changed = 0
    for fp in candidate.files:
        for hunk in fp.hunks:
            for raw in hunk.lines:
                if raw[:1] in ("+", "-") and raw[1:].strip():
                    changed += 1
    return changed + 10 * len(candidate.touched_files)


def locality(
    candidate: PatchCandidate,
    structural: StructuralIndex,
    subgraph_nodes: list[int],
) -> float:
    """Fraction of touched old lines that land inside a symbol span from
    the defect subgraph. 0.0 when there is no subgraph."""
    if not subgraph_nodes:
        return 0.0
    symbols = structural.symbols
    spans: dict[str, list[tuple[int, int]]] = {}
    for node in subgraph_nodes:
        if symbols.is_synthetic(node):
            continue
        spans.setdefault(symbols.files[symbols.file[node]], []).append(
            (symbols.start_line[node], symbols.end_line[node])
        )
    touched = touched_old_lines(candidate)
    total = 0
    inside = 0
    for path, lines in touched.items():
        file_spans = spans.get(path, [])
        for ln in lines:
            total += 1
            if any(lo <= ln <= hi for lo, hi in file_spans):
                inside += 1
    if total == 0:
        return 0.0
    return inside / total


def vote_score(
    align01: float,
    complexity_value: int,
    locality01: float,
    weights: tuple[float, float, float] = DEFAULT_VOTE_WEIGHTS,
) -> float:
    """Weighted vote in [0, 1]. Weights must be nonnegative with a
    positive sum; they are normalized, so scaling all three by the same
    factor leaves every score unchanged."""
    wa, wc, wl = weights
    if min(weights) < 0 or (wa + wc + wl) <= 0:
        raise ValueError("weights must be nonnegative with a positive sum")
    total = wa + wc + wl
    simplicity = 1.0 / (1.0 + complexity_value)
    return (wa * align01 + wc * simplicity + wl * locality01) / total


@dataclass
class CandidateReport:
    candidate: PatchCandidate
    valid: bool
    reason: str | None
    align: float
    complexity: int
    locality: float
    vote: float
    outcomes: list[TestOutcome] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "candidate_id": self.candidate.id,
            "origin": self.candidate.origin,
            "touched_files": list(self.candidate.touched_files),
            "valid": self.valid,
            "reason": self.reason,
            "align": self.align,
            "complexity": self.complexity,
            "locality": self.locality,
            "vote": self.vote,
            "tests": [o.to_dict() for o in self.outcomes],
        }


def validate(
    repo: Repository,
    candidates: list[PatchCandidate],
    repro_tests: list[TestCase],
    regression_tests: list[TestCase],
    runner: RunnerConfig | None = None,
    cache: BaselineCache | None = None,
) -> dict[str, tuple[bool, str | None, list[TestOutcome]]]:
    """Per-candidate validation verdicts. A candidate is valid when all
    reproduction tests pass on the patched snapshot and no regression
    test that passed on the baseline fails on it. A regression test's
    baseline status is asked of ``cache`` only when the test fails on the
    patched snapshot."""
    runner = runner or RunnerConfig()
    cache = cache or BaselineCache()
    verdicts: dict[str, tuple[bool, str | None, list[TestOutcome]]] = {}
    for candidate in candidates:
        outcomes: list[TestOutcome] = []
        try:
            patched = apply_patch(repo, candidate)
        except EngineError as exc:
            verdicts[candidate.id] = (False, f"apply_failed:{exc.kind}", outcomes)
            continue
        verdict: tuple[bool, str | None, list[TestOutcome]] | None = None
        for test in repro_tests:
            outcome = run_test(patched, test, runner)
            outcomes.append(outcome)
            if outcome.status != "pass":
                verdict = (False, f"repro_still_failing:{test.test_id}", outcomes)
                break
        if verdict is None:
            for test in regression_tests:
                outcome = run_test(patched, test, runner)
                outcomes.append(outcome)
                if (outcome.status != "pass"
                        and cache.status(repo, test, runner) == "pass"):
                    verdict = (False, f"regression:{test.test_id}", outcomes)
                    break
        verdicts[candidate.id] = verdict or (True, None, outcomes)
    return verdicts


def select(
    reports: list[CandidateReport], strategy: str = "vote"
) -> CandidateReport | None:
    """Winner among valid candidates, or ``None`` when the valid set is
    empty. Ties under ``vote`` fall to lower complexity, then to the
    lexicographically smaller id; ``min_complexity`` ties fall to id."""
    valid = [r for r in reports if r.valid]
    if not valid:
        return None
    if strategy == "vote":
        valid.sort(key=lambda r: (-r.vote, r.complexity, r.candidate.id))
    elif strategy == "min_complexity":
        valid.sort(key=lambda r: (r.complexity, r.candidate.id))
    else:
        raise ValueError(f"unknown selection strategy {strategy!r}")
    return valid[0]


@dataclass
class PipelineResult:
    status: str  # SUCCESS | FAILURE
    selected: CandidateReport | None
    reproduction: ReproductionResult
    generation: GenerationResult
    reports: list[CandidateReport]
    prune_report: dict[str, dict]
    strategy: str

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "selected_candidate": (
                self.selected.candidate.id if self.selected else None
            ),
            "selected_diff": (
                self.selected.candidate.diff if self.selected else None
            ),
            "strategy": self.strategy,
            "reproduction": self.reproduction.to_dict(),
            "generation": self.generation.to_dict(),
            "prune": self.prune_report,
            "candidates": [r.to_dict() for r in self.reports],
        }


def run_pipeline(
    repo: Repository,
    issue: IssueDescription,
    repro_backend,
    gen_backend,
    regression_tests: list[TestCase] | None = None,
    config: PipelineConfig | None = None,
    judge=None,
    structural: StructuralIndex | None = None,
    intent: IntentIndex | None = None,
) -> PipelineResult:
    """End-to-end run over one defect. Raises ``ReproductionFailed`` or
    ``GenerationFailed`` when those stages cannot produce their
    artifact; an empty valid set after validation is reported as status
    FAILURE, not an exception."""
    config = config or PipelineConfig()
    judge = judge or HeuristicJudge()
    regression_tests = regression_tests or []
    structural = structural or build_index(repo)
    intent = intent or build_intent_index(structural)
    tool_ctx = ToolContext(structural=structural, intent=intent)

    repro = reproduce(repo, issue, repro_backend, config, tool_ctx)
    loc = localize(
        structural, intent, issue, k=config.intent_k, hops=config.subgraph_hops
    )
    generation = generate_candidates(
        repo, issue, gen_backend, config, tool_ctx, localization=loc
    )
    kept, prune_report = prune(repo, generation.candidates)

    verdicts = validate(
        repo, kept, [repro.test], regression_tests, config.runner
    )

    reports: list[CandidateReport] = []
    for candidate in kept:
        ok, reason, outcomes = verdicts[candidate.id]
        try:
            align = judge.score(issue.query_text, candidate)
        except JudgeError as exc:
            log.warning("judge failed on %s: %s", candidate.id[:12], exc)
            ok, reason, align = False, f"judge_error:{exc}", 0.0
        comp = complexity(candidate)
        loc01 = locality(candidate, structural, loc["subgraph_nodes"])
        reports.append(
            CandidateReport(
                candidate=candidate,
                valid=ok,
                reason=reason,
                align=align,
                complexity=comp,
                locality=loc01,
                vote=vote_score(align, comp, loc01, config.vote_weights),
                outcomes=outcomes,
            )
        )

    winner = select(reports, config.selection_strategy)
    return PipelineResult(
        status="SUCCESS" if winner else "FAILURE",
        selected=winner,
        reproduction=repro,
        generation=generation,
        reports=reports,
        prune_report=prune_report,
        strategy=config.selection_strategy,
    )
