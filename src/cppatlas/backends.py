"""Agent backends that drive reproduction and patch generation.

A backend is anything with ``next_turn(observation) -> dict | None``.
Each turn is a plain dict: a tool call
(``{"turn": "call", "tool": ..., "arguments": {...}}``), an emission
(``{"turn": "emit", "kind": "test" | "patch", ...}``) or an
explicit ``{"turn": "stop"}``. Returning ``None`` ends the episode.

``ScriptedBackend`` replays a prerecorded turn list (typically loaded
from a JSONL transcript), which keeps pipeline runs fully deterministic
and lets tests pin down every branch of the loop.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import BackendError, JudgeError

_TURN_KINDS = ("call", "emit", "stop")
_EMIT_KINDS = ("test", "patch")


def validate_turn(turn: dict) -> dict:
    if not isinstance(turn, dict):
        raise BackendError(f"turn must be an object, got {type(turn).__name__}")
    kind = turn.get("turn")
    if kind not in _TURN_KINDS:
        raise BackendError(f"bad turn type: {kind!r}")
    if kind == "call":
        if not isinstance(turn.get("tool"), str):
            raise BackendError("call turn needs a 'tool' name")
        if not isinstance(turn.get("arguments", {}), dict):
            raise BackendError("call arguments must be an object")
    if kind == "emit" and turn.get("kind") not in _EMIT_KINDS:
        raise BackendError(f"bad emit kind: {turn.get('kind')!r}")
    return turn


class ScriptedBackend:
    """Replays turns in order, ignoring observations. Observations are
    retained on ``observations`` so tests can assert what the loop fed
    back."""

    def __init__(self, turns: list[dict], name: str = "scripted"):
        self.name = name
        self._turns = [validate_turn(t) for t in turns]
        self._cursor = 0
        self.observations: list[dict] = []

    @staticmethod
    def from_file(path: str | Path, name: str | None = None) -> "ScriptedBackend":
        turns = load_transcript(path)
        return ScriptedBackend(turns, name=name or Path(path).stem)

    def next_turn(self, observation: dict) -> dict | None:
        self.observations.append(observation)
        if self._cursor >= len(self._turns):
            return None
        turn = self._turns[self._cursor]
        self._cursor += 1
        if turn.get("turn") == "stop":
            return None
        return turn


def load_transcript(path: str | Path) -> list[dict]:
    """Parse a JSONL transcript; blank lines are skipped."""
    turns = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            turns.append(json.loads(line))
        except (ValueError, RecursionError) as exc:  # or nested too deep
            raise BackendError(f"{path}:{lineno}: bad transcript line: {exc}") from exc
    return turns


class HeuristicJudge:
    """Deterministic issue/patch alignment: Jaccard overlap between the
    issue text tokens and the tokens on changed diff lines."""

    name = "heuristic-jaccard"

    def score(self, issue_text: str, candidate) -> float:
        from .intent import tokenize

        changed: list[str] = []
        for fp in candidate.files:
            for hunk in fp.hunks:
                for raw in hunk.lines:
                    if raw[:1] in ("+", "-"):
                        changed.append(raw[1:])
        issue_tokens = set(tokenize(issue_text))
        patch_tokens = set(tokenize(" ".join(changed)))
        union = issue_tokens | patch_tokens
        if not union:
            return 0.0
        return len(issue_tokens & patch_tokens) / len(union)


class ScriptedJudge:
    """Fixed alignment scores keyed by candidate id. Missing ids or
    values outside [0, 1] raise ``JudgeError``."""

    name = "scripted"

    def __init__(self, scores: dict[str, float]):
        self._scores = dict(scores)

    def score(self, issue_text: str, candidate) -> float:
        if candidate.id not in self._scores:
            raise JudgeError(f"no score for candidate {candidate.id[:12]}")
        value = self._scores[candidate.id]
        if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
            raise JudgeError(f"score out of range: {value!r}")
        return float(value)
