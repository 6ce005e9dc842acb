"""Exception types shared across the engine.

Every error that can cross the tool-protocol boundary derives from
``EngineError``; its class name doubles as the wire ``error_kind``.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for engine failures."""

    @property
    def kind(self) -> str:
        return type(self).__name__

    def to_dict(self) -> dict:
        """The JSON envelope every surface reports the error in: the CLI on
        stderr, server responses and agent-loop observations."""
        return {"error_kind": self.kind, "message": str(self)}


class RootNotFound(EngineError):
    """Repository root does not exist or is not a directory."""


class MalformedDiff(EngineError):
    """Unified diff text could not be parsed."""


class ContextMismatch(EngineError):
    """Diff context lines disagree with the file content they target."""


class FileMissing(EngineError):
    """Diff targets a path that is not present in the repository."""


class RunnerUnavailable(EngineError):
    """Test command could not be launched: it is empty, its executable does
    not exist or cannot be run, or an argument cannot be passed to the OS."""


class MaterializationFailed(EngineError):
    """Repository snapshot could not be written to the scratch directory."""


class CorruptIndex(EngineError):
    """Index container is unreadable or fails the magic-header check."""


class VersionMismatch(EngineError):
    """Index container was written by an incompatible format version."""


class NotFound(EngineError):
    """Class or function lookup matches no symbol of that name (and, for
    functions, of the requested signature)."""


class AmbiguousName(EngineError):
    """Name resolves to more than one candidate where one is required."""

    def __init__(self, message: str, candidates: list[str] | None = None):
        super().__init__(message)
        self.candidates = candidates or []

    def to_dict(self) -> dict:
        return {**super().to_dict(), "candidates": list(self.candidates)}


class UnknownClass(EngineError):
    """Inheritance query names a class with no definition in the index."""


class UnknownFunction(EngineError):
    """Call query resolves to no function record."""


class NoSeedsResolved(EngineError):
    """None of the requested seed names match an indexed symbol."""


class ProviderUnavailable(EngineError):
    """External embedding endpoint failed or produced garbage."""


class SnapshotMismatch(EngineError):
    """Intent index was built against a different repository snapshot."""


class EmptyIndex(EngineError):
    """Intent query issued against an index with no documents."""


class ReproductionFailed(EngineError):
    """Issue could not be reproduced as a failing test."""

    def __init__(self, message: str, reason: str = ""):
        super().__init__(message)
        self.reason = reason or message


class GenerationFailed(EngineError):
    """Generation stage ended with no applicable candidate patches."""


class BackendError(EngineError):
    """Agent backend transcript is malformed or otherwise unusable."""


class JudgeError(EngineError):
    """Judge backend could not produce a score."""


class UnknownTool(EngineError):
    """Tool request names a tool outside the registry."""


class BadRequest(EngineError):
    """Tool request is malformed or out of range: a line that is not a JSON
    object, a missing or mistyped argument, an unknown direction, an invalid
    pattern, ``k`` or ``max_results`` below 1, ``hops`` below 0, or a tool
    call in a pipeline stage that has no tool context."""


class IdMismatch(EngineError):
    """Evaluation inputs have misaligned instance ids."""


class StaleIndexWarning(UserWarning):
    """Loaded index was built from a different repository snapshot."""
