"""Localization scoring: file-level and function-level success rates.

Ground truth for a defect comes from its gold patch: the files the diff
touches, plus the function symbols in the pre-patch index whose spans
intersect the touched lines. An instance hits at file level when the
prediction names at least one truth file, and at function level when it
names at least one truth function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count

from .diffs import PatchCandidate, touched_old_lines
from .errors import IdMismatch
from .index import StructuralIndex
from .model import FUNCTION_KINDS


@dataclass(frozen=True)
class EvalInstance:
    instance_id: str
    predicted_files: frozenset[str]
    predicted_functions: frozenset[str]
    truth_files: frozenset[str]
    truth_functions: frozenset[str]

    @staticmethod
    def from_dict(data: dict) -> "EvalInstance":
        """An instance from its JSON object. An absent file or function
        name field is empty; a present one must be a list of strings, or
        ``ValueError`` is raised."""
        def names(key):
            value = data.get(key, [])
            if type(value) is not list or not set(map(type, value)) <= {str}:
                raise ValueError(f"instance field {key!r} is not a list of strings")
            return frozenset(value)

        return EvalInstance(
            instance_id=str(data["instance_id"]),
            predicted_files=names("predicted_files"),
            predicted_functions=names("predicted_functions"),
            truth_files=names("truth_files"),
            truth_functions=names("truth_functions"),
        )

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "predicted_files": sorted(self.predicted_files),
            "predicted_functions": sorted(self.predicted_functions),
            "truth_files": sorted(self.truth_files),
            "truth_functions": sorted(self.truth_functions),
        }


@dataclass(frozen=True)
class LocalizationReport(EvalInstance):
    file_hit: bool
    function_hit: bool

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "file_hit": self.file_hit,
            "function_hit": self.function_hit,
        }


def truth_sets(
    structural: StructuralIndex, candidate: PatchCandidate
) -> tuple[frozenset[str], frozenset[str]]:
    """(files, functions) a gold patch implicates: every path the diff
    touches, and the qualified names of baseline functions whose spans
    intersect the patch's old-side lines."""
    touched = touched_old_lines(candidate)
    symbols = structural.symbols
    lines_of = [touched.get(path) for path in symbols.files]  # by file code
    functions = set()
    for i in compress(count(), map(lines_of.__getitem__, symbols.file)):
        if symbols.kind_of(i) not in FUNCTION_KINDS or symbols.is_synthetic(i):
            continue
        lo, hi = symbols.start_line[i], symbols.end_line[i]
        if any(lo <= ln <= hi for ln in lines_of[symbols.file[i]]):
            functions.add(symbols.qualified_name[i])
    return frozenset(candidate.touched_files), frozenset(functions)


def predictions_from_localization(
    loc_result: dict, structural: StructuralIndex
) -> tuple[frozenset[str], frozenset[str]]:
    """(files, functions) named by a localization result. Every ranked
    symbol contributes its file; function-kind symbols also contribute
    their qualified name."""
    files = set()
    functions = set()
    for hit in loc_result["candidates"]:
        rec = structural.symbols[hit["symbol_id"]]
        files.add(rec.location.file)
        if rec.kind in FUNCTION_KINDS:
            functions.add(rec.qualified_name)
    return frozenset(files), frozenset(functions)


def score_instance(instance: EvalInstance) -> LocalizationReport:
    return LocalizationReport(
        **vars(instance),
        file_hit=bool(instance.predicted_files & instance.truth_files),
        function_hit=bool(
            instance.predicted_functions & instance.truth_functions
        ),
    )


def evaluate_localization(
    instances: list[EvalInstance],
) -> tuple[float, float, list[LocalizationReport]]:
    """(file rate, function rate, per-instance reports). Rates are the
    fraction of instances whose prediction intersects the truth at that
    granularity. Instance ids must be unique; an empty instance list is
    an error, not a vacuous success."""
    if not instances:
        raise ValueError("no instances to evaluate")
    seen: set[str] = set()
    for inst in instances:
        if inst.instance_id in seen:
            raise IdMismatch(f"duplicate instance id {inst.instance_id!r}")
        seen.add(inst.instance_id)
    reports = [score_instance(inst) for inst in instances]
    n = len(reports)
    file_rate = sum(1 for r in reports if r.file_hit) / n
    function_rate = sum(1 for r in reports if r.function_hit) / n
    return file_rate, function_rate, reports
