"""Unified diff parsing, application and reversal.

``apply_patch`` is pure: it returns a new ``Repository`` and never mutates
the input. Context lines must match exactly; a failed match raises
``ContextMismatch`` with the offending path and line. ``reverse_patch``
constructs the inverse diff, so ``apply(apply(repo, p), reverse(p))``
round-trips to the original snapshot.
"""

from __future__ import annotations

import difflib
import hashlib
import re
from dataclasses import dataclass

from .errors import ContextMismatch, FileMissing, MalformedDiff
from .repo import Repository

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_NO_NEWLINE = "\\ No newline at end of file"
_DEV_NULL = "/dev/null"

# non-hunk lines tolerated between file sections (git emits these)
_JUNK_PREFIXES = (
    "diff ",
    "index ",
    "new file",
    "deleted file",
    "similarity",
    "rename ",
    "copy ",
    "old mode",
    "new mode",
    "Binary files",
)


@dataclass(frozen=True)
class Hunk:
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: tuple[str, ...]  # raw body lines including the leading tag char
    no_newline_after: tuple[int, ...] = ()  # indices into ``lines``


@dataclass(frozen=True)
class FilePatch:
    old_path: str
    new_path: str
    hunks: tuple[Hunk, ...]

    @property
    def path(self) -> str:
        return self.new_path if self.old_path == _DEV_NULL else self.old_path


@dataclass(frozen=True)
class PatchCandidate:
    """A parsed unified diff; ``id`` is the digest of the diff text."""

    id: str
    diff: str
    files: tuple[FilePatch, ...]
    touched_files: tuple[str, ...]
    origin: str = "external"


def _strip_path(raw: str) -> str:
    path = raw.split("\t")[0].strip()
    if path == _DEV_NULL:
        return path
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


def parse_unified_diff(text: str, origin: str = "external") -> PatchCandidate:
    """Parse unified diff text; raises ``MalformedDiff`` on corrupt headers,
    bad body prefixes, count mismatches or a lone surrogate in the text.
    Empty text parses to an empty, no-op candidate."""
    try:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise MalformedDiff(f"diff text is not valid Unicode: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    i = 0
    n = len(lines)
    files: list[FilePatch] = []
    while i < n:
        line = lines[i]
        if line.startswith("--- "):
            if i + 1 >= n or not lines[i + 1].startswith("+++ "):
                raise MalformedDiff("'---' header without matching '+++'")
            old_path = _strip_path(line[4:])
            new_path = _strip_path(lines[i + 1][4:])
            i += 2
            hunks: list[Hunk] = []
            while i < n and lines[i].startswith("@@"):
                m = _HUNK_RE.match(lines[i])
                if not m:
                    raise MalformedDiff(f"corrupt hunk header: {lines[i]!r}")
                old_start = int(m.group(1))
                old_count = int(m.group(2)) if m.group(2) is not None else 1
                new_start = int(m.group(3))
                new_count = int(m.group(4)) if m.group(4) is not None else 1
                i += 1
                body: list[str] = []
                flags: list[int] = []
                need_old, need_new = old_count, new_count
                while need_old > 0 or need_new > 0:
                    if i >= n:
                        raise MalformedDiff("truncated hunk body")
                    raw = lines[i]
                    if raw.startswith("\\"):
                        if not body:
                            raise MalformedDiff("stray no-newline marker")
                        flags.append(len(body) - 1)
                        i += 1
                        continue
                    tag = raw[0] if raw else " "
                    if tag == " " or raw == "":
                        need_old -= 1
                        need_new -= 1
                    elif tag == "-":
                        need_old -= 1
                    elif tag == "+":
                        need_new -= 1
                    else:
                        raise MalformedDiff(f"bad body line prefix: {raw!r}")
                    if need_old < 0 or need_new < 0:
                        raise MalformedDiff("hunk body exceeds declared counts")
                    body.append(raw if raw else " ")
                    i += 1
                if i < n and lines[i].startswith("\\"):
                    flags.append(len(body) - 1)
                    i += 1
                hunks.append(
                    Hunk(
                        old_start,
                        old_count,
                        new_start,
                        new_count,
                        tuple(body),
                        tuple(sorted(set(flags))),
                    )
                )
            _check_hunk_order(hunks)
            files.append(FilePatch(old_path, new_path, tuple(hunks)))
            continue
        if line.startswith(("@@", "+++ ")):
            raise MalformedDiff(f"unexpected line outside file section: {line!r}")
        if line == "" or line.startswith(_JUNK_PREFIXES) or not line.startswith(
            ("+", "-", " ")
        ):
            i += 1
            continue
        raise MalformedDiff(f"unexpected line outside file section: {line!r}")

    touched: list[str] = []
    for fp in files:
        if fp.path not in touched:
            touched.append(fp.path)
    return PatchCandidate(
        id=digest,
        diff=text,
        files=tuple(files),
        touched_files=tuple(touched),
        origin=origin,
    )


def _effective_span(h: Hunk) -> tuple[int, int]:
    """Half-open 1-based old-line range a hunk consumes."""
    if h.old_count == 0:
        return (h.old_start + 1, h.old_start + 1)
    return (h.old_start, h.old_start + h.old_count)


def _check_hunk_order(hunks: list[Hunk]):
    prev_end = 0
    for h in hunks:
        start, end = _effective_span(h)
        if start < prev_end:
            raise MalformedDiff("hunks overlap or are out of order")
        prev_end = max(prev_end, end)


def _split_lines(content: str) -> tuple[list[str], bool]:
    if content == "":
        return [], True
    had_trailing = content.endswith("\n")
    lines = content.split("\n")
    if had_trailing:
        lines.pop()
    return lines, had_trailing


def _apply_hunks(content: str, hunks: tuple[Hunk, ...], path: str) -> str:
    lines, had_trailing = _split_lines(content)
    emitted: list[tuple[str, bool]] = []  # (text, lacks_trailing_newline)
    cursor = 0  # 0-based index of the next unconsumed old line
    for h in hunks:
        target = h.old_start if h.old_count == 0 else h.old_start - 1
        if target < cursor or target > len(lines):
            raise ContextMismatch(f"{path}: hunk at {h.old_start} out of range")
        while cursor < target:
            emitted.append((lines[cursor], False))
            cursor += 1
        for idx, raw in enumerate(h.lines):
            tag, text = raw[0], raw[1:]
            flagged = idx in h.no_newline_after
            if tag in (" ", "-"):
                if cursor >= len(lines):
                    raise ContextMismatch(
                        f"{path}:{cursor + 1}: hunk runs past end of file"
                    )
                if lines[cursor] != text:
                    raise ContextMismatch(
                        f"{path}:{cursor + 1}: expected {text!r}, "
                        f"found {lines[cursor]!r}"
                    )
                if tag == " ":
                    emitted.append((text, flagged))
                cursor += 1
            else:  # '+'
                emitted.append((text, flagged))
    while cursor < len(lines):
        last = cursor == len(lines) - 1
        emitted.append((lines[cursor], last and not had_trailing))
        cursor += 1
    if not emitted:
        return ""
    body = "\n".join(t for t, _ in emitted)
    return body if emitted[-1][1] else body + "\n"


def apply_patch(repo: Repository, candidate: PatchCandidate) -> Repository:
    """Apply a parsed diff, returning a new snapshot. The input repository
    is untouched."""
    overlay: dict[str, str | None] = {}

    def current(path: str) -> str | None:
        if path in overlay:
            return overlay[path]
        unit = repo.unit(path)
        return unit.content if unit else None

    for fp in candidate.files:
        if fp.old_path == _DEV_NULL:
            if current(fp.new_path) is not None:
                raise ContextMismatch(
                    f"{fp.new_path}: creation target already exists"
                )
            overlay[fp.new_path] = _apply_hunks("", fp.hunks, fp.new_path)
        elif fp.new_path == _DEV_NULL:
            content = current(fp.old_path)
            if content is None:
                raise FileMissing(f"{fp.old_path} is not in the repository")
            remainder = _apply_hunks(content, fp.hunks, fp.old_path)
            if remainder != "":
                raise ContextMismatch(
                    f"{fp.old_path}: deletion leaves residual content"
                )
            overlay[fp.old_path] = None
        else:
            content = current(fp.old_path)
            if content is None:
                raise FileMissing(f"{fp.old_path} is not in the repository")
            patched = _apply_hunks(content, fp.hunks, fp.old_path)
            if fp.new_path != fp.old_path:
                overlay[fp.old_path] = None
            overlay[fp.new_path] = patched
    return repo.with_units(overlay)


def render_patch(files: tuple[FilePatch, ...]) -> str:
    """Canonical text for a parsed diff structure."""
    parts: list[str] = []
    for fp in files:
        old_disp = fp.old_path if fp.old_path == _DEV_NULL else f"a/{fp.old_path}"
        new_disp = fp.new_path if fp.new_path == _DEV_NULL else f"b/{fp.new_path}"
        parts.append(f"--- {old_disp}")
        parts.append(f"+++ {new_disp}")
        for h in fp.hunks:
            parts.append(
                f"@@ -{h.old_start},{h.old_count} +{h.new_start},{h.new_count} @@"
            )
            for idx, raw in enumerate(h.lines):
                parts.append(raw)
                if idx in h.no_newline_after:
                    parts.append(_NO_NEWLINE)
    if not parts:
        return ""
    return "\n".join(parts) + "\n"


def candidate_from_files(
    files: tuple[FilePatch, ...], origin: str = "external"
) -> PatchCandidate:
    text = render_patch(files)
    touched: list[str] = []
    for fp in files:
        if fp.path not in touched:
            touched.append(fp.path)
    return PatchCandidate(
        id=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        diff=text,
        files=files,
        touched_files=tuple(touched),
        origin=origin,
    )


_SWAP = {" ": " ", "+": "-", "-": "+"}


def reverse_patch(candidate: PatchCandidate) -> PatchCandidate:
    """Inverse diff: applying it to a patched snapshot restores the
    original."""
    rev_files = []
    for fp in candidate.files:
        rev_hunks = []
        for h in fp.hunks:
            rev_lines = tuple(_SWAP[raw[0]] + raw[1:] for raw in h.lines)
            rev_hunks.append(
                Hunk(
                    h.new_start,
                    h.new_count,
                    h.old_start,
                    h.old_count,
                    rev_lines,
                    h.no_newline_after,
                )
            )
        rev_files.append(FilePatch(fp.new_path, fp.old_path, tuple(rev_hunks)))
    return candidate_from_files(tuple(rev_files), origin=candidate.origin)


def make_diff(old: str, new: str, path: str, context: int = 3) -> str:
    """Render a unified diff between two versions of one file, with
    no-newline markers where either side lacks a trailing newline."""
    produced = difflib.unified_diff(
        old.splitlines(keepends=True),
        new.splitlines(keepends=True),
        fromfile=f"a/{path}",
        tofile=f"b/{path}",
        n=context,
    )
    out: list[str] = []
    for ln in produced:
        if ln.endswith("\n"):
            out.append(ln)
        else:
            out.append(ln + "\n")
            out.append(_NO_NEWLINE + "\n")
    return "".join(out)


def touched_old_lines(candidate: PatchCandidate) -> dict[str, set[int]]:
    """Old-file line numbers each file patch touches. Added lines attribute
    to the old line they are inserted before; creations attribute to line 1
    of the new path."""
    touched: dict[str, set[int]] = {}
    for fp in candidate.files:
        target = touched.setdefault(fp.path, set())
        if fp.old_path == _DEV_NULL:
            target.add(1)
            continue
        for h in fp.hunks:
            cursor = h.old_start + 1 if h.old_count == 0 else h.old_start
            for raw in h.lines:
                tag = raw[0]
                if tag == " ":
                    cursor += 1
                elif tag == "-":
                    target.add(cursor)
                    cursor += 1
                else:
                    target.add(max(1, cursor))
    return touched
