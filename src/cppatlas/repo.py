"""Immutable snapshot of a C++ repository plus issue descriptions.

A ``Repository`` is a value: applying a patch produces a new instance and the
``snapshot_id`` changes exactly when some unit's content does. Loading walks
the root with include globs, skips unreadable files with a warning, and never
requires a build environment.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from .errors import RootNotFound

log = logging.getLogger(__name__)

HEADER_EXTS = {".h", ".hpp", ".hh", ".hxx", ".inl"}
SOURCE_EXTS = {".cpp", ".cc", ".cxx", ".c", ".cu"}

DEFAULT_INCLUDE_GLOBS = (
    "**/*.h",
    "**/*.hpp",
    "**/*.hh",
    "**/*.hxx",
    "**/*.inl",
    "**/*.cpp",
    "**/*.cc",
    "**/*.cxx",
)

QUALIFIED_NAME_RE = re.compile(r"[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*")
_BACKTICK_RE = re.compile(r"`([^`\n]+)`")


def unit_kind(path: str) -> str:
    # PurePosixPath(path).suffix, where "" and "." parts do not count
    name = path.rpartition("/")[2]
    if name in ("", "."):
        name = next((p for p in reversed(path.split("/")) if p not in ("", ".")), "")
    dot = name.rfind(".")
    suffix = name[dot:].lower() if 0 < dot < len(name) - 1 else ""
    if suffix in HEADER_EXTS:
        return "header"
    if suffix in SOURCE_EXTS:
        return "source"
    return "other"


def content_digest(content: str) -> str:
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SourceUnit:
    """One file of the snapshot; ``path`` is root-relative and POSIX-style."""

    path: str
    content: str
    content_hash: str
    kind: str

    @staticmethod
    def make(path: str, content: str) -> "SourceUnit":
        return SourceUnit(path, content, content_digest(content), unit_kind(path))

    @property
    def lines(self) -> list[str]:
        return self.content.split("\n")


def _snapshot_id(units: tuple[SourceUnit, ...]) -> str:
    h = hashlib.sha256()
    for u in sorted(units, key=lambda u: u.path):
        h.update(u.path.encode("utf-8"))
        h.update(b"\x00")
        h.update(u.content_hash.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class Repository:
    """Sorted, deduplicated collection of source units."""

    root: str
    units: tuple[SourceUnit, ...]
    snapshot_id: str = ""

    def __post_init__(self):
        paths = [u.path for u in self.units]
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate unit paths in repository")
        ordered = tuple(sorted(self.units, key=lambda u: u.path))
        object.__setattr__(self, "units", ordered)
        object.__setattr__(self, "snapshot_id", _snapshot_id(ordered))

    def unit(self, path: str) -> SourceUnit | None:
        for u in self.units:
            if u.path == path:
                return u
        return None

    def paths(self) -> list[str]:
        return [u.path for u in self.units]

    def with_units(self, units: dict[str, str | None]) -> "Repository":
        """Return a new snapshot with ``units`` applied on top: a string value
        replaces or creates a unit, ``None`` deletes it."""
        keep = {u.path: u for u in self.units}
        for path, content in units.items():
            if content is None:
                keep.pop(path, None)
            else:
                keep[path] = SourceUnit.make(path, content)
        return Repository(self.root, tuple(keep.values()))


@functools.lru_cache(maxsize=256)
def include_glob_parts(pattern: str, where: str = "include glob") -> tuple[str, ...]:
    """The parts ``load_repository`` matches for one include glob.

    Raises ``ValueError`` for a glob that could name no file inside the root:
    one with no parts (``""`` or ``"."``), an absolute one, one with a ``..``
    part, or one with ``**`` inside a longer part. A glob that ends in ``/``
    names directories only, so it gets an empty last part that no entry
    matches."""
    pure = PurePosixPath(pattern)
    parts = pure.parts
    if not parts or pure.is_absolute() or ".." in parts:
        raise ValueError(f"{where} {pattern!r} must name files inside the root")
    if any("**" in part and part != "**" for part in parts):
        raise ValueError(f"{where} {pattern!r}: '**' must be a whole part")
    return parts + ("",) if pattern.endswith("/") else parts


@functools.lru_cache(maxsize=256)
def _glob_plan(tails: frozenset) -> tuple:
    """How a directory's entries continue the pattern tails pending there:
    the ``**`` tails that carry on into real subdirectories, one matcher for
    the last parts that keep files, and ``(matcher, rest)`` for each other
    part that leads into a directory."""
    here = set(tails)
    for tail in tails:  # "**" also stands for the directory itself
        while tail[0] == "**" and len(tail) > 1:
            tail = tail[1:]
            here.add(tail)
    deep = frozenset(t for t in here if t[0] == "**")
    lasts = [fnmatch.translate(t[0]) for t in here if len(t) == 1 and t[0] != "**"]
    keep = re.compile("|".join(lasts)).fullmatch if lasts else None
    inner = tuple(
        (re.compile(fnmatch.translate(t[0])).fullmatch, t[1:])
        for t in here
        if len(t) > 1 and t[0] != "**"
    )
    return deep, keep, inner


def _matching_files(top: str, patterns: list[tuple[str, ...]]) -> set[tuple[str, ...]]:
    """The parts, below ``top``, of every regular file a pattern matches; each
    directory is listed at most once, with every tail pending there."""
    found: set[tuple[str, ...]] = set()
    stack = [(top, (), frozenset(patterns))]
    while stack:
        path, rel, tails = stack.pop()
        deep, keep, inner = _glob_plan(tails)
        try:
            with os.scandir(path) as listing:
                entries = list(listing)
        except OSError:
            continue
        for entry in entries:
            name = entry.name
            try:
                if keep is not None and keep(name) and entry.is_file():
                    found.add(rel + (name,))
                below = deep if deep and entry.is_dir(follow_symlinks=False) else None
                if inner:
                    more = {rest for match, rest in inner if match(name)}
                    if more and entry.is_dir():
                        below = below | more if below else frozenset(more)
            except OSError:
                continue
            if below:
                stack.append((entry.path, rel + (name,), below))
    return found


def load_repository(
    root: str | Path, include_globs: tuple[str, ...] | None = None
) -> Repository:
    """Read every file under ``root`` matched by the include globs.

    The globs match as ``Path.glob`` does on Python 3.11, in one walk that
    lists each directory at most once:

    - a glob's parts are those of ``PurePosixPath(glob)``, and
      ``include_glob_parts`` rejects a glob that could leave the root;
    - ``**`` stands for the directory itself and for every directory below
      it that is reached without entering a symlinked directory;
    - every other part is an ``fnmatch`` pattern, matched case-sensitively
      against entry names, hidden names included;
    - a part that is not the last continues into entries that are
      directories after following symlinks;
    - the last part keeps entries that are regular files after following
      symlinks, so FIFOs, broken links and a directory named ``x.h`` are
      not read;
    - a file that several globs match is read once;
    - files are read in the order of their path parts, the order
      ``sorted()`` gives ``Path`` objects.

    A directory that cannot be listed, and an entry whose type cannot be
    read (a symlink loop, say), are passed over. Unreadable or non-UTF-8
    files, and files whose names are not UTF-8, are skipped with a warning;
    an empty match set still yields a valid (empty) repository.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        raise RootNotFound(f"repository root not found: {root}")
    patterns = [include_glob_parts(g) for g in include_globs or DEFAULT_INCLUDE_GLOBS]
    top = str(root_path)
    # the file names Path would give, so that a read error reads the same
    prefix = "" if top == "." else top if top.endswith("/") else top + "/"
    units = []
    for parts in sorted(_matching_files(top, patterns)):
        rel = "/".join(parts)
        try:
            rel.encode("utf-8")  # a name that is not UTF-8 holds surrogates
            with open(prefix + rel, encoding="utf-8") as f:
                content = f.read()
        except (OSError, UnicodeError) as exc:
            log.warning("skipping unreadable unit %s: %s", rel, exc)
            continue
        units.append(SourceUnit.make(rel, content))
    return Repository(top, tuple(units))


def extract_mentioned_symbols(text: str, keywords: frozenset[str]) -> tuple[str, ...]:
    """Pull identifier-shaped tokens out of free text.

    Backtick-quoted spans are trusted as code: any call arguments are
    stripped and the remainder is kept if it lexes as an identifier or
    qualified name. Unquoted tokens must additionally look like code, not
    prose: qualified, snake_case, camelCase, or written with call parens.
    C++ keywords never qualify.
    """
    seen: dict[str, None] = {}

    def keep(tok: str):
        if tok and tok not in seen:
            if all(seg not in keywords for seg in tok.split("::")):
                seen[tok] = None

    for m in _BACKTICK_RE.finditer(text):
        span = m.group(1).strip()
        if "(" in span:
            span = span.split("(", 1)[0].strip()
        if QUALIFIED_NAME_RE.fullmatch(span):
            keep(span)
    for m in QUALIFIED_NAME_RE.finditer(text):
        tok = m.group(0)
        tail = text[m.end() : m.end() + 1]
        code_like = (
            "::" in tok
            or "_" in tok
            or re.search(r"[a-z][A-Z]", tok) is not None
            or tail == "("
        )
        if code_like:
            keep(tok)
    return tuple(seen)


@dataclass(frozen=True)
class IssueDescription:
    """Natural-language defect report with extracted symbol mentions."""

    title: str
    body: str
    mentioned_symbols: tuple[str, ...] = field(default=())

    @staticmethod
    def from_text(title: str, body: str) -> "IssueDescription":
        from .cxx.lexer import CPP_KEYWORDS

        mentioned = extract_mentioned_symbols(f"{title}\n{body}", CPP_KEYWORDS)
        return IssueDescription(title, body, mentioned)

    @property
    def query_text(self) -> str:
        return f"{self.title}\n{self.body}".strip()
