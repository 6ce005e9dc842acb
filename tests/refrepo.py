"""Frozen copy of ``load_repository`` as it was before it read the tree in
one directory walk: one ``Path.glob`` per include glob, each walking the
whole tree again.

It is the reference `test_repo_walk.py` compares `cppatlas.repo.load_repository`
against: the same paths, contents and ``snapshot_id``, and the same skip
warnings in the same order. Nothing in `src/` imports it; do not edit it to
match `cppatlas.repo`.
"""

from __future__ import annotations

import logging
from pathlib import Path

from cppatlas.errors import RootNotFound
from cppatlas.repo import Repository, SourceUnit

log = logging.getLogger(__name__)

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


def load_repository(
    root: str | Path, include_globs: tuple[str, ...] | None = None
) -> Repository:
    """Read every file under ``root`` matched by the include globs.

    Unreadable or non-UTF-8 files are skipped with a warning; an empty match
    set still yields a valid (empty) repository.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        raise RootNotFound(f"repository root not found: {root}")
    globs = include_globs or DEFAULT_INCLUDE_GLOBS
    matched: set[Path] = set()
    for pattern in globs:
        matched.update(p for p in root_path.glob(pattern) if p.is_file())
    units = []
    for p in sorted(matched):
        rel = p.relative_to(root_path).as_posix()
        try:
            content = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            log.warning("skipping unreadable unit %s: %s", rel, exc)
            continue
        units.append(SourceUnit.make(rel, content))
    return Repository(str(root_path), tuple(units))
