"""The net change in ``src/`` lines, per file, against a revision.

    python3 scripts/src_lines.py [REV]

Run from the root of a git checkout. It reads ``git diff --numstat REV --
src`` (``REV`` defaults to ``HEAD``), which compares the working tree with
``REV`` for every file git tracks or has staged (``git add`` a new file
first), and prints one line per file, its added, removed and net lines,
then their totals. A binary file counts no lines.
"""

from __future__ import annotations

import subprocess
import sys


def numstat(rev: str) -> list[tuple[int, int, str]]:
    """(added, removed, path) of each file under ``src/`` that differs
    from ``rev``."""
    out = subprocess.run(["git", "diff", "--numstat", rev, "--", "src"],
                         capture_output=True, text=True, check=True).stdout
    rows = []
    for line in out.splitlines():
        added, removed, path = line.split("\t", 2)
        rows.append((int(added) if added != "-" else 0,
                     int(removed) if removed != "-" else 0, path))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: src_lines.py [REV]", file=sys.stderr)
        return 2
    try:
        rows = numstat(argv[0] if argv else "HEAD")
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.strip(), file=sys.stderr)
        return 2
    rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    for added, removed, path in rows:
        print(f"+{added:<6} -{removed:<6} {added - removed:+7}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
