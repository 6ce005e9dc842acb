"""scripts/src_lines.py: the net ``src/`` lines per file against a
revision, on a throwaway git repository."""

import pathlib
import shutil
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="no git")


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=root, check=True, capture_output=True)


def _run(root, *args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=root,
                          capture_output=True, text=True)


def test_lines_per_file_against_a_revision(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text("one\ntwo\nthree\n")
    (src / "gone.py").write_text("x\ny\n")
    (tmp_path / "notes.txt").write_text("outside src\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")

    (src / "a.py").write_text("one\n2\nthree\nfour\nfive\n")  # +3 -1
    (src / "gone.py").unlink()  # -2
    (src / "new.py").write_text("n\n")  # +1 once staged
    (src / "untracked.py").write_text("u\n")  # never staged
    (tmp_path / "notes.txt").write_text("edited\nmore\n")
    _git(tmp_path, "add", "src/new.py")

    got = _run(tmp_path)
    assert got.returncode == 0, got.stderr
    rows = [line.split() for line in got.stdout.splitlines()]
    assert rows == [["+3", "-1", "+2", "src/a.py"],
                    ["+0", "-2", "-2", "src/gone.py"],
                    ["+1", "-0", "+1", "src/new.py"],
                    ["+4", "-3", "+1", "total"]]
    assert _run(tmp_path, "HEAD").stdout == got.stdout

    _git(tmp_path, "commit", "-q", "-am", "second")
    assert [line.split() for line in _run(tmp_path).stdout.splitlines()] == [
        ["+0", "-0", "+0", "total"]]
    again = _run(tmp_path, "HEAD~1")
    assert again.stdout == got.stdout


def test_a_bad_revision_or_argument_fails(tmp_path):
    _git(tmp_path, "init", "-q")
    bad = _run(tmp_path, "no-such-rev")
    assert bad.returncode == 2 and "no-such-rev" in bad.stderr
    assert _run(tmp_path, "a", "b").returncode == 2
