"""The one-walk ``load_repository`` against the frozen per-glob loader in
refrepo.py: the same paths, contents and ``snapshot_id``, and the same skip
warnings in the same order, for default and custom globs over trees with
hidden names, symlinks, FIFOs, odd names and corpusgen seeds side by side.

A directory that cannot be listed is not covered: these tests may run as
root, where ``chmod`` does not stop a listing.

One difference is declared: a file whose name is not UTF-8 (a byte 0xff,
say) is skipped with the warning of an unreadable unit, where the per-glob
loader raised ``UnicodeEncodeError`` from ``snapshot_id``."""

import builtins
import contextlib
import errno
import io
import logging
import os
import threading

import pytest

import corpusgen
import refrepo
from cppatlas.config import AppConfig
from cppatlas.repo import include_glob_parts, load_repository

CUSTOM_GLOBS = [
    "*.h",
    "src/*.cpp",
    "**/sub/*.h",
    "a/**/b/?.h",
    "[ab]*.h",
    "**",
    "**/*",
    "./x/*.h",
    "a//b/*.h",
    "link/*.h",
    "*/*.h",
    "**/link/*.h",
    "*/*/*.h",
    "link/**/*.h",
    "*.H",
    "src/",
    "**/",
    "**/**/*.cpp",
    "x.h/*.h",
]

GLOB_SETS = (
    [None]
    + [(g,) for g in CUSTOM_GLOBS]
    + [
        ("**/*.h", "*.h", "link/*.h", "**/*"),
        ("**/*.cpp", "src/*.cpp", "**/*.cpp"),
        tuple(CUSTOM_GLOBS),
    ]
)


FIFOS = ["pipe.h", "real/pipe.cpp"]


def write(root, rel, data=b"int x;\n"):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


@pytest.fixture(scope="module")
def odd_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("odd")
    for rel in [
        "a.h", "b1.h", "c1.h", "X.H", "x.hpp", "m.inl", "n.cxx", "o.hh",
        ".hidden.h", ".hdir/h.h", ".hdir/deep/h.cpp",
        "real/r.h", "real/sub/s.h", "real/sub/t.cpp",
        "a-b/x.h", "a/b.h", "a/b/c.h", "a/b/cc.h", "a/q/b/d.h",
        "a/q/r/b/e.h", "src/m.cpp", "src/sub/n.cpp", "src/sub/v.h",
        "x/one.h", "sub/q.h", "deep/sub/r.h", "x.h/inside.h",
        "notes.txt",
    ]:
        write(root, rel)
    write(root, "crlf.h", b"int a;\r\nint b;\r\n")
    write(root, "bad.h", b"\xff\xfe\x00garbage")
    write(root, "deep/bad.cpp", b"int \x80;\n")
    os.symlink("real", root / "link")
    os.symlink("../real", root / "deep" / "link")
    os.symlink("a.h", root / "alias.h")
    os.symlink("nowhere.h", root / "gone.h")
    os.symlink("loop.h", root / "loop.h")
    os.symlink(".", root / "here")
    for rel in FIFOS:
        os.mkfifo(root / rel)
    return root


@contextlib.contextmanager
def fifos_unblocked(root):
    """Open and close the write end of the tree's FIFOs every tenth of a
    second, so that a loader that opened one reads it empty instead of
    hanging."""
    done = threading.Event()

    def poke():
        while not done.wait(0.1):
            for rel in FIFOS:
                try:
                    os.close(os.open(os.path.join(root, rel),
                                     os.O_WRONLY | os.O_NONBLOCK))
                except OSError:  # no reader waiting, or no such FIFO
                    pass

    poker = threading.Thread(target=poke, daemon=True)
    poker.start()
    try:
        yield
    finally:
        done.set()
        poker.join(timeout=5)
    assert not poker.is_alive()


def load_both(root, globs, caplog):
    """Each loader's repository and its warning messages."""
    out = []
    for load in (refrepo.load_repository, load_repository):
        caplog.clear()
        with fifos_unblocked(root), caplog.at_level(logging.WARNING):
            repo = load(root, include_globs=globs)
        out.append((repo, [r.getMessage() for r in caplog.records]))
    return out


def assert_same(root, globs, caplog):
    (ref, ref_warnings), (got, got_warnings) = load_both(root, globs, caplog)
    assert got.paths() == ref.paths()
    assert [u.content for u in got.units] == [u.content for u in ref.units]
    assert got.snapshot_id == ref.snapshot_id
    assert got.root == ref.root
    assert got_warnings == ref_warnings
    return got, got_warnings


@pytest.mark.parametrize("globs", GLOB_SETS, ids=repr)
def test_odd_tree_matches_the_per_glob_loader(odd_tree, globs, caplog):
    assert_same(odd_tree, globs, caplog)


def test_odd_tree_defaults_read_what_is_expected(odd_tree, caplog):
    repo, warnings = assert_same(odd_tree, None, caplog)
    paths = repo.paths()
    # hidden names match; `**` skips the symlinked `link` and `here`
    assert ".hidden.h" in paths and ".hdir/deep/h.cpp" in paths
    assert not any(p.startswith(("link/", "here/", "deep/link/")) for p in paths)
    # a link to a file is read; a broken link, a loop, FIFOs and a
    # directory named x.h are not; X.H is not a `*.h`
    assert "alias.h" in paths and "x.h/inside.h" in paths
    for name in ["gone.h", "loop.h", "pipe.h", "real/pipe.cpp", "x.h", "X.H"]:
        assert name not in paths
    assert repo.unit("crlf.h").content == "int a;\nint b;\n"
    assert any(w.startswith("skipping unreadable unit bad.h: ") for w in warnings)


def test_explicit_parts_follow_symlinked_directories(odd_tree, caplog):
    repo, _ = assert_same(odd_tree, ("link/*.h", "*/*.h", "**/link/*.h"), caplog)
    assert {"link/r.h", "here/a.h", "deep/link/r.h"} <= set(repo.paths())


def test_parts_order_differs_from_string_order(tmp_path, caplog):
    write(tmp_path, "a-b/x.h", b"\xff")
    write(tmp_path, "a/b.h", b"\xfe")
    # "a-b/x.h" < "a/b.h" as strings, but ("a", "b.h") < ("a-b", "x.h")
    _, warnings = assert_same(tmp_path, None, caplog)
    assert [w.split(":")[0] for w in warnings] == [
        "skipping unreadable unit a/b.h",
        "skipping unreadable unit a-b/x.h",
    ]


@pytest.mark.parametrize("form", ["absolute", "trailing slash", "relative", "dot"])
def test_root_spellings(odd_tree, form, monkeypatch, caplog):
    """Each spelling of the root gives the same units, and an open that
    fails names the same file in its warning."""
    real_open = io.open

    def deny_a_h(file, *args, **kwargs):
        if os.fspath(file).endswith("a.h"):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", deny_a_h)
    monkeypatch.setattr(builtins, "open", deny_a_h)
    root = {
        "absolute": str(odd_tree),
        "trailing slash": str(odd_tree) + "/",
        "relative": os.path.relpath(odd_tree, odd_tree.parent),
        "dot": ".",
    }[form]
    monkeypatch.chdir(odd_tree if form == "dot" else odd_tree.parent)
    _, warnings = assert_same(root, ("*.h", "**/*.cpp"), caplog)
    assert any("Permission denied" in w for w in warnings)


def test_corpusgen_seeds_side_by_side(tmp_path, caplog):
    for seed in range(60):
        for rel, text in corpusgen.generate(seed).files.items():
            path = tmp_path / f"seed{seed:02d}" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    repo, _ = assert_same(tmp_path, None, caplog)
    assert len(repo.units) > 60


def test_name_that_is_not_utf8_is_skipped_not_fatal(tmp_path, caplog):
    write(tmp_path, "ok.h")
    os.makedirs(os.path.join(bytes(tmp_path), b"d\xfe"))
    for rel in (b"\xff.h", b"d\xfe/x.cpp"):
        with open(os.path.join(bytes(tmp_path), rel), "wb") as f:
            f.write(b"int x;\n")
    with pytest.raises(UnicodeEncodeError):
        refrepo.load_repository(tmp_path)
    with caplog.at_level(logging.WARNING):
        repo = load_repository(tmp_path)
    assert repo.paths() == ["ok.h"]
    warnings = [r.getMessage() for r in caplog.records]
    assert [w.split(":")[0] for w in warnings] == [
        "skipping unreadable unit d\udcfe/x.cpp",
        "skipping unreadable unit \udcff.h",
    ]
    ok_only = tmp_path / "ok_only"
    write(ok_only, "ok.h")
    assert repo.snapshot_id == load_repository(ok_only).snapshot_id


BAD_GLOBS = ["", ".", "./", "/abs/*.h", "//abs/*.h", "../*.h", "src/../../*.h",
             "a**/x.h"]


@pytest.mark.parametrize("pattern", BAD_GLOBS)
def test_globs_that_leave_the_root_are_rejected(pattern, odd_tree):
    with pytest.raises(ValueError):
        include_glob_parts(pattern)
    with pytest.raises(ValueError, match="include glob"):
        load_repository(odd_tree, include_globs=("*.h", pattern))
    with pytest.raises(ValueError, match="include_globs entry"):
        AppConfig.from_dict({"include_globs": ["*.h", pattern]})


def test_glob_parts():
    assert include_glob_parts("./x/*.h") == ("x", "*.h")
    assert include_glob_parts("a//b/*.h") == ("a", "b", "*.h")
    assert include_glob_parts("src/") == ("src", "")
