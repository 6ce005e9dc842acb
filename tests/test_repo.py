from pathlib import PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppatlas.errors import RootNotFound
from cppatlas.repo import (
    HEADER_EXTS,
    SOURCE_EXTS,
    IssueDescription,
    content_digest,
    extract_mentioned_symbols,
    load_repository,
    unit_kind,
)
from cppatlas.cxx.lexer import CPP_KEYWORDS


def test_load_repository_collects_sources_sorted(toyrepo_root):
    repo = load_repository(toyrepo_root)
    assert repo.paths() == sorted(repo.paths())
    assert "src/calc.h" in repo.paths()
    assert "src/calc.cpp" in repo.paths()
    assert repo.unit("src/calc.h").content.startswith("#pragma once")
    assert repo.unit("no/such/file.cpp") is None


def test_load_repository_missing_root():
    with pytest.raises(RootNotFound):
        load_repository("/no/such/dir/cppatlas")


def test_include_globs_filter(toyrepo_root):
    repo = load_repository(toyrepo_root, include_globs=("**/*.h",))
    assert repo.paths()
    assert all(p.endswith(".h") for p in repo.paths())


def test_snapshot_is_content_addressed(toyrepo_root):
    a = load_repository(toyrepo_root)
    b = load_repository(toyrepo_root)
    assert a.snapshot_id == b.snapshot_id
    edited = a.with_units({"src/calc.h": a.unit("src/calc.h").content + "\n// x\n"})
    assert edited.snapshot_id != a.snapshot_id
    removed = a.with_units({"src/calc.h": None})
    assert "src/calc.h" not in removed.paths()


def test_non_utf8_units_are_skipped(tmp_path):
    (tmp_path / "ok.h").write_text("class A {};\n")
    (tmp_path / "bad.h").write_bytes(b"\xff\xfe\x00garbage")
    repo = load_repository(tmp_path)
    assert repo.paths() == ["ok.h"]


def pathlib_kind(path: str) -> str:
    suffix = PurePosixPath(path).suffix.lower()
    return ("header" if suffix in HEADER_EXTS
            else "source" if suffix in SOURCE_EXTS else "other")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["", ".", "..", "a", "b.", ".h", "..h", "x.H",
                                 "x.tar.h", ".x", "c.cpp", "d.CC", "e.cu", "é.hpp"]),
                max_size=5).map("/".join))
def test_unit_kind_reads_the_suffix_as_pathlib_does(path):
    assert unit_kind(path) == pathlib_kind(path)


@pytest.mark.parametrize(
    "path, kind",
    [("..h", "header"), (".h", "other"), ("a.", "other"), ("b.H", "header"),
     ("a/.x/b", "other"), ("x.tar.h", "header"), ("a/b.cc/", "source"),
     ("a/b.cc/.", "source"), ("a/b.h//./", "header"), ("a/..", "other")],
)
def test_unit_kind_on_odd_paths(path, kind):
    assert unit_kind(path) == pathlib_kind(path) == kind


def test_unit_kind_and_digest():
    assert unit_kind("a/b.h") == "header"
    assert unit_kind("a/b.cpp") == "source"
    assert content_digest("x") == content_digest("x")
    assert content_digest("x") != content_digest("y")


class TestMentionedSymbols:
    def keywords(self):
        return CPP_KEYWORDS

    def test_backticked_spans_are_trusted(self):
        got = extract_mentioned_symbols(
            "The call `Search::run(query)` hangs", self.keywords()
        )
        assert "Search::run" in got

    def test_prose_words_are_ignored(self):
        got = extract_mentioned_symbols(
            "It returns the wrong answer instead of the result",
            self.keywords(),
        )
        assert got == ()

    def test_snake_and_camel_count_as_code(self):
        got = extract_mentioned_symbols(
            "maybe last_result or computeTotal is stale", self.keywords()
        )
        assert "last_result" in got
        assert "computeTotal" in got

    def test_call_parens_count_as_code(self):
        got = extract_mentioned_symbols("calling subtract(2, 1) fails", self.keywords())
        assert "subtract" in got

    def test_keywords_never_qualify(self):
        got = extract_mentioned_symbols("`class` and `for_each`", self.keywords())
        assert "class" not in got
        assert "for_each" in got

    def test_order_preserved_and_deduped(self):
        got = extract_mentioned_symbols(
            "`beta_fn` then `alpha_fn` then `beta_fn` again", self.keywords()
        )
        assert got == ("beta_fn", "alpha_fn")


def test_issue_description_query_text():
    issue = IssueDescription.from_text(
        "subtract is wrong", "`Calculator::subtract` returns a + b"
    )
    assert issue.query_text.startswith("subtract is wrong")
    assert "Calculator::subtract" in issue.mentioned_symbols
