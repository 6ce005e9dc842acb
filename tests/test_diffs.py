import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppatlas.diffs import (
    apply_patch,
    candidate_from_files,
    make_diff,
    parse_unified_diff,
    render_patch,
    reverse_patch,
    touched_old_lines,
)
from cppatlas.errors import ContextMismatch, FileMissing, MalformedDiff
from cppatlas.repo import Repository, SourceUnit


def repo_of(**files) -> Repository:
    units = tuple(SourceUnit.make(p, c) for p, c in files.items())
    return Repository("/virtual", units)


_line = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)


def _doc(draw, max_lines=30):
    lines = draw(st.lists(_line, max_size=max_lines))
    text = "\n".join(lines)
    if lines and draw(st.booleans()):
        text += "\n"
    return text


_texts = st.composite(lambda draw: _doc(draw))()


@settings(max_examples=200, deadline=None)
@given(old=_texts, new=_texts)
def test_diff_apply_round_trip(old, new):
    diff = make_diff(old, new, "src/x.cpp")
    cand = parse_unified_diff(diff)
    patched = apply_patch(repo_of(**{"src/x.cpp": old}), cand)
    assert patched.unit("src/x.cpp").content == new


@settings(max_examples=200, deadline=None)
@given(old=_texts, new=_texts)
def test_reverse_patch_restores_original(old, new):
    cand = parse_unified_diff(make_diff(old, new, "src/x.cpp"))
    forward = apply_patch(repo_of(**{"src/x.cpp": old}), cand)
    back = apply_patch(forward, reverse_patch(cand))
    assert back.unit("src/x.cpp").content == old


@settings(max_examples=100, deadline=None)
@given(old=_texts, new=_texts)
def test_render_parse_fixed_point(old, new):
    cand = parse_unified_diff(make_diff(old, new, "src/x.cpp"))
    rendered = render_patch(cand.files)
    assert parse_unified_diff(rendered).files == cand.files
    assert render_patch(parse_unified_diff(rendered).files) == rendered


def test_empty_diff_is_noop():
    cand = parse_unified_diff("")
    repo = repo_of(**{"a.h": "x\n"})
    assert apply_patch(repo, cand).unit("a.h").content == "x\n"
    assert make_diff("same\n", "same\n", "a.h") == ""


def test_file_creation_and_deletion():
    create = parse_unified_diff(
        "--- /dev/null\n"
        "+++ b/src/new.cpp\n"
        "@@ -0,0 +1,2 @@\n"
        "+int a;\n"
        "+int b;\n"
    )
    repo = repo_of(**{"src/old.cpp": "int gone;\n"})
    repo2 = apply_patch(repo, create)
    assert repo2.unit("src/new.cpp").content == "int a;\nint b;\n"

    delete = parse_unified_diff(
        "--- a/src/old.cpp\n"
        "+++ /dev/null\n"
        "@@ -1,1 +0,0 @@\n"
        "-int gone;\n"
    )
    repo3 = apply_patch(repo2, delete)
    assert repo3.unit("src/old.cpp") is None
    assert touched_old_lines(create) == {"src/new.cpp": {1}}


def test_git_style_headers_tolerated():
    text = (
        "diff --git a/x.h b/x.h\n"
        "index 1111111..2222222 100644\n"
        "--- a/x.h\n"
        "+++ b/x.h\n"
        "@@ -1,1 +1,1 @@\n"
        "-old\n"
        "+new\n"
    )
    cand = parse_unified_diff(text)
    assert cand.touched_files == ("x.h",)
    patched = apply_patch(repo_of(**{"x.h": "old\n"}), cand)
    assert patched.unit("x.h").content == "new\n"


def test_context_mismatch_reports_position():
    cand = parse_unified_diff(
        "--- a/x.h\n+++ b/x.h\n@@ -1,1 +1,1 @@\n-expected\n+new\n"
    )
    with pytest.raises(ContextMismatch) as err:
        apply_patch(repo_of(**{"x.h": "actual\n"}), cand)
    assert "x.h:1" in str(err.value)


def test_patching_missing_file_fails():
    cand = parse_unified_diff(
        "--- a/gone.h\n+++ b/gone.h\n@@ -1,1 +1,1 @@\n-a\n+b\n"
    )
    with pytest.raises(FileMissing):
        apply_patch(repo_of(**{"x.h": "a\n"}), cand)


@pytest.mark.parametrize(
    "text",
    [
        "--- a/x.h\n+++ b/x.h\n@@ bogus @@\n",
        "--- a/x.h\n+++ b/x.h\n@@ -1,2 +1,1 @@\n-a\n+b\n",  # count short
        "--- a/x.h\n@@ -1,1 +1,1 @@\n-a\n+b\n",  # missing +++ line
        "--- a/x.h\n+++ b/x.h\n@@ -1,1 +1,1 @@\n*a\n+b\n",  # bad prefix
        "--- a/x.h\n+++ b/x.h\n@@ -1,1 +1,1 @@\n-a\n+b // \ud800\n",  # lone surrogate
    ],
)
def test_malformed_diffs_rejected(text):
    with pytest.raises(MalformedDiff):
        parse_unified_diff(text)


def test_hunks_must_be_ordered():
    text = (
        "--- a/x.h\n+++ b/x.h\n"
        "@@ -10,1 +10,1 @@\n-j\n+J\n"
        "@@ -2,1 +2,1 @@\n-b\n+B\n"
    )
    with pytest.raises(MalformedDiff):
        parse_unified_diff(text)


def test_missing_trailing_newline_marker():
    old = "a\nb"
    new = "a\nc\n"
    diff = make_diff(old, new, "x.h")
    assert "\\ No newline at end of file" in diff
    cand = parse_unified_diff(diff)
    assert apply_patch(repo_of(**{"x.h": old}), cand).unit("x.h").content == new


def test_candidate_id_is_content_hash():
    diff = make_diff("a\n", "b\n", "x.h")
    c1 = parse_unified_diff(diff)
    c2 = parse_unified_diff(diff)
    assert c1.id == c2.id
    c3 = parse_unified_diff(make_diff("a\n", "c\n", "x.h"))
    assert c3.id != c1.id
    rebuilt = candidate_from_files(c1.files)
    assert rebuilt.touched_files == c1.touched_files


def test_touched_old_lines_attribution():
    old = "l1\nl2\nl3\nl4\nl5\nl6\nl7\nl8\nl9\n"
    # modify l2, insert before l6
    new = "l1\nL2\nl3\nl4\nl5\nextra\nl6\nl7\nl8\nl9\n"
    cand = parse_unified_diff(make_diff(old, new, "x.h", context=1))
    touched = touched_old_lines(cand)["x.h"]
    assert 2 in touched
    assert 6 in touched
    assert 9 not in touched


def test_multi_file_candidate_order_preserved():
    files = parse_unified_diff(
        "--- a/b.h\n+++ b/b.h\n@@ -1,1 +1,1 @@\n-x\n+y\n"
        "--- a/a.h\n+++ b/a.h\n@@ -1,1 +1,1 @@\n-p\n+q\n"
    )
    assert files.touched_files == ("b.h", "a.h")
    repo = apply_patch(repo_of(**{"a.h": "p\n", "b.h": "x\n"}), files)
    assert repo.unit("a.h").content == "q\n"
    assert repo.unit("b.h").content == "y\n"
