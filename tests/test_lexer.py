"""The compiled-scanner lexer against the frozen character-loop lexer.

`reflexer.py` is the loop `cppatlas.cxx.lexer` replaced. Both must return
the same tokens (text, kind, line), comment blocks, includes and error
count on the corpus, the fixtures and arbitrary text; the contract cases
pin down the behaviour both share.

One difference is declared: the scanner splices backslash-newlines out of
a directive before reading its ``#include`` target, and the reference
does not, so ``#include \\`` + newline + ``<a.h>`` records ``a.h`` in the
scanner only. On text with a backslash-newline the arbitrary-text tests
therefore leave includes out of the comparison.
"""

import pathlib
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpusgen
import reflexer
from cppatlas.cxx import lexer

DATA = pathlib.Path(__file__).parent / "data"
LEXERS = pytest.mark.parametrize(
    "lex", [lexer.lex, reflexer.lex], ids=["scanner", "reference"]
)


def tokens(result) -> list[tuple[str, str, int]]:
    return [(t.text, t.kind, t.line) for t in result.tokens]


def blocks(result) -> list[tuple[str, int, int]]:
    return [(c.text, c.start_line, c.end_line) for c in result.comments]


def flat(result) -> tuple:
    return tokens(result), blocks(result), result.includes, result.error_count


def assert_same(text: str, spliced_includes_may_differ: bool = False) -> None:
    got, want = flat(lexer.lex(text)), flat(reflexer.lex(text))
    if spliced_includes_may_differ and "\\\n" in text:
        got, want = got[:2] + got[3:], want[:2] + want[3:]
    assert got == want, repr(text)


# --- differential: corpus, fixtures, arbitrary text ---------------------


@pytest.mark.parametrize("first", range(0, 200, 20))
def test_lexers_agree_on_corpusgen(first):
    for seed in range(first, first + 20):
        for content in corpusgen.generate(seed).files.values():
            assert_same(content)


def test_lexers_agree_on_fixtures():
    paths = [p for p in sorted(DATA.rglob("*")) if p.is_file()]
    assert paths
    for path in paths:
        assert_same(path.read_text(encoding="utf-8", errors="replace"))


LEXEMES = [
    "u8", "u", "U", "L", "R", 'R"', 'R"d(', ')d"', 'R"(', ')"', "d",
    "/*", "*/", "//", "/", "*", "#", "##", "#include <", "#include \"",
    "#define X", "include", ">", "\\\n", "\\", "\n", " ", "\t", "\v", "\f",
    "\r", '"', "'", "x", "_a1", "0", "1e+", "0x1p-", "1'0", ".5", ".", "...",
    "->*", "->", "<<=", ">>", "::", "(", ")", "{", "}", ";", "+", "-", "=",
    "@", "$", "`", "é", "\xa0", "\x00", "\x1c", "\x85", "\u2028", "字",
]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.sampled_from(LEXEMES), max_size=40).map("".join))
def test_lexers_agree_on_lexeme_soup(text):
    assert_same(text, spliced_includes_may_differ=True)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_lexers_agree_on_arbitrary_text(text):
    assert_same(text, spliced_includes_may_differ=True)


# --- contract: what both lexers do --------------------------------------


@LEXERS
def test_raw_string_delimiter_of_sixteen_is_one_token(lex):
    delim = "d" * 16
    text = f'R"{delim}(x)"{delim}"){delim}"'
    result = lex(text)
    assert tokens(result) == [(text, "str", 1)]
    assert result.error_count == 0


@LEXERS
def test_raw_string_delimiter_of_seventeen_is_an_error(lex):
    delim = "d" * 17
    result = lex(f'R"{delim}(x)')
    assert result.error_count == 1
    assert tokens(result) == [
        (delim, "id", 1), ("(", "punct", 1), ("x", "id", 1), (")", "punct", 1)
    ]


@LEXERS
def test_raw_string_without_parenthesis_is_an_error_in_mid_line(lex):
    result = lex('R" # x')
    assert result.error_count == 1
    assert tokens(result) == [("#", "punct", 1), ("x", "id", 1)]


@LEXERS
def test_raw_prefix_before_a_char_quote_is_an_identifier(lex):
    result = lex("uR'x'")
    assert tokens(result) == [("uR", "id", 1), ("'x'", "chr", 1)]
    assert result.error_count == 0


@LEXERS
def test_unterminated_string_ends_at_the_newline(lex):
    result = lex('"abc\nint x;')
    assert result.error_count == 1
    assert tokens(result) == [("int", "id", 2), ("x", "id", 2), (";", "punct", 2)]


@LEXERS
def test_backslash_newline_continues_a_string(lex):
    result = lex('"a\\\nb" x')
    assert tokens(result) == [('"a\\\nb"', "str", 1), ("x", "id", 2)]
    assert result.error_count == 0


@LEXERS
def test_backslash_newline_continues_a_directive(lex):
    result = lex("#define X \\\n  1\n#include <a.h> \\\n\nint y;")
    assert tokens(result) == [("int", "id", 5), ("y", "id", 5), (";", "punct", 5)]
    assert result.includes == [(4, "a.h")]


def test_include_after_backslash_newline_is_the_declared_difference():
    text = "#include \\\n<a.h>\nint x;"
    scanner, reference = lexer.lex(text), reflexer.lex(text)
    assert scanner.includes == [(2, "a.h")]
    assert reference.includes == []
    assert tokens(scanner) == tokens(reference) == [
        ("int", "id", 3), ("x", "id", 3), (";", "punct", 3)
    ]
    assert blocks(scanner) == blocks(reference) == []
    assert scanner.error_count == reference.error_count == 0


@pytest.mark.parametrize(
    "text, includes",
    [
        ("#include \\\n<a.h>", [(2, "a.h")]),
        ('#include \\\n  \\\n"b.h"\nint x;', [(3, "b.h")]),
        ("#inc\\\nlude <c>", [(2, "c")]),
        ("# \\\n include <d>", [(2, "d")]),
        ("#include <e\\\n.h>", [(2, "e.h")]),
        ("#include <f.h> \\\n", [(2, "f.h")]),
        ("#include \\\n\n<g.h>", []),
    ],
)
def test_include_targets_across_spliced_lines(text, includes):
    assert lexer.lex(text).includes == includes


@LEXERS
@pytest.mark.parametrize(
    "text, includes",
    [
        ("#include <>", [(1, "")]),
        ("##include <a>", [(1, "a")]),
        ('#  include "b.h"\n#include <c>', [(1, "b.h"), (2, "c")]),
        ("#include_next <a>", []),
    ],
)
def test_include_targets(lex, text, includes):
    assert lex(text).includes == includes


@LEXERS
def test_comment_keeps_the_line_start_for_a_directive(lex):
    result = lex("/* c */ #define X\nint y;")
    assert tokens(result) == [("int", "id", 2), ("y", "id", 2), (";", "punct", 2)]
    assert blocks(result) == [("c", 1, 1)]


@LEXERS
def test_hash_in_mid_line_is_punct(lex):
    result = lex("a ## b # c")
    assert tokens(result) == [
        ("a", "id", 1), ("##", "punct", 1), ("b", "id", 1),
        ("#", "punct", 1), ("c", "id", 1),
    ]


def test_hashes_in_mid_line_take_linear_time():
    # each mid-line "#" must not scan on to the end of its line: with
    # 20,000 of them that took about 100 times the reference lexer's time
    text = "x" + " #" * 20_000 + "\n"
    start = time.perf_counter()
    reflexer.lex(text)
    reference = time.perf_counter() - start
    start = time.perf_counter()
    assert len(lexer.lex(text).tokens) == 20_001
    assert time.perf_counter() - start < 5 * reference + 0.05


@LEXERS
@pytest.mark.parametrize(
    "text, expected",
    [
        ("// a\n//  b \nint x;", [("a\nb", 1, 2)]),
        ("/* a */\n// b", [("a\nb", 1, 2)]),
        ("/* a\n */\n// b", [("a\nb", 1, 3)]),
        ("// a\n\n// b", [("a", 1, 1), ("b", 3, 3)]),
        ("/* a */ // b", [("a", 1, 1), ("b", 1, 1)]),
    ],
)
def test_consecutive_line_comments_merge(lex, text, expected):
    assert blocks(lex(text)) == expected


@LEXERS
def test_unterminated_block_comment_swallows_the_rest(lex):
    result = lex("int a; /* oops\n\nint b;")
    assert result.error_count == 1
    assert tokens(result) == [("int", "id", 1), ("a", "id", 1), (";", "punct", 1)]
    assert result.comments == []


@LEXERS
@pytest.mark.parametrize("stray", ["é", "`"])
def test_stray_character_is_one_error(lex, stray):
    result = lex(f"{stray} #define X\na {stray} b")
    assert result.error_count == 2
    assert tokens(result) == [("a", "id", 2), ("b", "id", 2)]
