"""The compiled-scanner lexer against the frozen character-loop lexer.

`reflexer.py` is the loop `cppatlas.cxx.lexer` replaced. Both must return
the same tokens (text, kind, line), comment blocks, includes and error
count on the corpus, the fixtures and arbitrary text; the contract cases
pin down the behaviour both share. The scanner lexes runs of plain lines
in bulk, so the boundary cases put a plain run next to every lexeme that
takes the token-by-token path.

One difference is declared: the scanner splices backslash-newlines out of
a directive before reading its ``#include`` target, and the reference
does not, so ``#include \\`` + newline + ``<a.h>`` records ``a.h`` in the
scanner only. On text with a backslash-newline the arbitrary-text tests
therefore leave includes out of the comparison.
"""

import pathlib
import re
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


# --- plain runs against the token-by-token path -------------------------


@LEXERS
@pytest.mark.parametrize(
    "text, expected",
    [
        # numbers that a plain line cannot hold
        ("a = .5;\n", "a:1 =:1 .5:1 ;:1"),
        ("int a;\nb = x.5;\n", "int:1 a:1 ;:1 b:2 =:2 x:2 .5:2 ;:2"),
        ("a;\nn = 1'000;\n", "a:1 ;:1 n:2 =:2 1'000:2 ;:2"),
        ("a;\nf = 1e+5 + 0x1p-3;\n", "a:1 ;:1 f:2 =:2 1e+5:2 +:2 0x1p-3:2 ;:2"),
        # literals right after a plain line
        ('a b\nu8"a" c\n', 'a:1 b:1 u8"a":2 c:2'),
        ("a\nL'x' c\n", "a:1 L'x':2 c:2"),
        ('a\nR"(x\ny)" c\nd\n', 'a:1 R"(x\ny)":2 c:3 d:4'),
        # a block comment that closes mid-line before plain text
        ("a\n/* c\n */ int x;\nint y;\n", "a:1 int:3 x:3 ;:3 int:4 y:4 ;:4"),
        # line ends and blanks
        ("int a;\r\nint b;\r\n", "int:1 a:1 ;:1 int:2 b:2 ;:2"),
        ("int\fa;\v\nb", "int:1 a:1 ;:1 b:2"),
        ("a;\nb c", "a:1 ;:1 b:2 c:2"),
        ("a\n \t \nb\n", "a:1 b:3"),
    ],
)
def test_plain_run_next_to_the_scanned_path(lex, text, expected):
    result = lex(text)
    assert [f"{t.text}:{t.line}" for t in result.tokens] == expected.split(" ")
    assert result.error_count == 0


@LEXERS
def test_directive_with_continuation_after_a_plain_run(lex):
    result = lex("int a;\n#include <x.h> \\\n  y\nint b;\n")
    assert tokens(result) == [
        ("int", "id", 1), ("a", "id", 1), (";", "punct", 1),
        ("int", "id", 4), ("b", "id", 4), (";", "punct", 4),
    ]
    assert result.includes == [(3, "x.h")]


@LEXERS
@pytest.mark.parametrize("stray", ["`", "é"])
def test_stray_character_before_a_plain_line(lex, stray):
    result = lex(f"a {stray}b\nc d\n")
    assert result.error_count == 1
    assert tokens(result) == [
        ("a", "id", 1), ("b", "id", 1), ("c", "id", 2), ("d", "id", 2)
    ]


def test_plain_lines_need_no_scanner(monkeypatch):
    # the bulk path alone lexes text of plain lines
    monkeypatch.setattr(lexer, "_TOKEN_RE", None)
    text = "int a = b->c[0x1f] + 1e5;\n\tx... y::z\r\n\n.x, 1.e9 @ $"
    assert tokens(lexer.lex(text)) == tokens(reflexer.lex(text))


PLAIN_PIECES = [
    "int", "x", "_a1", "L", "R", "u8", "0", "42", "0x1f", "1e", "e", ".", "...",
    ".*", "->", "::", ";", ",", "{", "}", "(", ")", "<<=", ">>", "<", ">", "*",
    "&&", "=", "!", "?", ":", "@", "$", " ", "  ", "\t", "\r", "\f", "\v",
]
SPECIAL_LINES = [
    "#include <a.h>", '#include "b.h"', "#define X \\", "  # pragma once",
    "// c", "/* a", "*/ x", "/* a */ y", 'u8"a" b', "L'x'", 'R"(', ')" z',
    '"abc', "'", ".5", "x.5", "1.5", "1'000", "1e+5", "0x1p-3", "`", "é",
    "\\", "a / b", "\x85", " ", "\x00",
]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.one_of(
            st.lists(st.sampled_from(PLAIN_PIECES), max_size=12)
            .map("".join)
            .filter(lambda line: not re.search(r"\.[0-9]", line)),
            st.sampled_from(SPECIAL_LINES),
        ),
        max_size=12,
    ),
    st.sampled_from(["", "\n", "\r\n"]),
)
def test_lexers_agree_on_plain_and_special_lines(lines, last):
    assert_same("\n".join(lines) + last, spliced_includes_may_differ=True)


def test_token_is_a_positional_triple():
    token = lexer.Token("x", "id", 3)
    assert (token.text, token.kind, token.line) == ("x", "id", 3)
    assert token == lexer.Token(text="x", kind="id", line=3)
    result = lexer.lex("a\nb")
    assert type(result.tokens) is list
    assert result.tokens == [lexer.Token("a", "id", 1), lexer.Token("b", "id", 2)]
    assert all(type(t) is lexer.Token for t in result.tokens)
