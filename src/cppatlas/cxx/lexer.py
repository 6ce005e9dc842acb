"""Tokenizer for the supported C++ subset.

Produces tokens as parallel columns (texts, kinds, lines) plus side tables
for comment blocks and ``#include`` targets; preprocessor lines are consumed
without expansion. The lexer never raises on malformed input: damage
(unterminated literals, stray bytes) is counted and skipped.

``_TOKEN_RE`` is one alternation with a named group per lexeme. Where two
lexemes can start at the same character, the earlier one wins:

1. whitespace, newlines included;
2. a line comment, a block comment, then an unterminated block comment,
   which swallows the rest of the text;
3. a string, raw (``R"d(...)d"``, the delimiter ``d`` at most 16
   characters) or escaped, then a char literal; each may carry a
   ``u8``/``u``/``U``/``L`` prefix;
4. an unterminated or bad literal, which ends at an unescaped newline
   (a raw string's, at the end of the text);
5. an identifier, then a number (a digit, or ``.`` before a digit);
6. punctuation, in ``_PUNCT`` order, so longer operators come first;
7. any other character, counted as an error.

A ``#`` that starts a line (only whitespace, comments and stray
characters before it) begins a preprocessor directive instead, which
``_DIRECTIVE_RE`` reads with its backslash-newline continuations; those
are spliced out before an ``#include`` target is read, and the include is
recorded on the directive's last line. In mid-line, ``#`` and ``##`` are
punct tokens.

Most lines need none of that. A line is *plain* when it holds only ASCII
letters, digits, ``_``, blanks other than ``\\n`` and the one-character
``_PUNCT`` marks other than ``/``, ``#`` and ``\\``, with no ``.`` before a
digit. Where the scanner stands at a line start (only blanks, comments and
stray characters since the last newline), ``_PLAIN_RUN_RE`` takes the run
of plain lines from there in one match, and one ``findall`` per line splits
it by the ``id``, ``num`` and ``punct`` patterns of ``_LEXEMES``. Both paths
give the same tokens: on a plain line the scanner tries those three
patterns in the same order, every lexeme before them needs a character the
line lacks (``/``, a quote or a ``#``), and a blank matches none of the
three, so ``findall`` skips it as ``space`` would. The first character
decides the kind (a letter or ``_``: ``id``; a digit: ``num``; else
``punct``, since a ``.`` that starts a number is not plain). Every other
line is scanned as above.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from operator import itemgetter

CPP_KEYWORDS = frozenset(
    """
    alignas alignof and and_eq asm auto bitand bitor bool break case catch
    char char8_t char16_t char32_t class co_await co_return co_yield compl
    concept const const_cast consteval constexpr constinit continue decltype
    default delete do double dynamic_cast else enum explicit export extern
    false float for friend goto if inline int long mutable namespace new
    noexcept not not_eq nullptr operator or or_eq private protected public
    register reinterpret_cast requires return short signed sizeof static
    static_assert static_cast struct switch template this thread_local throw
    true try typedef typeid typename union unsigned using virtual void
    volatile wchar_t while xor xor_eq
    """.split()
)

# builtin type heads; used to tell declarations from constructor-style calls
TYPE_KEYWORDS = frozenset(
    """
    auto bool char char8_t char16_t char32_t const double float int long
    short signed unsigned void volatile wchar_t
    """.split()
)

_PREFIX = "(?:u8|[uUL])?"
_PUNCT = (
    "<<= >>= ->* ... :: -> << >> <= >= == != && || ++ -- += -= *= /= %= &= "
    "|= ^= .* ## + - * / % & | ^ ~ ! < > = ? : ; , . ( ) [ ] { } \\ @ # $"
).split()
_LEXEMES = {
    "space": r"[ \t\r\f\v\n]+",
    "line_comment": r"//[^\n]*",
    "comment": r"/\*[\s\S]*?\*/",
    "open_comment": r"/\*[\s\S]*",
    "str": _PREFIX
    + r'(?:R"(?P<delim>[^(]{0,16})\([\s\S]*?\)(?P=delim)"'
    r'|"(?:\\[\s\S]|[^\\\n"])*")',
    "chr": _PREFIX + r"'(?:\\[\s\S]|[^\\\n'])*'",
    "bad_literal": _PREFIX
    + r'(?:R"(?:[^(]{0,16}\([\s\S]*)?'
    r"""|["'](?:\\[\s\S]|[^\\\n])*\\?)""",
    "id": r"[A-Za-z_][A-Za-z0-9_]*",
    "num": r"\.?[0-9](?:[A-Za-z0-9_.']|(?<=[eEpP])[+-])*",
    "punct": "|".join(map(re.escape, _PUNCT)),
    "stray": r"[\s\S]",
}
_TOKEN_RE = re.compile("|".join(f"(?P<{k}>{v})" for k, v in _LEXEMES.items()))
# not a group of _TOKEN_RE: a "#" in mid-line must not scan to the end of
# its line, or a line of n "#"s would take time quadratic in n
_DIRECTIVE_RE = re.compile(r"#(?:\\\n|[^\n])*")
_TOKEN_KINDS = frozenset(["id", "num", "punct", "str", "chr"])

# a plain line's characters: "." may not stand before a digit
_PLAIN_PUNCT = {p for p in _PUNCT if len(p) == 1} - set("/#\\")
_PLAIN_CHARS = (
    r"[A-Za-z0-9_ \t\r\f\v"
    + "".join(map(re.escape, sorted(_PLAIN_PUNCT - {"."})))
    + "]*"
)
_PLAIN_LINE = rf"{_PLAIN_CHARS}(?:\.(?![0-9]){_PLAIN_CHARS})*"
# whole plain lines, the last one ended by "\n" or by the end of the text
_PLAIN_RUN_RE = re.compile(
    rf"(?:{_PLAIN_LINE}\n)+(?:{_PLAIN_LINE}\Z)?|{_PLAIN_LINE}\Z"
)
# the lookahead lets a blank fail at once, not at each punct alternative
_PLAIN_LEXEME_RE = re.compile(
    rf"{_LEXEMES['id']}|{_LEXEMES['num']}"
    rf"|(?=[^ \t\r\f\v])(?:{_LEXEMES['punct']})"
)
# a plain token's kind by its first character
_PLAIN_KIND = {
    **dict.fromkeys(string.ascii_letters + "_", "id"),
    **dict.fromkeys(string.digits, "num"),
    **dict.fromkeys(_PLAIN_PUNCT, "punct"),
}


@dataclass(frozen=True)
class CommentBlock:
    text: str
    start_line: int
    end_line: int


@dataclass
class LexResult:
    tokens: list[str] = field(default_factory=list)  # texts
    kinds: list[str] = field(default_factory=list)  # id num str chr punct
    lines: list[int] = field(default_factory=list)  # never decrease
    comments: list[CommentBlock] = field(default_factory=list)
    includes: list[tuple[int, str]] = field(default_factory=list)
    error_count: int = 0


def lex(text: str) -> LexResult:
    out = LexResult()
    line = 1
    at_line_start = True
    pos = 0
    while pos < len(text):
        if at_line_start and (run := _PLAIN_RUN_RE.match(text, pos)):
            line = _lex_plain(run.group(), line, out)
            pos = run.end()
            if pos == len(text):
                break
            # the run ended at a line that is not plain
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        if at_line_start and kind == "punct" and text[pos] == "#":
            m, kind = _DIRECTIVE_RE.match(text, pos), "directive"
        lexeme, pos = m.group(), m.end()
        if kind in _TOKEN_KINDS:
            out.tokens.append(lexeme)
            out.kinds.append(kind)
            out.lines.append(line)
            at_line_start = False
        elif kind == "space":
            if "\n" in lexeme:
                at_line_start = True
        elif kind == "line_comment":
            # consecutive line comments merge into one block
            body = lexeme[2:].strip()
            prev = out.comments[-1] if out.comments else None
            if prev is not None and prev.end_line == line - 1:
                out.comments[-1] = CommentBlock(
                    f"{prev.text}\n{body}", prev.start_line, line
                )
            else:
                out.comments.append(CommentBlock(body, line, line))
        elif kind == "comment":
            end_line = line + lexeme.count("\n")
            out.comments.append(CommentBlock(lexeme[2:-2].strip(), line, end_line))
        elif kind == "directive":
            # lines are spliced before the directive is read
            body = lexeme.replace("\\\n", "").lstrip("#").strip()
            if body.startswith("include"):
                target = body[len("include") :].strip()
                if len(target) >= 2 and target[0] in "<\"":
                    closer = ">" if target[0] == "<" else '"'
                    end = target.find(closer, 1)
                    if end > 0:
                        include_line = line + lexeme.count("\n")
                        out.includes.append((include_line, target[1:end]))
        else:  # open_comment, bad_literal, stray
            out.error_count += 1
            if kind == "bad_literal":
                at_line_start = False
        line += lexeme.count("\n")
    return out


def _lex_plain(run: str, line: int, out: LexResult) -> int:
    """Append the tokens of plain lines from ``line``; return the last line."""
    start = len(out.tokens)
    for n, plain in enumerate(run.split("\n"), line):
        found = _PLAIN_LEXEME_RE.findall(plain)
        out.tokens += found
        out.lines += [n] * len(found)
    out.kinds += map(_PLAIN_KIND.__getitem__, map(itemgetter(0), out.tokens[start:]))
    return line + run.count("\n")
