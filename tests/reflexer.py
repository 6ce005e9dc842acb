"""Frozen copy of the character-loop lexer that `cppatlas.cxx.lexer` replaced.

It is the reference the scanner is compared against in `test_lexer.py`.
Nothing in `src/` imports it; do not edit it to match the scanner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

_MULTI_PUNCT = [
    "<<=",
    ">>=",
    "->*",
    "...",
    "::",
    "->",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    ".*",
    "##",
]

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_STRING_PREFIXES = ("u8", "u", "U", "L")


@dataclass(frozen=True)
class Token:
    text: str
    kind: str  # "id" | "num" | "str" | "chr" | "punct"
    line: int


@dataclass(frozen=True)
class CommentBlock:
    text: str
    start_line: int
    end_line: int


@dataclass
class LexResult:
    tokens: list[Token] = field(default_factory=list)
    comments: list[CommentBlock] = field(default_factory=list)
    includes: list[tuple[int, str]] = field(default_factory=list)
    error_count: int = 0


def lex(text: str) -> LexResult:
    out = LexResult()
    i = 0
    n = len(text)
    line = 1
    at_line_start = True

    def add(tok_text: str, kind: str):
        nonlocal at_line_start
        out.tokens.append(Token(tok_text, kind, line))
        at_line_start = False

    def add_line_comment(body: str, at_line: int):
        # consecutive line comments merge into one block
        if out.comments and out.comments[-1].end_line == at_line - 1:
            prev = out.comments[-1]
            out.comments[-1] = CommentBlock(
                f"{prev.text}\n{body}", prev.start_line, at_line
            )
        else:
            out.comments.append(CommentBlock(body, at_line, at_line))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue

        if c == "#" and at_line_start:
            start = i
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                if text[i] == "\n":
                    break
                i += 1
            directive = text[start:i]
            body = directive.lstrip("#").strip()
            if body.startswith("include"):
                target = body[len("include") :].strip()
                if len(target) >= 2 and target[0] in "<\"":
                    closer = ">" if target[0] == "<" else '"'
                    end = target.find(closer, 1)
                    if end > 0:
                        out.includes.append((line, target[1:end]))
            continue

        if c == "/" and i + 1 < n and text[i + 1] == "/":
            start = i + 2
            while i < n and text[i] != "\n":
                i += 1
            add_line_comment(text[start:i].strip(), line)
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            start_line = line
            j = text.find("*/", i + 2)
            if j < 0:
                out.error_count += 1
                line += text.count("\n", i)
                i = n
                continue
            body = text[i + 2 : j].strip()
            line += text.count("\n", i, j + 2)
            out.comments.append(CommentBlock(body, start_line, line))
            i = j + 2
            continue

        # string / char literals, including encoding prefixes and raw strings
        if c in _IDENT_START or c in "\"'":
            lit = _match_literal(text, i)
            if lit is not None:
                end, kind = lit
                span = text[i:end]
                newlines = span.count("\n")
                if kind == "error":
                    out.error_count += 1
                else:
                    add(span, kind)
                line += newlines
                i = end
                at_line_start = False
                continue

        if c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            add(text[i:j], "id")
            i = j
            continue

        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n:
                ch = text[j]
                if ch in _IDENT_CONT or ch in ".'":
                    j += 1
                elif ch in "+-" and text[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            add(text[i:j], "num")
            i = j
            continue

        matched = False
        for p in _MULTI_PUNCT:
            if text.startswith(p, i):
                add(p, "punct")
                i += len(p)
                matched = True
                break
        if matched:
            continue
        if c in "+-*/%&|^~!<>=?:;,.()[]{}\\@#$":
            add(c, "punct")
            i += 1
            continue

        out.error_count += 1
        i += 1

    return out


def _match_literal(text: str, i: int) -> tuple[int, str] | None:
    """Return (end index, token kind) when ``text[i:]`` starts a string or
    char literal, possibly with an encoding prefix; None otherwise."""
    n = len(text)
    prefix = ""
    for p in _STRING_PREFIXES:
        if text.startswith(p, i):
            prefix = p
            break
    j = i + len(prefix)
    raw = False
    if j < n and text[j] == "R":
        raw = True
        j += 1
    if j >= n or text[j] not in "\"'":
        return None
    quote = text[j]
    if raw and quote == '"':
        # R"delim( ... )delim"
        open_paren = text.find("(", j + 1)
        if open_paren < 0 or open_paren - (j + 1) > 16:
            return j + 1, "error"
        delim = text[j + 1 : open_paren]
        closer = f"){delim}\""
        end = text.find(closer, open_paren + 1)
        if end < 0:
            return n, "error"
        return end + len(closer), "str"
    if raw:
        return None
    k = j + 1
    while k < n:
        ch = text[k]
        if ch == "\\" and k + 1 < n:
            k += 2
            continue
        if ch == quote:
            return k + 1, "str" if quote == '"' else "chr"
        if ch == "\n":
            return k, "error"
        k += 1
    return n, "error"
