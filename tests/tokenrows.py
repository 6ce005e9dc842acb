"""The lexer's token columns as one row per token, for the frozen parser.

`cppatlas.cxx.lexer` returns parallel columns (texts, kinds, lines);
`refparser.py` reads `Token` rows with ``text``, ``kind`` and ``line``
attributes. `lex` here zips the columns back into such rows, so the frozen
parsing code reads exactly the tokens the live lexer gives.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from cppatlas.cxx import lexer


class Token(NamedTuple):
    text: str
    kind: str
    line: int


def rows(texts: list[str], kinds: list[str], lines: list[int] | None = None
         ) -> list[Token]:
    """One `Token` per column entry; without ``lines`` every line is 0."""
    lines = [0] * len(texts) if lines is None else lines
    return list(map(Token._make, zip(texts, kinds, lines, strict=True)))


def lex(text: str) -> lexer.LexResult:
    """`lexer.lex` with `Token` rows in ``tokens``."""
    out = lexer.lex(text)
    return dataclasses.replace(out, tokens=rows(out.tokens, out.kinds, out.lines))
