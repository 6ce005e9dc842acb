"""Frozen copy of the declaration parser that `cppatlas.cxx.parser` replaced.

It is the reference the parser is compared against in `test_parser.py`.
Nothing in `src/` imports it; do not edit it to match the parser. It reads
the live lexer's token columns as `Token` rows through `tokenrows.py`.

The original module docstring follows.

Single-unit declaration parser for the supported C++ subset.

Covered constructs: namespaces (nested, anonymous), class/struct/enum
definitions, forward declarations, free and member functions, constructors
and destructors, inheritance lists, template class/function declarations,
namespace- and class-scope variables, and call expressions inside function
bodies. No macro expansion and no build environment: parsing is a
deterministic function of the unit text.

The parser is error recovering. Unrecognized regions are skipped to the next
statement or brace boundary and counted in ``ParsedUnit.error_count``;
partial symbols are still emitted. Out-of-line qualified definitions
(``void Search::run() { ... }``) are indexed under their qualified name with
kind ``member_function``; lexical containment still points at the enclosing
file or namespace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from cppatlas.model import Location, SymbolKind, SymbolRecord
from cppatlas.repo import SourceUnit
from cppatlas.cxx.lexer import CPP_KEYWORDS, TYPE_KEYWORDS, CommentBlock
from tokenrows import Token, lex

log = logging.getLogger(__name__)

_LEADING_SPECIFIERS = frozenset(
    """
    inline static virtual explicit constexpr consteval constinit extern
    mutable thread_local register typename friend export
    """.split()
)

_CLASS_KEYS = ("class", "struct")


@dataclass(frozen=True)
class PendingCall:
    """Call expression awaiting cross-unit resolution."""

    caller: int  # unit-local symbol id
    callee_text: str  # possibly qualified, e.g. "util::run"
    ctor_style: bool
    line: int


@dataclass(frozen=True)
class PendingBase:
    """Base-class specifier awaiting cross-unit resolution."""

    derived: int  # unit-local symbol id
    base_text: str  # qualified name with template arguments stripped


@dataclass
class ParsedUnit:
    """Parse result for one unit; symbol ids are local (0 = file root)."""

    path: str
    symbols: list[SymbolRecord] = field(default_factory=list)
    contains: list[tuple[int, int]] = field(default_factory=list)
    pending_bases: list[PendingBase] = field(default_factory=list)
    pending_calls: list[PendingCall] = field(default_factory=list)
    includes: list[str] = field(default_factory=list)
    error_count: int = 0


@dataclass
class _Scope:
    local_id: int
    prefix: str  # qualified prefix, "" at file level
    is_class: bool = False
    class_name: str = ""

    def qualify(self, name: str) -> str:
        return f"{self.prefix}::{name}" if self.prefix else name


def parse_unit(unit: SourceUnit) -> ParsedUnit:
    """Parse one header or source unit into symbols, containment edges and
    pending references. Pure: no global state, identical output for
    identical input."""
    if unit.kind not in ("header", "source"):
        raise ValueError(f"cannot parse unit of kind {unit.kind!r}")
    lexed = lex(unit.content)
    line_count = max(1, len(unit.content.splitlines()))
    parser = _Parser(unit.path, lexed.tokens, lexed.comments, line_count)
    parser.result.includes = [target for _, target in lexed.includes]
    parser.result.error_count += lexed.error_count
    parser.parse()
    return parser.result


class _Parser:
    def __init__(
        self,
        path: str,
        tokens: list[Token],
        comments: list[CommentBlock],
        line_count: int,
    ):
        self.path = path
        self.toks = tokens
        self.n = len(tokens)
        self.i = 0
        self.result = ParsedUnit(path=path)
        self.comment_by_end = {c.end_line: c for c in comments}
        root = SymbolRecord(
            symbol_id=0,
            kind=SymbolKind.FILE,
            name=path,
            qualified_name=path,
            location=Location(path, 1, line_count),
        )
        self.result.symbols.append(root)

    # ------------------------------------------------------------------
    # token helpers

    def peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.toks[j] if j < self.n else None

    def text(self, k: int = 0) -> str:
        t = self.peek(k)
        return t.text if t else ""

    def line(self) -> int:
        t = self.peek()
        if t:
            return t.line
        return self.toks[-1].line if self.toks else 1

    def next(self) -> Token | None:
        t = self.peek()
        if t:
            self.i += 1
        return t

    def accept(self, text: str) -> bool:
        if self.text() == text:
            self.i += 1
            return True
        return False

    def skip_statement(self):
        """Advance past the next top-level ';', balancing all bracket kinds;
        a '{...}' block along the way is consumed wholly."""
        depth = 0
        while self.i < self.n:
            t = self.next()
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                if depth == 0 and t.text == "}":
                    self.i -= 1
                    return
                depth = max(0, depth - 1)
            elif t.text == ";" and depth == 0:
                return

    def skip_balanced(self, open_text: str, close_text: str):
        """Consume from the current opening token through its matching
        closer."""
        if self.text() != open_text:
            return
        depth = 0
        while self.i < self.n:
            t = self.next()
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
                if depth == 0:
                    return

    # ------------------------------------------------------------------
    # symbol construction

    def add_symbol(
        self,
        scope: _Scope,
        kind: SymbolKind,
        name: str,
        start_line: int,
        *,
        qualified: str | None = None,
        signature: str = "",
        is_definition: bool = True,
        template_params: str = "",
        is_virtual: bool = False,
        has_override: bool = False,
    ) -> int:
        local_id = len(self.result.symbols)
        doc = self.comment_by_end.get(start_line - 1)
        record = SymbolRecord(
            symbol_id=local_id,
            kind=kind,
            name=name,
            qualified_name=qualified if qualified is not None else scope.qualify(name),
            signature=signature,
            location=Location(self.path, start_line, start_line),
            is_definition=is_definition,
            template_params=template_params,
            doc_comment=doc.text if doc else "",
            is_virtual=is_virtual,
            has_override=has_override,
        )
        self.result.symbols.append(record)
        self.result.contains.append((scope.local_id, local_id))
        return local_id

    def set_end_line(self, local_id: int, end_line: int):
        sym = self.result.symbols[local_id]
        self.result.symbols[local_id] = sym._replace(location=Location(
            sym.location.file,
            sym.location.start_line,
            max(sym.location.start_line, end_line),
        ))

    def note_error(self):
        self.result.error_count += 1

    # ------------------------------------------------------------------
    # grammar

    def parse(self):
        root_scope = _Scope(local_id=0, prefix="")
        self.parse_scope(root_scope, bounded=False)

    def parse_scope(self, scope: _Scope, bounded: bool) -> int:
        """Parse declarations until EOF or, when bounded, the matching '}'.
        Returns the line of the closing brace (or last line seen)."""
        last_line = self.line()
        while self.i < self.n:
            t = self.peek()
            last_line = t.line
            tx = t.text
            if tx == "}":
                if bounded:
                    self.next()
                    return t.line
                self.note_error()
                self.next()
                continue
            if tx == ";":
                self.next()
                continue
            if tx in ("public", "private", "protected") and self.text(1) == ":":
                self.i += 2
                continue
            if tx == "[" and self.text(1) == "[":
                self._skip_attributes()
                continue
            if tx == "namespace":
                self.parse_namespace(scope)
                continue
            if tx == "template":
                self.parse_templated(scope)
                continue
            if tx in _CLASS_KEYS:
                self.parse_class(scope, template_params="")
                continue
            if tx == "enum":
                self.parse_enum(scope)
                continue
            if tx == "union":
                # treated like a struct definition without member analysis
                self.next()
                if self.peek() and self.peek().kind == "id":
                    self.next()
                if self.text() == "{":
                    self.skip_balanced("{", "}")
                self.skip_statement()
                continue
            if tx in ("using", "typedef", "static_assert", "asm", "goto"):
                self.skip_statement()
                continue
            if tx == "friend":
                self._skip_friend()
                continue
            if tx == "extern" and self.peek(1) and self.peek(1).kind == "str":
                self.i += 2
                if self.text() == "{":
                    self.next()
                    self.parse_scope(scope, bounded=True)
                continue
            self.parse_declaration(scope, template_params="")
        if bounded:
            self.note_error()
        return last_line

    def _skip_attributes(self):
        # [[...]] appears as two '[' tokens
        while self.text() == "[" and self.text(1) == "[":
            self.next()
            self.skip_balanced("[", "]")
            self.accept("]")

    def _skip_friend(self):
        depth = 0
        while self.i < self.n:
            t = self.next()
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
                if depth == 0 and t.text == "}":
                    self.accept(";")
                    return
            elif t.text == ";" and depth <= 0:
                return

    def parse_namespace(self, scope: _Scope):
        start_line = self.line()
        self.next()  # 'namespace'
        names: list[str] = []
        while self.peek() and self.peek().kind == "id":
            names.append(self.next().text)
            if not self.accept("::"):
                break
        if self.text() == "=":
            self.skip_statement()  # namespace alias
            return
        if self.text() != "{":
            self.note_error()
            self.skip_statement()
            return
        self.next()  # '{'
        if not names:
            names = [f"(anon@{self.path})"]
        created: list[int] = []
        current = scope
        for nm in names:
            local = self.add_symbol(current, SymbolKind.NAMESPACE, nm, start_line)
            created.append(local)
            current = _Scope(local_id=local, prefix=current.qualify(nm))
        end_line = self.parse_scope(current, bounded=True)
        for local in created:
            self.set_end_line(local, end_line)

    def parse_templated(self, scope: _Scope):
        start_line = self.line()
        self.next()  # 'template'
        params = self._capture_template_params()
        tx = self.text()
        if tx in _CLASS_KEYS:
            self.parse_class(scope, template_params=params, start_line=start_line)
        elif tx in ("using", "friend", "typedef"):
            self.skip_statement()
        elif tx == "template":
            # template template parameters are outside the subset
            self.note_error()
            self.skip_statement()
        else:
            self.parse_declaration(
                scope, template_params=params, start_line=start_line
            )

    def _capture_template_params(self) -> str:
        if self.text() != "<":
            return ""
        toks: list[str] = []
        depth = 0
        while self.i < self.n:
            t = self.next()
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            if depth > 0 and not (depth == 1 and t.text == "<"):
                toks.append(t.text)
        return "<" + render_tokens(toks) + ">"

    def parse_class(
        self, scope: _Scope, template_params: str, start_line: int | None = None
    ):
        if start_line is None:
            start_line = self.line()
        keyword = self.next().text  # 'class' | 'struct'
        self._skip_attributes()
        if self.text() == "alignas":
            self.next()
            self.skip_balanced("(", ")")
        names: list[str] = []
        while self.peek() and self.peek().kind == "id" and self.text() not in (
            "final",
        ):
            names.append(self.next().text)
            if not self.accept("::"):
                break
        if not names:
            # anonymous struct or parse damage
            self.note_error()
            if self.text() == "{":
                self.skip_balanced("{", "}")
            self.skip_statement()
            return
        self.accept("final")
        name = names[-1]
        qualified = scope.qualify("::".join(names))
        if self.text() == ";":
            self.next()
            self.add_symbol(
                scope,
                SymbolKind.FORWARD_DECLARATION,
                name,
                start_line,
                qualified=qualified,
                is_definition=False,
                template_params=template_params,
            )
            return
        bases: list[str] = []
        if self.accept(":"):
            bases = self._parse_base_list()
        if self.text() != "{":
            # elaborated type in a declaration, e.g. "class X x;"
            self.skip_statement()
            return
        self.next()  # '{'
        if template_params:
            kind = SymbolKind.TEMPLATE_CLASS
        elif keyword == "struct":
            kind = SymbolKind.STRUCT
        else:
            kind = SymbolKind.CLASS
        local = self.add_symbol(
            scope,
            kind,
            name,
            start_line,
            qualified=qualified,
            template_params=template_params,
        )
        for base in bases:
            self.result.pending_bases.append(PendingBase(local, base))
        inner = _Scope(
            local_id=local, prefix=qualified, is_class=True, class_name=name
        )
        end_line = self.parse_scope(inner, bounded=True)
        self.set_end_line(local, end_line)
        self.skip_statement()  # trailing declarators are not indexed

    def _parse_base_list(self) -> list[str]:
        bases: list[str] = []
        while self.i < self.n and self.text() != "{":
            while self.text() in ("public", "protected", "private", "virtual"):
                self.next()
            segs: list[str] = []
            while self.peek() and self.peek().kind == "id":
                segs.append(self.next().text)
                if self.text() == "<":
                    self.skip_balanced("<", ">")
                if not self.accept("::"):
                    break
            if segs:
                bases.append("::".join(segs))
            if not self.accept(","):
                break
        return bases

    def parse_enum(self, scope: _Scope):
        start_line = self.line()
        self.next()  # 'enum'
        if self.text() in _CLASS_KEYS:
            self.next()
        name = ""
        if self.peek() and self.peek().kind == "id":
            name = self.next().text
        if self.accept(":"):
            while self.i < self.n and self.text() not in ("{", ";"):
                self.next()
        if self.text() == "{":
            open_line = self.line()
            self.skip_balanced("{", "}")
            end_line = self.toks[self.i - 1].line if self.i else open_line
            if name:
                local = self.add_symbol(scope, SymbolKind.ENUM, name, start_line)
                self.set_end_line(local, end_line)
            self.accept(";")
        elif self.text() == ";":
            self.next()
            if name:
                self.add_symbol(
                    scope, SymbolKind.ENUM, name, start_line, is_definition=False
                )
        else:
            self.note_error()
            self.skip_statement()

    # ------------------------------------------------------------------
    # general declarations: functions, constructors, variables

    def parse_declaration(
        self, scope: _Scope, template_params: str, start_line: int | None = None
    ):
        if start_line is None:
            start_line = self.line()
        is_virtual = False
        while True:
            tx = self.text()
            if tx in _LEADING_SPECIFIERS:
                if tx == "virtual":
                    is_virtual = True
                self.next()
                continue
            if tx == "[" and self.text(1) == "[":
                self._skip_attributes()
                continue
            if tx == "alignas" and self.text(1) == "(":
                self.next()
                self.skip_balanced("(", ")")
                continue
            break

        buf: list[Token] = []
        while self.i < self.n:
            t = self.peek()
            tx = t.text
            if tx == "(":
                chain = _trailing_chain(buf)
                if not chain:
                    self.note_error()
                    self.skip_statement()
                    return
                self._parse_function(
                    scope, buf, chain, template_params, is_virtual, start_line
                )
                return
            if tx == ";":
                self.next()
                self._emit_variables(scope, buf, start_line)
                return
            if tx == "=":
                self._emit_variables(scope, buf, start_line)
                self.skip_statement()
                return
            if tx == "{":
                if _trailing_chain(buf):
                    self._emit_variables(scope, buf, start_line)
                else:
                    self.note_error()
                self.skip_balanced("{", "}")
                self.accept(";")
                return
            if tx == "<" and buf and buf[-1].kind == "id":
                self._capture_angles_into(buf)
                continue
            if tx == "operator":
                buf.append(self._collect_operator_name())
                continue
            if tx in ("}", "class", "struct", "enum", "namespace", "template"):
                self.note_error()
                if tx == "}":
                    return
                self.skip_statement()
                return
            buf.append(self.next())

    def _collect_operator_name(self) -> Token:
        start = self.next()  # 'operator'
        name = "operator"
        if self.text() == "(" and self.text(1) == ")":
            self.i += 2
            name += "()"
        elif self.text() == "[" and self.text(1) == "]":
            self.i += 2
            name += "[]"
        else:
            while self.i < self.n and self.text() not in ("(", ";", "{"):
                name += self.next().text
        return Token(name, "id", start.line)

    def _capture_angles_into(self, buf: list[Token]):
        depth = 0
        while self.i < self.n:
            t = self.next()
            buf.append(t)
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return
            elif t.text in (";", "{"):
                # runaway: this was a comparison, not template arguments
                self.i -= 1
                buf.pop()
                return

    def _parse_function(
        self,
        scope: _Scope,
        buf: list[Token],
        chain: list[str],
        template_params: str,
        is_virtual: bool,
        start_line: int,
    ):
        name = chain[-1]
        chain_len = _chain_token_length(chain)
        ret_tokens = buf[: len(buf) - chain_len]
        is_ctor = False
        if scope.is_class and not ret_tokens and name == scope.class_name:
            is_ctor = True
        elif len(chain) >= 2 and not ret_tokens and chain[-1] == chain[-2]:
            is_ctor = True  # out-of-line constructor definition

        if (
            ret_tokens
            and len(chain) == 1
            and self.peek(1)
            and self.peek(1).kind in ("str", "num", "chr")
        ):
            # vexing-parse disambiguation: literal arguments cannot name
            # types, so this is a variable with constructor arguments
            self._emit_variables(scope, buf, start_line)
            self.skip_statement()
            return

        self.next()  # '('
        params = self._capture_param_tokens()
        signature = normalize_signature(params)

        has_override = False
        is_definition = False
        body_end = start_line
        while self.i < self.n:
            tx = self.text()
            if tx in ("const", "volatile", "final", "&", "&&"):
                self.next()
                continue
            if tx == "override":
                has_override = True
                self.next()
                continue
            if tx in ("noexcept", "throw"):
                self.next()
                if self.text() == "(":
                    self.skip_balanced("(", ")")
                continue
            if tx == "->":
                self.next()
                while self.i < self.n and self.text() not in ("{", ";", "="):
                    if self.text() == "<":
                        self.skip_balanced("<", ">")
                    else:
                        self.next()
                continue
            if tx == "requires":
                self.next()
                while self.i < self.n and self.text() not in ("{", ";"):
                    if self.text() == "(":
                        self.skip_balanced("(", ")")
                    else:
                        self.next()
                continue
            if tx == "=":
                nxt = self.text(1)
                self.next()
                if nxt in ("default", "delete"):
                    self.next()
                    is_definition = True
                elif nxt == "0":
                    self.next()
                    is_definition = False
                self.accept(";")
                break
            if tx == ":":
                self.next()
                self._skip_ctor_initializers()
                continue
            if tx == "{":
                is_definition = True
                break
            if tx == ";":
                self.next()
                break
            self.note_error()
            self.skip_statement()
            break

        if template_params:
            kind = SymbolKind.TEMPLATE_FUNCTION
        elif is_ctor:
            kind = SymbolKind.CONSTRUCTOR
        elif scope.is_class or len(chain) >= 2:
            kind = SymbolKind.MEMBER_FUNCTION
        else:
            kind = SymbolKind.FREE_FUNCTION
        qualified = scope.qualify("::".join(chain))
        local = self.add_symbol(
            scope,
            kind,
            name,
            start_line,
            qualified=qualified,
            signature=signature,
            is_definition=is_definition,
            template_params=template_params,
            is_virtual=is_virtual,
            has_override=has_override,
        )
        if self.text() == "{":
            self.next()
            body_end = self._scan_body(local)
        self.set_end_line(local, body_end)

    def _capture_param_tokens(self) -> list[Token]:
        toks: list[Token] = []
        depth = 1
        while self.i < self.n:
            t = self.next()
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return toks
            toks.append(t)
        self.note_error()
        return toks

    def _skip_ctor_initializers(self):
        """Consume a constructor initializer list up to (not including) the
        body brace. Initializer parens and braces nest."""
        while self.i < self.n:
            tx = self.text()
            if tx == "{":
                # brace either starts the body or an init list entry; an
                # entry brace always follows an identifier or '>'
                prev = self.toks[self.i - 1].text if self.i else ""
                if prev in (")", "}", ":") or prev == ",":
                    return
                if self.toks[self.i - 1].kind in ("id",) or prev == ">":
                    self.skip_balanced("{", "}")
                    continue
                return
            if tx == "(":
                self.skip_balanced("(", ")")
                continue
            if tx in (";",):
                return
            self.next()

    def _emit_variables(self, scope: _Scope, buf: list[Token], start_line: int):
        if len(buf) < 2:
            return
        groups = _split_top_level(buf, ",")
        first = True
        for group in groups:
            chain = _trailing_chain(group)
            if not chain or len(chain) != 1:
                first = False
                continue
            name = chain[0]
            if name in CPP_KEYWORDS or name.startswith("~"):
                first = False
                continue
            if first and len(group) < 2:
                first = False
                continue
            self.add_symbol(
                scope,
                SymbolKind.VARIABLE,
                name,
                start_line,
                qualified=scope.qualify(name),
            )
            first = False

    # ------------------------------------------------------------------
    # body scanning: call extraction

    def _scan_body(self, caller_local: int) -> int:
        """Scan an already-opened function body, recording call expressions.
        Returns the line of the closing brace."""
        depth = 1
        prev_text = "{"
        last_line = self.toks[self.i - 1].line if self.i else 1
        while self.i < self.n:
            t = self.next()
            last_line = t.line
            tx = t.text
            if tx == "{":
                depth += 1
                prev_text = tx
                continue
            if tx == "}":
                depth -= 1
                if depth == 0:
                    return t.line
                prev_text = tx
                continue
            # keywords that look like calls before "(" are not callees
            if t.kind == "id" and tx not in CPP_KEYWORDS:
                after_member = prev_text in (".", "->")
                chain = [tx]
                while self.text() == "::" and self.peek(1) and self.peek(1).kind == "id":
                    self.next()
                    nxt = self.next()
                    chain.append(nxt.text)
                    last_line = nxt.line
                callee = "::".join(chain)
                follow = self.text()
                if follow == "(":
                    if prev_text == "new":
                        self._record_call(caller_local, callee, True, t.line)
                    elif after_member:
                        self._record_call(caller_local, chain[-1], False, t.line)
                    else:
                        self._record_call(caller_local, callee, False, t.line)
                elif (
                    not after_member
                    and chain[0] not in TYPE_KEYWORDS
                    and self.peek()
                    and self.peek().kind == "id"
                    and self.text(1) in ("(", "{")
                    and self.text(2) != ")"  # skip empty-arg decls like T x()
                ):
                    # constructor-style declaration: Type var(args)
                    var_tok = self.next()
                    self._record_call(caller_local, callee, True, t.line)
                    last_line = var_tok.line
                prev_text = chain[-1]
                continue
            prev_text = tx
        self.note_error()
        return last_line

    def _record_call(self, caller: int, callee: str, ctor_style: bool, line: int):
        self.result.pending_calls.append(
            PendingCall(caller, callee, ctor_style, line)
        )


# ----------------------------------------------------------------------
# token utilities shared with signature normalization


def _trailing_chain(buf: list[Token]) -> list[str]:
    """Longest trailing qualified-name chain in ``buf``; the last segment may
    carry a '~' destructor mark. Keywords never form a chain."""
    j = len(buf) - 1
    if j < 0 or buf[j].kind != "id" or buf[j].text in CPP_KEYWORDS:
        return []
    seg = buf[j].text
    j -= 1
    if j >= 0 and buf[j].text == "~":
        seg = "~" + seg
        j -= 1
    chain = [seg]
    while (
        j >= 1
        and buf[j].text == "::"
        and buf[j - 1].kind == "id"
        and buf[j - 1].text not in CPP_KEYWORDS
    ):
        chain.insert(0, buf[j - 1].text)
        j -= 2
    return chain


def _chain_token_length(chain: list[str]) -> int:
    length = 2 * len(chain) - 1
    if chain and chain[-1].startswith("~"):
        length += 1
    return length


def _split_top_level(buf: list[Token], sep: str) -> list[list[Token]]:
    groups: list[list[Token]] = [[]]
    depth = 0
    for t in buf:
        if t.text in "([{<":
            depth += 1
        elif t.text in ")]}>":
            depth = max(0, depth - 1)
        elif t.text == sep and depth == 0:
            groups.append([])
            continue
        groups[-1].append(t)
    return groups


def render_tokens(texts: list[str]) -> str:
    """Canonical single-space rendering with no space around '::'."""
    out: list[str] = []
    for tx in texts:
        if tx == "::":
            out.append(tx)
            continue
        if out and out[-1] != "::" and not out[-1].endswith("::"):
            out.append(" " + tx)
        else:
            out.append(tx)
    return "".join(out).replace(":: ", "::").strip()


# qualifiers and elaborated-type keywords: in "const Widget" or
# "struct Foo" the identifier is the type of an unnamed parameter
_TYPE_PREFIXES = frozenset("const volatile struct class enum union typename".split())


def _is_parameter_name(texts: list[str], at: int) -> bool:
    """Whether the identifier at ``at`` can name its parameter: some type
    token, not only qualifiers or elaborated-type keywords, precedes it."""
    return any(tx not in _TYPE_PREFIXES for tx in texts[:at])


def normalize_signature(param_tokens: list[Token]) -> str:
    """Normalize a parameter list: whitespace collapsed, parameter names and
    default arguments removed, const qualifiers kept, '(void)' folded to
    '()'."""
    groups = _split_top_level(param_tokens, ",")
    rendered: list[str] = []
    for group in groups:
        eq_split = _split_top_level(group, "=")
        toks = eq_split[0]
        if not toks:
            continue
        texts = [t.text for t in toks]
        kinds = [t.kind for t in toks]
        bracket = next((k for k, tx in enumerate(texts) if tx == "["), None)
        if bracket is not None and bracket > 0 and kinds[bracket - 1] == "id":
            if texts[bracket - 1] not in TYPE_KEYWORDS and (
                bracket < 2 or texts[bracket - 2] != "::"
            ):
                if _is_parameter_name(texts, bracket - 1):
                    del texts[bracket - 1]
                    del kinds[bracket - 1]
        elif (
            len(texts) > 1
            and kinds[-1] == "id"
            and texts[-1] not in TYPE_KEYWORDS
            and texts[-2] != "::"
            and texts[-1] != "..."
            and _is_parameter_name(texts, len(texts) - 1)
        ):
            texts = texts[:-1]
        rendered.append(render_tokens(texts))
    if rendered == ["void"]:
        rendered = []
    return "(" + ", ".join(r for r in rendered if r) + ")"
