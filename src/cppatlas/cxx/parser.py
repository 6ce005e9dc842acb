"""Single-unit declaration parser for the supported C++ subset.

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

Four reading rules hold for every unit:

- ``>>`` is read as two ``>`` tokens, wherever it occurs. In a template
  argument list C++11 closes two levels with it (N1757), and nothing the
  parser records reads it as a shift. A signature or template parameter
  list therefore renders it as ``> >``, the same as the spelling with a
  space.
- The file record ends at the unit's last line, counted the way the lexer
  counts lines: one per ``\\n``, plus one for text after the last ``\\n``.
  Other characters that ``str.splitlines`` breaks at (``\\f``, ``\\v``,
  ``\\x85``, ``\\u2028``, a lone ``\\r``, ...) do not end a line.
- A variable's initializer does not end its declaration: ``int a = 1,
  *b;`` records ``b`` as well.
- After a top-level ``=`` in a parameter, ``<`` and ``>`` are comparisons,
  so ``void f(int x = a < b, int y)`` has signature ``(int, int)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model import Location, SymbolKind, SymbolRecord
from ..repo import SourceUnit
from .lexer import CPP_KEYWORDS, TYPE_KEYWORDS, CommentBlock, Token, lex

_LEADING_SPECIFIERS = frozenset(
    """
    inline static virtual explicit constexpr consteval constinit extern
    mutable thread_local register typename friend export
    """.split()
)

_CLASS_KEYS = ("class", "struct")

_CLOSERS = {"(": ")", "[": "]", "{": "}", "<": ">"}

# what may stand before the name of a declarator after the first, and the
# tokens that end its part
_DECLARATOR_MARKS = frozenset(("*", "&", "&&", "const", "volatile"))
_DECLARATOR_ENDS = frozenset(("(", "[", "{", ")", "]", "}", ",", ";", "="))


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
    text = unit.content
    lexed = lex(text)
    tokens = _split_shifts(lexed.tokens) if ">>" in text else lexed.tokens
    line_count = text.count("\n") + (0 if text.endswith("\n") else 1)
    root = SymbolRecord(
        symbol_id=0,
        kind=SymbolKind.FILE,
        name=unit.path,
        qualified_name=unit.path,
        location=Location(unit.path, 1, line_count),
    )
    result = ParsedUnit(
        path=unit.path,
        symbols=[root],
        includes=[target for _, target in lexed.includes],
        error_count=lexed.error_count,
    )
    parser = _Parser(result, tokens, lexed.comments)
    parser.parse_scope(_Scope(local_id=0, prefix=""), bounded=False)
    return result


class _Parser:
    def __init__(
        self, result: ParsedUnit, tokens: list[Token], comments: list[CommentBlock]
    ):
        self.result = result
        self.path = result.path
        self.toks = tokens
        self.n = len(tokens)
        self.i = 0
        self.comment_by_end = {c.end_line: c for c in comments}

    # ------------------------------------------------------------------
    # token helpers

    def text(self, k: int = 0) -> str:
        j = self.i + k
        return self.toks[j].text if j < self.n else ""

    def kind(self, k: int = 0) -> str:
        j = self.i + k
        return self.toks[j].kind if j < self.n else ""

    def next(self) -> Token | None:
        if self.i >= self.n:
            return None
        self.i += 1
        return self.toks[self.i - 1]

    def accept(self, text: str) -> bool:
        if self.text() == text:
            self.i += 1
            return True
        return False

    def skip_statement(self, ends: tuple[str, ...] = (";",)) -> str:
        """Advance past the next top-level token of ``ends`` and return it,
        balancing all bracket kinds; a '{...}' block along the way is
        consumed wholly. Returns '' at the end of input or before an
        unmatched '}'."""
        depth = 0
        while self.i < self.n:
            t = self.next()
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                if depth == 0 and t.text == "}":
                    self.i -= 1
                    return ""
                depth = max(0, depth - 1)
            elif t.text in ends and depth == 0:
                return t.text
        return ""

    def group(self, stop: tuple[str, ...] = ()) -> tuple[list[Token], bool]:
        """Consume the bracketed group that opens at the cursor and return
        its tokens, brackets included, and whether its closer was reached.
        Only the opener's own kind nests, so '<' pairs with '>' alone (a
        ``>>`` arrives as two). The walk ends unclosed at the end of input
        or before a ``stop`` token."""
        toks = self.toks
        open_text = toks[self.i].text
        close_text = _CLOSERS[open_text]
        start = j = self.i
        depth = 0
        while j < self.n:
            tx = toks[j].text
            if tx == open_text:
                depth += 1
            elif tx == close_text:
                depth -= 1
                if depth == 0:
                    self.i = j + 1
                    return toks[start : j + 1], True
            elif tx in stop:
                break
            j += 1
        self.i = j
        return toks[start:j], False

    def qualified_name(self, angles: bool = False, ends: str = "") -> list[str]:
        """Read ``id (:: id)*`` at the cursor and return its identifiers; a
        '::' after the last one is consumed too. The name stops before the
        identifier ``ends``. With ``angles``, a template argument list
        after an identifier is skipped."""
        names: list[str] = []
        while self.kind() == "id" and self.text() != ends:
            names.append(self.next().text)
            if angles and self.text() == "<":
                self.group()
            if not self.accept("::"):
                break
        return names

    def skip_to(self, stops: tuple[str, ...], opener: str = ""):
        """Advance to the next ``stops`` token, consuming each group that
        ``opener`` starts whole."""
        while self.i < self.n and self.text() not in stops:
            if self.text() == opener:
                self.group()
            else:
                self.i += 1

    # ------------------------------------------------------------------
    # symbol construction

    def add_symbol(
        self, scope: _Scope, kind: SymbolKind, chain: list[str], start_line: int,
        **fields,
    ) -> int:
        """Record the symbol that ``chain``, qualified in ``scope``, names;
        ``fields`` are further ``SymbolRecord`` fields."""
        local_id = len(self.result.symbols)
        doc = self.comment_by_end.get(start_line - 1)
        record = SymbolRecord(
            symbol_id=local_id,
            kind=kind,
            name=chain[-1],
            qualified_name=scope.qualify("::".join(chain)),
            location=Location(self.path, start_line, start_line),
            doc_comment=doc.text if doc else "",
            **fields,
        )
        self.result.symbols.append(record)
        self.result.contains.append((scope.local_id, local_id))
        return local_id

    def set_end_line(self, local_id: int, end_line: int):
        sym = self.result.symbols[local_id]
        sym.location = Location(
            sym.location.file,
            sym.location.start_line,
            max(sym.location.start_line, end_line),
        )

    def note_error(self):
        self.result.error_count += 1

    # ------------------------------------------------------------------
    # grammar

    def parse_scope(self, scope: _Scope, bounded: bool) -> int:
        """Parse declarations until EOF or, when bounded, the matching '}'.
        Returns the line of the closing brace (or last line seen)."""
        last_line = self.toks[-1].line if self.n else 1
        while self.i < self.n:
            t = self.toks[self.i]
            last_line = t.line
            tx = t.text
            if tx == "}":
                self.next()
                if bounded:
                    return t.line
                self.note_error()
            elif tx == ";":
                self.next()
            elif tx in ("public", "private", "protected") and self.text(1) == ":":
                self.i += 2
            elif tx == "[" and self.text(1) == "[":
                self._skip_attributes()
            elif tx == "namespace":
                self.parse_namespace(scope, t.line)
            elif tx == "template":
                self.parse_templated(scope, t.line)
            elif tx in _CLASS_KEYS:
                self.parse_class(scope, "", t.line)
            elif tx == "enum":
                self.parse_enum(scope, t.line)
            elif tx == "union":
                # treated like a struct definition without member analysis
                self.next()
                if self.kind() == "id":
                    self.next()
                if self.text() == "{":
                    self.group()
                self.skip_statement()
            elif tx in ("using", "typedef", "static_assert", "asm", "goto"):
                self.skip_statement()
            elif tx == "friend":
                self._skip_friend()
            elif tx == "extern" and self.kind(1) == "str":
                self.i += 2
                if self.text() == "{":
                    self.next()
                    self.parse_scope(scope, bounded=True)
            else:
                self.parse_declaration(scope, "", t.line)
        if bounded:
            self.note_error()
        return last_line

    def _skip_attributes(self):
        # [[...]] appears as two '[' tokens
        while self.text() == "[" and self.text(1) == "[":
            self.next()
            self.group()
            self.accept("]")

    def _skip_friend(self):
        # unlike skip_statement, a friend function's body ends the skip,
        # and a stray closer counts below zero
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

    def parse_namespace(self, scope: _Scope, start_line: int):
        self.next()  # 'namespace'
        names = self.qualified_name()
        if self.text() != "{":
            if self.text() != "=":  # '=' makes a namespace alias
                self.note_error()
            self.skip_statement()
            return
        self.next()  # '{'
        if not names:
            names = [f"(anon@{self.path})"]
        created: list[int] = []
        current = scope
        for nm in names:
            local = self.add_symbol(current, SymbolKind.NAMESPACE, [nm], start_line)
            created.append(local)
            current = _Scope(local_id=local, prefix=current.qualify(nm))
        end_line = self.parse_scope(current, bounded=True)
        for local in created:
            self.set_end_line(local, end_line)

    def parse_templated(self, scope: _Scope, start_line: int):
        self.next()  # 'template'
        params = ""
        if self.text() == "<":
            toks, closed = self.group()
            inner = toks[1:-1] if closed else toks[1:]
            params = "<" + render_tokens([t.text for t in inner]) + ">"
        tx = self.text()
        if tx in _CLASS_KEYS:
            self.parse_class(scope, params, start_line)
        elif tx in ("using", "friend", "typedef"):
            self.skip_statement()
        elif tx == "template":
            # template template parameters are outside the subset
            self.note_error()
            self.skip_statement()
        else:
            self.parse_declaration(scope, params, start_line)

    def parse_class(self, scope: _Scope, template_params: str, start_line: int):
        keyword = self.next().text  # 'class' | 'struct'
        self._skip_attributes()
        if self.accept("alignas") and self.text() == "(":
            self.group()
        names = self.qualified_name(ends="final")
        if not names:
            # anonymous struct or parse damage
            self.note_error()
            if self.text() == "{":
                self.group()
            self.skip_statement()
            return
        self.accept("final")
        is_definition = self.text() != ";"
        bases: list[str] = []
        if is_definition and self.accept(":"):
            while self.i < self.n and self.text() != "{":
                while self.text() in ("public", "protected", "private", "virtual"):
                    self.next()
                segs = self.qualified_name(angles=True)
                if segs:
                    bases.append("::".join(segs))
                if not self.accept(","):
                    break
        if is_definition and self.text() != "{":
            # elaborated type in a declaration, e.g. "class X x;"
            self.skip_statement()
            return
        self.next()  # ';' or '{'
        if not is_definition:
            kind = SymbolKind.FORWARD_DECLARATION
        elif template_params:
            kind = SymbolKind.TEMPLATE_CLASS
        elif keyword == "struct":
            kind = SymbolKind.STRUCT
        else:
            kind = SymbolKind.CLASS
        local = self.add_symbol(
            scope,
            kind,
            names,
            start_line,
            is_definition=is_definition,
            template_params=template_params,
        )
        if not is_definition:
            return
        for base in bases:
            self.result.pending_bases.append(PendingBase(local, base))
        inner = _Scope(
            local_id=local,
            prefix=scope.qualify("::".join(names)),
            is_class=True,
            class_name=names[-1],
        )
        end_line = self.parse_scope(inner, bounded=True)
        self.set_end_line(local, end_line)
        self.skip_statement()  # trailing declarators are not indexed

    def parse_enum(self, scope: _Scope, start_line: int):
        self.next()  # 'enum'
        if self.text() in _CLASS_KEYS:
            self.next()
        name = ""
        if self.kind() == "id":
            name = self.next().text
        if self.accept(":"):
            self.skip_to(("{", ";"))
        tx = self.text()
        if tx not in ("{", ";"):
            self.note_error()
            self.skip_statement()
            return
        end_line = self.group()[0][-1].line if tx == "{" else start_line
        self.accept(";")
        if name:
            local = self.add_symbol(
                scope, SymbolKind.ENUM, [name], start_line, is_definition=tx == "{"
            )
            self.set_end_line(local, end_line)

    # ------------------------------------------------------------------
    # general declarations: functions, constructors, variables

    def parse_declaration(self, scope: _Scope, template_params: str, start_line: int):
        """Read one declarator: leading specifiers, then tokens up to the
        first '(', ';', '=' or '{'. Their trailing qualified name, found by
        ``_trailing_chain`` with its start, is a function's name before a
        '('; otherwise each comma-separated part may name a variable."""
        is_virtual = False
        while True:
            tx = self.text()
            if tx in _LEADING_SPECIFIERS:
                if tx == "virtual":
                    is_virtual = True
                self.next()
            elif tx == "[" and self.text(1) == "[":
                self._skip_attributes()
            elif tx == "alignas" and self.text(1) == "(":
                self.next()
                self.group()
            else:
                break

        buf: list[Token] = []
        while True:
            if self.i >= self.n:
                return
            t = self.toks[self.i]
            tx = t.text
            if tx in ("(", ";", "=", "{"):
                break
            if tx == "<" and buf and buf[-1].kind == "id":
                # a ';' or '{' ends a runaway: this was a comparison, not
                # template arguments
                buf += self.group(stop=(";", "{"))[0]
            elif tx == "operator":
                # the whole operator name becomes one identifier token
                self.next()  # 'operator'
                name = "operator"
                if self.text() + self.text(1) in ("()", "[]"):
                    name += self.next().text + self.next().text
                else:
                    while self.i < self.n and self.text() not in ("(", ";", "{"):
                        name += self.next().text
                buf.append(Token(name, "id", t.line))
            elif tx in ("}", "class", "struct", "enum", "namespace", "template"):
                self.note_error()
                if tx != "}":
                    self.skip_statement()
                return
            else:
                buf.append(t)
                self.i += 1

        chain, start = _trailing_chain(buf)
        # vexing-parse disambiguation: literal arguments cannot name
        # types, so this is a variable with constructor arguments
        vexing = start > 0 and len(chain) == 1 and self.kind(1) in ("str", "num", "chr")
        if tx == "(" and chain and not vexing:
            signature, is_definition, has_override = self._function_tail()
            if template_params:
                kind = SymbolKind.TEMPLATE_FUNCTION
            elif not start and (
                (scope.is_class and chain[-1] == scope.class_name)
                # out-of-line constructor definition
                or (len(chain) >= 2 and chain[-1] == chain[-2])
            ):
                kind = SymbolKind.CONSTRUCTOR
            elif scope.is_class or len(chain) >= 2:
                kind = SymbolKind.MEMBER_FUNCTION
            else:
                kind = SymbolKind.FREE_FUNCTION
            local = self.add_symbol(
                scope,
                kind,
                chain,
                start_line,
                signature=signature,
                is_definition=is_definition,
                template_params=template_params,
                is_virtual=is_virtual,
                has_override=has_override,
            )
            body_end = self._scan_body(local) if self.accept("{") else start_line
            self.set_end_line(local, body_end)
            return
        if tx in ("(", "{") and not chain:
            self.note_error()
        else:
            for k, part in enumerate(_split_top_level(buf, ",")):
                names, at = _trailing_chain(part)
                # a leading part needs a type before its name
                if len(names) == 1 and not names[0].startswith("~") and (k or at):
                    self.add_symbol(scope, SymbolKind.VARIABLE, names, start_line)
        if tx == "{":
            self.group()
            self.accept(";")
        elif tx == "=":
            self._declarators_after_initializer(scope, start_line)
        else:
            self.skip_statement()

    def _declarators_after_initializer(self, scope: _Scope, start_line: int):
        """From the '=' of a variable's initializer to the end of the
        statement, record each later declarator that is one name, after
        pointer and reference marks alone and before ',', ';', '=' or '{':
        ``int a = 1, *b, c = 2;`` goes on with ``b`` and ``c``. The cursor
        ends where ``skip_statement`` would leave it. A ',' in template
        arguments also ends a part, as in ``N<A, B>::v``, which the marks
        rule keeps from naming ``v``."""
        while self.skip_statement((",", ";")) == ",":
            part: list[Token] = []
            while self.i < self.n and self.text() not in _DECLARATOR_ENDS:
                part.append(self.next())
            names, at = _trailing_chain(part)
            if (
                len(names) == 1
                and at == len(part) - 1
                and all(t.text in _DECLARATOR_MARKS for t in part[:at])
                and self.text() in (",", ";", "=", "{")
            ):
                self.add_symbol(scope, SymbolKind.VARIABLE, names, start_line)

    def _function_tail(self) -> tuple[str, bool, bool]:
        """Read a function's parameter list, from its '(', and what follows
        it up to the body or the end of the declaration. Returns the
        signature, whether this is a definition and whether it overrides."""
        params, closed = self.group()
        if not closed:
            self.note_error()
        signature = normalize_signature(params[1:-1] if closed else params[1:])

        has_override = False
        is_definition = False
        while self.i < self.n:
            tx = self.text()
            if tx in ("const", "volatile", "final", "&", "&&", "override"):
                has_override = has_override or tx == "override"
                self.next()
            elif tx in ("noexcept", "throw"):
                self.next()
                if self.text() == "(":
                    self.group()
            elif tx == "->":
                self.next()
                self.skip_to(("{", ";", "="), "<")
            elif tx == "requires":
                self.next()
                self.skip_to(("{", ";"), "(")
            elif tx == ":":
                # a constructor initializer list; its parens and braces nest
                self.next()
                while True:
                    self.skip_to((";", "{"), "(")
                    # brace either starts the body or an init list entry; an
                    # entry brace always follows an identifier or '>'
                    prev = self.toks[self.i - 1]
                    if self.text() != "{" or (prev.kind != "id" and prev.text != ">"):
                        break
                    self.group()
            else:
                break
        tx = self.text()
        if tx == "=":
            self.next()
            if self.text() in ("default", "delete", "0"):
                is_definition = self.next().text != "0"
            self.accept(";")
        elif tx == "{":
            is_definition = True
        elif tx == ";":
            self.next()
        elif tx:
            self.note_error()
            self.skip_statement()

        return signature, is_definition, has_override

    # ------------------------------------------------------------------
    # body scanning: call extraction

    def _scan_body(self, caller_local: int) -> int:
        """Scan an already-opened function body, recording call expressions.
        Returns the line of the closing brace."""
        calls = self.result.pending_calls
        toks = self.toks
        depth = 1
        prev_text = "{"
        while self.i < self.n:
            t = toks[self.i]
            tx = t.text
            # keywords that look like calls before "(" are not callees
            if t.kind == "id" and tx not in CPP_KEYWORDS:
                chain = self.qualified_name()
                if toks[self.i - 1].text == "::":
                    self.i -= 1  # no identifier follows it
                after_member = prev_text in (".", "->")
                if self.text() == "(":
                    callee = chain[-1] if after_member else "::".join(chain)
                    calls.append(
                        PendingCall(caller_local, callee, prev_text == "new", t.line)
                    )
                elif (
                    not after_member
                    and self.kind() == "id"
                    and self.text(1) in ("(", "{")
                    and self.text(2) != ")"  # skip empty-arg decls like T x()
                ):
                    # constructor-style declaration: Type var(args)
                    self.i += 1
                    calls.append(
                        PendingCall(caller_local, "::".join(chain), True, t.line)
                    )
                prev_text = chain[-1]
                continue
            self.i += 1
            if tx == "{":
                depth += 1
            elif tx == "}":
                depth -= 1
                if depth == 0:
                    return t.line
            prev_text = tx
        self.note_error()
        return toks[-1].line


# ----------------------------------------------------------------------
# token utilities shared with signature normalization


def _split_shifts(tokens: list[Token]) -> list[Token]:
    """``tokens`` with each ``>>`` read as two ``>`` (see the module
    docstring)."""
    out: list[Token] = []
    for t in tokens:
        out += [Token(">", "punct", t.line)] * 2 if t.text == ">>" else [t]
    return out


def _trailing_chain(buf: list[Token]) -> tuple[list[str], int]:
    """Longest trailing qualified-name chain in ``buf`` and the index of
    its first token; the last segment may carry a '~' destructor mark.
    Keywords never form a chain."""
    j = len(buf) - 1
    if j < 0 or buf[j].kind != "id" or buf[j].text in CPP_KEYWORDS:
        return [], 0
    chain = [buf[j].text]
    if j >= 1 and buf[j - 1].text == "~":
        j -= 1
        chain[0] = "~" + chain[0]
    while (
        j >= 2
        and buf[j - 1].text == "::"
        and buf[j - 2].kind == "id"
        and buf[j - 2].text not in CPP_KEYWORDS
    ):
        j -= 2
        chain.insert(0, buf[j].text)
    return chain, j


def _split_top_level(buf: list[Token], sep: str) -> list[list[Token]]:
    """``buf`` split at each ``sep`` outside brackets. After a top-level
    '=' in a part, its '<' and '>' are comparisons, not brackets: in
    ``int x = a < b, int y`` the ',' still splits."""
    groups: list[list[Token]] = [[]]
    depth = 0
    angles = True
    for t in buf:
        tx = t.text
        if tx in "([{" or (angles and tx == "<"):
            depth += 1
        elif tx in ")]}" or (angles and tx == ">"):
            depth = max(0, depth - 1)
        elif tx == sep and depth == 0:
            groups.append([])
            angles = True
            continue
        elif tx == "=" and depth == 0:
            angles = False
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
    '()'. A ``>>`` is read as two ``>``."""
    rendered: list[str] = []
    for group in _split_top_level(_split_shifts(param_tokens), ","):
        toks = _split_top_level(group, "=")[0]  # a default argument is dropped
        if not toks:
            continue
        texts = [t.text for t in toks]
        # the name is the identifier before the first '[', or else the last
        # token; a qualified name or a builtin type is not a name
        bracket = next((k for k, tx in enumerate(texts) if tx == "["), 0)
        at = len(texts) - 1
        if bracket and toks[bracket - 1].kind == "id":
            at = bracket - 1
        if (
            toks[at].kind == "id"
            and texts[at] not in TYPE_KEYWORDS
            and texts[at - 1] != "::"
            and _is_parameter_name(texts, at)
        ):
            del texts[at]
        rendered.append(render_tokens(texts))
    if rendered == ["void"]:
        rendered = []
    return "(" + ", ".join(rendered) + ")"
