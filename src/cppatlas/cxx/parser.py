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
from typing import NamedTuple

from ..model import Location, SymbolKind, SymbolRecord
from ..repo import SourceUnit
from .lexer import CPP_KEYWORDS, TYPE_KEYWORDS, CommentBlock, lex

_LEADING_SPECIFIERS = frozenset(
    """
    inline static virtual explicit constexpr consteval constinit extern
    mutable thread_local register typename friend export
    """.split()
)

_CLASS_KEYS = ("class", "struct")

_CLOSERS = {"(": ")", "[": "]", "{": "}", "<": ">"}

# scopes nested deeper than this are skipped as errors: each level takes two
# or three frames of the interpreter's stack, which holds about 1,000
_MAX_DEPTH = 100
_LOCATION = SymbolRecord._fields.index("location")

# what may stand before the name of a declarator after the first, and the
# tokens that end its part
_DECLARATOR_MARKS = frozenset(("*", "&", "&&", "const", "volatile"))
_DECLARATOR_ENDS = frozenset(("(", "[", "{", ")", "]", "}", ",", ";", "="))


class PendingCall(NamedTuple):
    """Call expression awaiting cross-unit resolution; the parser makes
    it with ``tuple.__new__``, its fields in order."""

    caller: int  # unit-local symbol id
    callee_text: str  # possibly qualified, e.g. "util::run"
    ctor_style: bool
    line: int


class PendingBase(NamedTuple):
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


def parse_unit(unit: SourceUnit, signatures: dict | None = None) -> ParsedUnit:
    """Parse one header or source unit into symbols, containment edges and
    pending references. ``signatures`` memoizes the normalized signature of
    each parameter list by its (texts, kinds) columns; one build passes one
    dict to every unit, since a replicated tree repeats most of its lists.
    Pure: identical output for identical input, whatever the dict holds."""
    if unit.kind not in ("header", "source"):
        raise ValueError(f"cannot parse unit of kind {unit.kind!r}")
    text = unit.content
    lexed = lex(text)
    columns = _split_shifts(lexed.tokens, lexed.kinds, lexed.lines)
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
    parser = _Parser(result, columns, lexed.comments, signatures)
    parser.parse_scope(_Scope(local_id=0, prefix=""), bounded=False)
    return result


class _Parser:
    """A cursor ``i`` over the token columns, which never passes the ``n``
    tokens; ``texts`` and ``kinds`` end in three ``""`` sentinels, so
    ``text(k)`` and ``kind(k)`` (k <= 2) need no bounds check."""

    def __init__(
        self, result: ParsedUnit, columns: tuple, comments: list[CommentBlock],
        signatures: dict | None,
    ):
        self.result = result
        self.path = result.path
        texts, kinds, self.lines = columns
        self.texts, self.kinds = texts + ["", "", ""], kinds + ["", "", ""]
        self.n = len(texts)
        self.i = 0
        self.depth = 0  # bounded scopes open around the cursor
        self.comment_by_end = {c.end_line: c for c in comments}
        self.signatures = {} if signatures is None else signatures

    # ------------------------------------------------------------------
    # token helpers

    def text(self, k: int = 0) -> str:
        return self.texts[self.i + k]

    def kind(self, k: int = 0) -> str:
        return self.kinds[self.i + k]

    def next(self) -> str:
        """Consume the token at the cursor and return its text, '' at the end."""
        tx = self.texts[self.i]
        if self.i < self.n:
            self.i += 1
        return tx

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
            tx = self.next()
            if tx in "([{":
                depth += 1
            elif tx in ")]}":
                if depth == 0 and tx == "}":
                    self.i -= 1
                    return ""
                depth = max(0, depth - 1)
            elif tx in ends and depth == 0:
                return tx
        return ""

    def group(self, stop: tuple[str, ...] = ()) -> int:
        """Move the cursor past the bracketed group that opens at it and
        return where its inside ends: at its closer, or, unclosed, at the
        cursor. Only the opener's own kind nests, so '<' pairs with '>'
        alone (a ``>>`` arrives as two). The walk ends unclosed at the end
        of input or before a ``stop`` token."""
        texts = self.texts
        open_text = texts[self.i]
        close_text = _CLOSERS[open_text]
        j = self.i
        depth = 0
        while j < self.n:
            tx = texts[j]
            if tx == open_text:
                depth += 1
            elif tx == close_text:
                depth -= 1
                if depth == 0:
                    self.i = j + 1
                    return j
            elif tx in stop:
                break
            j += 1
        self.i = j
        return j

    def qualified_name(self, angles: bool = False, ends: str = "") -> list[str]:
        """Read ``id (:: id)*`` at the cursor and return its identifiers; a
        '::' after the last one is consumed too. The name stops before the
        identifier ``ends``. With ``angles``, a template argument list
        after an identifier is skipped."""
        names: list[str] = []
        while self.kind() == "id" and self.text() != ends:
            names.append(self.next())
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
        signature: str = "", is_definition: bool = True,
        template_params: str = "", is_virtual: bool = False,
        has_override: bool = False,
    ) -> int:
        """Record the symbol that ``chain``, qualified in ``scope``, names,
        with the further ``SymbolRecord`` fields given, at a one-line span.
        The record is made without a call, its fields in their order, so
        neither the record nor its span runs a check."""
        local_id = len(self.result.symbols)
        doc = self.comment_by_end.get(start_line - 1)
        self.result.symbols.append(tuple.__new__(SymbolRecord, (
            local_id, kind, chain[-1], scope.qualify("::".join(chain)),
            signature, tuple.__new__(Location, (self.path, start_line, start_line)),
            is_definition, template_params, doc.text if doc else "",
            is_virtual, has_override,
        )))
        self.result.contains.append((scope.local_id, local_id))
        return local_id

    def set_end_line(self, local_id: int, end_line: int):
        rec = self.result.symbols[local_id]
        file, start_line, _ = rec.location
        if end_line > start_line:  # a new record, made without a call
            self.result.symbols[local_id] = tuple.__new__(SymbolRecord, (
                *rec[:_LOCATION], Location(file, start_line, end_line),
                *rec[_LOCATION + 1:]))

    def note_error(self):
        self.result.error_count += 1

    # ------------------------------------------------------------------
    # grammar

    def parse_scope(self, scope: _Scope, bounded: bool) -> int:
        """Parse declarations until EOF or, when bounded, the matching '}'.
        Returns the line of the closing brace (or last line seen). A bounded
        scope inside ``_MAX_DEPTH`` others is skipped whole as one error."""
        if bounded:
            if self.depth == _MAX_DEPTH:
                self.note_error()
                self.i -= 1  # back to its '{'
                return self.lines[min(self.group(), self.n - 1)]
            self.depth += 1
        last_line = self.lines[-1] if self.n else 1
        while self.i < self.n:
            tx = self.texts[self.i]
            last_line = line = self.lines[self.i]
            if tx == "}":
                self.next()
                if bounded:
                    self.depth -= 1
                    return line
                self.note_error()
            elif tx == ";":
                self.next()
            elif tx in ("public", "private", "protected") and self.text(1) == ":":
                self.i += 2
            elif tx == "[" and self.text(1) == "[":
                self._skip_attributes()
            elif tx == "namespace":
                self.parse_namespace(scope, line)
            elif tx == "template":
                self.parse_templated(scope, line)
            elif tx in _CLASS_KEYS:
                self.parse_class(scope, "", line)
            elif tx == "enum":
                self.parse_enum(scope, line)
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
                self.parse_declaration(scope, "", line)
        if bounded:
            self.depth -= 1
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
            tx = self.next()
            if tx in "([{":
                depth += 1
            elif tx in ")]}":
                depth -= 1
                if depth == 0 and tx == "}":
                    self.accept(";")
                    return
            elif tx == ";" and depth <= 0:
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
            start = self.i + 1
            end = self.group()
            params = "<" + render_tokens(self.texts[start:end]) + ">"
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
        keyword = self.next()  # 'class' | 'struct'
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
            self.result.pending_bases.append(tuple.__new__(PendingBase, (local, base)))
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
            name = self.next()
        if self.accept(":"):
            self.skip_to(("{", ";"))
        tx = self.text()
        if tx not in ("{", ";"):
            self.note_error()
            self.skip_statement()
            return
        if tx == "{":
            self.group()
        end_line = self.lines[self.i - 1] if tx == "{" else start_line
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

        first = self.i
        ops: list[tuple[int, int]] = []  # operator names, one identifier each
        while True:
            if self.i >= self.n:
                return
            tx = self.texts[self.i]
            if tx in ("(", ";", "=", "{"):
                break
            if tx == "<" and self.i > first and (
                self.kind(-1) == "id" or (ops and ops[-1][1] == self.i)
            ):
                # a ';' or '{' ends a runaway: this was a comparison, not
                # template arguments
                self.group(stop=(";", "{"))
            elif tx == "operator":
                at = self.i
                self.next()
                if self.text() + self.text(1) in ("()", "[]"):
                    self.i += 2
                else:
                    self.skip_to(("(", ";", "{"))
                ops.append((at, self.i))
            elif tx in ("}", "class", "struct", "enum", "namespace", "template"):
                self.note_error()
                if tx != "}":
                    self.skip_statement()
                return
            else:
                self.i += 1
        buf, buf_kinds = self.texts[first : self.i], self.kinds[first : self.i]
        for at, end in reversed(ops):
            cut = slice(at - first, end - first)
            buf[cut], buf_kinds[cut] = ["".join(buf[cut])], ["id"]

        chain, start = _trailing_chain(buf, buf_kinds)
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
            for k, (a, b) in enumerate(_split_top_level(buf, ",")):
                names, at = _trailing_chain(buf[a:b], buf_kinds[a:b])
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
            start = self.i
            self.skip_to(_DECLARATOR_ENDS)
            part = self.texts[start : self.i]
            names, at = _trailing_chain(part, self.kinds[start : self.i])
            if (
                len(names) == 1
                and at == len(part) - 1
                and all(tx in _DECLARATOR_MARKS for tx in part[:at])
                and self.text() in (",", ";", "=", "{")
            ):
                self.add_symbol(scope, SymbolKind.VARIABLE, names, start_line)

    def _function_tail(self) -> tuple[str, bool, bool]:
        """Read a function's parameter list, from its '(', and what follows
        it up to the body or the end of the declaration. Returns the
        signature, whether this is a definition and whether it overrides."""
        start = self.i + 1
        end = self.group()
        if end == self.i:  # not closed
            self.note_error()
        texts, kinds = self.texts[start:end], self.kinds[start:end]
        key = (tuple(texts), tuple(kinds))
        signature = self.signatures.get(key)
        if signature is None:
            signature = self.signatures[key] = normalize_signature(texts, kinds)

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
                    after_name = self.kind(-1) == "id" or self.text(-1) == ">"
                    if self.text() != "{" or not after_name:
                        break
                    self.group()
            else:
                break
        tx = self.text()
        if tx == "=":
            self.next()
            if self.text() in ("default", "delete", "0"):
                is_definition = self.next() != "0"
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
        Returns the line of the closing brace. A callee is ``id (:: id)*``;
        the walk keeps its own cursor and sets the parser's when it ends."""
        calls = self.result.pending_calls
        texts, kinds, lines, n = self.texts, self.kinds, self.lines, self.n
        i = self.i
        depth = 1
        prev_text = "{"
        while i < n:
            tx = texts[i]
            # keywords that look like calls before "(" are not callees
            if kinds[i] == "id" and tx not in CPP_KEYWORDS:
                line = lines[i]
                chain = [tx]
                i += 1
                while texts[i] == "::" and kinds[i + 1] == "id":
                    chain.append(texts[i + 1])
                    i += 2
                after_member = prev_text in (".", "->")
                if texts[i] == "(":
                    callee = chain[-1] if after_member else "::".join(chain)
                    calls.append(tuple.__new__(
                        PendingCall, (caller_local, callee, prev_text == "new", line)))
                elif (
                    not after_member
                    and kinds[i] == "id"
                    and texts[i + 1] in ("(", "{")
                    and texts[i + 2] != ")"  # skip empty-arg decls like T x()
                ):
                    # constructor-style declaration: Type var(args)
                    i += 1
                    calls.append(tuple.__new__(
                        PendingCall, (caller_local, "::".join(chain), True, line)))
                prev_text = chain[-1]
                continue
            i += 1
            if tx == "{":
                depth += 1
            elif tx == "}":
                depth -= 1
                if depth == 0:
                    self.i = i
                    return lines[i - 1]
            prev_text = tx
        self.i = i
        self.note_error()
        return lines[-1]


# ----------------------------------------------------------------------
# token utilities shared with signature normalization


def _split_shifts(texts: list[str], *columns: list) -> tuple[list, ...]:
    """The token columns, texts first, with each ``>>`` read as two ``>``
    (see the module docstring)."""
    if ">>" not in texts:
        return (texts, *columns)
    rows: list[tuple] = []
    for row in zip(texts, *columns):
        rows += [(">", *row[1:])] * 2 if row[0] == ">>" else [row]
    return tuple(map(list, zip(*rows)))


def _trailing_chain(texts: list[str], kinds: list[str]) -> tuple[list[str], int]:
    """Longest trailing qualified-name chain in a token run and the index
    of its first token; the last segment may carry a '~' destructor mark.
    Keywords never form a chain."""
    j = len(texts) - 1
    if j < 0 or kinds[j] != "id" or texts[j] in CPP_KEYWORDS:
        return [], 0
    chain = [texts[j]]
    if j >= 1 and texts[j - 1] == "~":
        j -= 1
        chain[0] = "~" + chain[0]
    while (
        j >= 2
        and texts[j - 1] == "::"
        and kinds[j - 2] == "id"
        and texts[j - 2] not in CPP_KEYWORDS
    ):
        j -= 2
        chain.insert(0, texts[j])
    return chain, j


def _split_top_level(texts: list[str], sep: str) -> list[tuple[int, int]]:
    """The index ranges of ``texts`` between each ``sep`` outside
    brackets. After a top-level '=' in a part, its '<' and '>' are
    comparisons, not brackets: in ``int x = a < b, int y`` the ',' still
    splits."""
    if sep not in texts:
        return [(0, len(texts))]
    ranges: list[tuple[int, int]] = []
    start = depth = 0
    angles = True
    for k, tx in enumerate(texts):
        if tx in "([{" or (angles and tx == "<"):
            depth += 1
        elif tx in ")]}" or (angles and tx == ">"):
            depth = max(0, depth - 1)
        elif tx == sep and depth == 0:
            ranges.append((start, k))
            start = k + 1
            angles = True
        elif tx == "=" and depth == 0:
            angles = False
    ranges.append((start, len(texts)))
    return ranges


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


def _declarator_name(texts: list[str], kinds: list[str]) -> int | None:
    """Where the name of a parenthesised declarator is, as ``fn`` in
    ``int (*fn)(int)`` or ``r`` in ``int (&r)[3]``: an identifier that is
    not a keyword, right after a '*', '&' or '&&' and right before the
    parameter's first ')', whose '(' is outside every bracket. None when
    the parameter has no such name."""
    if ")" not in texts:
        return None
    close = texts.index(")")
    at = close - 1
    if (at < 2 or kinds[at] != "id" or texts[at] in CPP_KEYWORDS
            or texts[at - 1] not in ("*", "&", "&&")):
        return None
    # no ')' comes before, so the last '(' before it opens its group
    opener = max((k for k in range(close) if texts[k] == "("), default=0)
    closers = _CLOSERS.values()
    depth = sum((tx in _CLOSERS) - (tx in closers) for tx in texts[:opener])
    return at if opener and depth == 0 else None


def normalize_signature(texts: list[str], kinds: list[str]) -> str:
    """Normalize a parameter list's token columns: whitespace collapsed,
    parameter names and default arguments removed, const qualifiers kept,
    '(void)' folded to '()', a ``>>`` read as two ``>``."""
    texts, kinds = _split_shifts(texts, kinds)
    rendered: list[str] = []
    for start, end in _split_top_level(texts, ","):
        end = start + _split_top_level(texts[start:end], "=")[0][1]  # no default
        part, part_kinds = texts[start:end], kinds[start:end]
        if not part:
            continue
        # the name is inside a parenthesised declarator, or else the
        # identifier before the first '[', or else the last token; a
        # qualified name or a builtin type is not a name
        at = _declarator_name(part, part_kinds)
        if at is None:
            bracket = next((k for k, tx in enumerate(part) if tx == "["), 0)
            at = len(part) - 1
            if bracket and part_kinds[bracket - 1] == "id":
                at = bracket - 1
            if not (
                part_kinds[at] == "id"
                and part[at] not in TYPE_KEYWORDS
                and part[at - 1] != "::"
                and _is_parameter_name(part, at)
            ):
                at = None
        if at is not None:
            del part[at]
        rendered.append(render_tokens(part))
    if rendered == ["void"]:
        rendered = []
    return "(" + ", ".join(rendered) + ")"
