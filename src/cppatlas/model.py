"""Core record types for the structural symbol graph.

A repository is indexed into ``SymbolRecord`` nodes connected by typed
``StructuralEdge`` edges. Two synthetic node flavors exist alongside parsed
declarations: per-file roots (kind ``file``) that anchor the containment
forest, and ``unresolved:<name>`` sentinels standing in for call targets the
resolver could not find.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class SymbolKind(str, Enum):
    NAMESPACE = "namespace"
    CLASS = "class"
    STRUCT = "struct"
    ENUM = "enum"
    FREE_FUNCTION = "free_function"
    MEMBER_FUNCTION = "member_function"
    CONSTRUCTOR = "constructor"
    VARIABLE = "variable"
    TEMPLATE_CLASS = "template_class"
    TEMPLATE_FUNCTION = "template_function"
    FORWARD_DECLARATION = "forward_declaration"
    # synthetic containment root, one per source unit
    FILE = "file"


class EdgeKind(str, Enum):
    CONTAINS = "contains"
    INHERITS_FROM = "inherits_from"
    CALLS = "calls"
    OVERLOAD_OF = "overload_of"
    OVERRIDES = "overrides"


FUNCTION_KINDS = frozenset(
    {
        SymbolKind.FREE_FUNCTION,
        SymbolKind.MEMBER_FUNCTION,
        SymbolKind.CONSTRUCTOR,
        SymbolKind.TEMPLATE_FUNCTION,
    }
)

CLASS_KINDS = frozenset(
    {SymbolKind.CLASS, SymbolKind.STRUCT, SymbolKind.TEMPLATE_CLASS}
)

UNRESOLVED_PREFIX = "unresolved:"


class _Span(NamedTuple):
    file: str
    start_line: int
    end_line: int


class Location(_Span):
    """Line span inside one source unit. Lines are 1-based, end inclusive.

    Calling ``Location`` checks the span; ``Location._make``,
    ``loc._replace(...)`` and ``tuple.__new__(Location, ...)`` do not, so
    code that uses them checks its spans first."""

    __slots__ = ()

    def __new__(cls, file: str, start_line: int, end_line: int):
        if start_line > end_line:
            raise ValueError(f"bad span {start_line}..{end_line}")
        return tuple.__new__(cls, (file, start_line, end_line))

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "start_line": self.start_line,
            "end_line": self.end_line,
        }


@dataclass
class SymbolRecord:
    """One node of the structural graph.

    ``qualified_name`` is built from lexical nesting and always ends with
    ``name``. ``signature`` is the normalized parameter list for function
    kinds and empty otherwise. ``doc_comment`` carries the comment block
    immediately above the declaration, when one exists.
    """

    symbol_id: int
    kind: SymbolKind
    name: str
    qualified_name: str
    signature: str = ""
    location: Location = Location("", 0, 0)
    is_definition: bool = True
    template_params: str = ""
    doc_comment: str = ""
    is_virtual: bool = False
    has_override: bool = False

    @property
    def is_synthetic(self) -> bool:
        return self.kind is SymbolKind.FILE or self.qualified_name.startswith(
            UNRESOLVED_PREFIX
        )

    def to_dict(self) -> dict:
        return {
            "symbol_id": self.symbol_id,
            "kind": self.kind.value,
            "name": self.name,
            "qualified_name": self.qualified_name,
            "signature": self.signature,
            "location": self.location.to_dict(),
            "is_definition": self.is_definition,
            "template_params": self.template_params,
            "doc_comment": self.doc_comment,
            "is_virtual": self.is_virtual,
            "has_override": self.has_override,
        }


class StructuralEdge(NamedTuple):
    """Directed typed edge; ``src`` and ``dst`` are symbol ids."""

    kind: EdgeKind
    src: int
    dst: int

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "from": self.src, "to": self.dst}


class CallSite(NamedTuple):
    """One call expression, kept separately from the deduplicated edge list
    because a caller may invoke the same callee several times."""

    caller: int
    callee: int
    location: Location
