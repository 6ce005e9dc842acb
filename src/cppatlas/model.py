"""Core record types for the structural symbol graph.

A repository is indexed into ``SymbolRecord`` nodes connected by typed
``StructuralEdge`` edges. Two synthetic node flavors exist alongside parsed
declarations: per-file roots (kind ``file``) that anchor the containment
forest, and ``unresolved:<name>`` sentinels standing in for call targets the
resolver could not find. An index keeps its records as columns, in the
record views at the end of this module, which make a record when one is
read.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, is_
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
        return self._asdict()


class SymbolRecord(NamedTuple):
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
        """A file root or an ``unresolved:`` sentinel; ``synthetic_flags``
        reads the same rule from columns."""
        return self.kind is SymbolKind.FILE or is_sentinel_name(self.qualified_name)

    def to_dict(self) -> dict:
        return {**self._asdict(), "kind": self.kind.value,
                "location": self.location.to_dict()}


def is_sentinel_name(qualified_name: str) -> bool:
    """Whether ``qualified_name`` is an ``unresolved:<name>`` sentinel's:
    the prefix, then anything but a second ``:``. So a member of a C++
    namespace ``unresolved`` (``unresolved::Foo``) is a real symbol, and a
    qualified callee that was not found (``unresolved:ns::gone``) is a
    sentinel."""
    return (qualified_name.startswith(UNRESOLVED_PREFIX)
            and not qualified_name.startswith(":", len(UNRESOLVED_PREFIX)))


def sentinel_rows(qualified_names) -> list[int]:
    """The rows of ``qualified_names`` (a sequence of str) that
    ``is_sentinel_name`` holds of, in order. The names are joined on
    newlines and searched for the prefix once, since a ``startswith`` per
    name costs about three times as much (1.5 against 0.5 ms over 10,149
    names). A row is counted by the newlines before it, so when a name
    holds a newline the names are each read instead."""
    joined = "\n" + "\n".join(qualified_names)
    key, prefixed, row, at = "\n" + UNRESOLVED_PREFIX, [], -1, 0
    pos = joined.find(key)
    while pos >= 0:
        row += joined.count("\n", at, pos + 1)
        prefixed.append(row)
        at = pos + 1
        pos = joined.find(key, at)
    if row + 1 + joined.count("\n", at) != len(qualified_names):
        prefixed = compress(count(), map(str.startswith, qualified_names,
                                         repeat(UNRESOLVED_PREFIX)))
    return [row for row in prefixed if is_sentinel_name(qualified_names[row])]


def synthetic_flags(kinds, qualified_names) -> list[bool]:
    """``SymbolRecord.is_synthetic`` of each row, read from its ``kinds``
    and ``qualified_names`` columns (a sequence), with no record."""
    flags = list(map(is_, kinds, repeat(SymbolKind.FILE)))
    for row in sentinel_rows(qualified_names):
        flags[row] = True
    return flags


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


def _transposed(rows, cls) -> list[tuple]:
    """The columns of ``rows`` of the named tuple ``cls``."""
    return list(zip(*rows)) or [()] * len(cls._fields)


def _frozen(column):
    """``column`` if it cannot change in place (a tuple, a range or a
    memoryview of bytes), else a tuple of it."""
    if type(column) in (tuple, range) or (
            type(column) is memoryview and type(column.obj) is bytes):
        return column
    return tuple(column)


class Joined(Sequence):
    """A read-only sequence of strs kept as one str, ``text``, and the
    offsets ``ends``, one more than there are strs: str i is
    ``text[ends[i]:ends[i + 1]]``. Every read slices ``text``, and nothing
    is made or kept before one, so a load holds an index file's intent
    texts as one str. ``Joined.of`` joins given strs. It equals a
    ``Joined`` or a tuple of the same strs."""

    __slots__ = ("text", "ends")

    def __init__(self, text: str, ends):
        self.text, self.ends = text, ends

    @classmethod
    def of(cls, items) -> "Joined":
        items = list(items)
        return cls("".join(items), tuple(accumulate(map(len, items), initial=0)))

    def __len__(self) -> int:
        return len(self.ends) - 1

    def __getitem__(self, i):
        i = range(len(self))[i]  # an IndexError or TypeError as a tuple's
        if type(i) is range:
            return tuple(map(self.__getitem__, i))
        return self.text[self.ends[i] : self.ends[i + 1]]

    def __iter__(self):
        # a slice written out reuses one slice object, where each
        # ``slice()`` called makes one the collector tracks
        text, ends = self.text, self.ends
        return (text[a:b] for a, b in zip(ends, islice(ends, 1, None)))

    def __eq__(self, other):
        if isinstance(other, Joined):
            other = tuple(other)
        return tuple(self) == other if type(other) is tuple else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Joined({tuple(self)!r})"

    def __reduce__(self):  # a loaded one's ends are a memoryview
        return Joined.of, (tuple(self),)


def _coded(values, table: tuple) -> tuple:
    """Each of ``values`` as its row in ``table``."""
    return tuple(map({v: i for i, v in enumerate(table)}.__getitem__, values))


class RecordView(Sequence):
    """A read-only sequence of the named tuples ``record``, kept as columns
    (``__slots__``, the constructor's arguments in order): a record is made
    when one is read, by index or by iteration, which makes them with
    ``map`` and ``zip`` alone, and none is kept. A column is a tuple, a
    range or a memoryview of bytes, so nothing a view holds changes in
    place. Views are equal when their records are, whatever holds their
    columns. ``of`` makes the view of given records."""

    __slots__ = ()
    record: type
    # makes every record from its type and fields, without the checks of the
    # type's constructor: a load checks its columns up front
    _make = tuple.__new__

    def __init__(self, *columns):
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, _frozen(column))

    def __iter__(self):
        return map(self._make, repeat(self.record), self._rows())

    def _sliced(self, i: slice) -> tuple:
        return tuple(map(self.__getitem__, range(len(self))[i]))

    def __eq__(self, other):
        if not isinstance(other, RecordView):
            return NotImplemented
        return (type(self) is type(other) and len(self) == len(other)
                and all(map(eq, self, other)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def __reduce__(self):
        return type(self).of, (tuple(self),)

    def _refuse(self, *args):
        raise AttributeError(f"a {type(self).__name__} is read-only")

    __setattr__ = __delattr__ = _refuse

    # a location is a ``file`` code (a row of ``files``) and two lines
    def _locations(self):
        return map(self._make, repeat(Location), zip(
            map(self.files.__getitem__, self.file), self.start_line, self.end_line))


class SymbolView(RecordView):
    """``SymbolRecord``s: a ``kind`` and a ``file`` code per row, rows of
    the ``kinds`` and ``files`` tables, and a column per other field, a
    location's lines as ``start_line`` and ``end_line``. ``ids`` is
    ``range(len)`` in a built or loaded index."""

    __slots__ = ("kinds", "files", "ids", "kind", "file", "start_line",
                 "end_line", "name", "qualified_name", "signature",
                 "is_definition", "template_params", "doc_comment",
                 "is_virtual", "has_override")
    record = SymbolRecord

    @classmethod
    def of_fields(cls, ids, kind, name, qualified_name, signature, location,
                  *flags) -> "SymbolView":
        """The view of ``SymbolRecord`` columns, in field order."""
        file, start, end = _transposed(location, Location)
        kinds, files = tuple(SymbolKind), tuple(sorted(set(file)))
        return cls(kinds, files, ids, _coded(kind, kinds), _coded(file, files),
                   start, end, name, qualified_name, signature, *flags)

    @classmethod
    def of(cls, records) -> "SymbolView":
        return cls.of_fields(*_transposed(records, SymbolRecord))

    def __len__(self) -> int:
        return len(self.ids)

    def _rows(self):
        return zip(self.ids, map(self.kinds.__getitem__, self.kind), self.name,
                   self.qualified_name, self.signature, self._locations(),
                   self.is_definition, self.template_params, self.doc_comment,
                   self.is_virtual, self.has_override)

    def __getitem__(self, i):
        if type(i) is slice:
            return self._sliced(i)
        make = self._make
        location = (self.files[self.file[i]], self.start_line[i], self.end_line[i])
        return make(SymbolRecord, (
            self.ids[i], self.kinds[self.kind[i]], self.name[i], self.qualified_name[i],
            self.signature[i], make(Location, location), self.is_definition[i],
            self.template_params[i], self.doc_comment[i], self.is_virtual[i],
            self.has_override[i]))

    def kind_of(self, i: int) -> SymbolKind:
        return self.kinds[self.kind[i]]

    def is_synthetic(self, i: int) -> bool:
        """``SymbolRecord.is_synthetic`` of row ``i``."""
        return self.kind_of(i) is SymbolKind.FILE or is_sentinel_name(
            self.qualified_name[i])


# the edge kinds in order (iterating the enum itself is slower), and each
# kind's place among an EdgeView's ends
_EDGE_KINDS = tuple(EdgeKind)
_EDGE_ROW = {kind: i for i, kind in enumerate(_EDGE_KINDS)}


class EdgeView(RecordView):
    """``StructuralEdge``s, kind by kind in ``EdgeKind`` order: ``ends``
    holds a ``src`` and a ``dst`` column per kind."""

    __slots__ = ("ends",)
    record = StructuralEdge

    def __init__(self, ends):
        object.__setattr__(self, "ends", tuple(
            (_frozen(src), _frozen(dst)) for src, dst in ends))

    @classmethod
    def of(cls, records) -> "EdgeView":
        records = tuple(records)
        return cls(tuple(zip(*(pair for k, *pair in records if k == kind))) or ((), ())
                   for kind in _EDGE_KINDS)

    def ends_of(self, kind: EdgeKind) -> tuple:
        return self.ends[_EDGE_ROW[kind]]

    def __len__(self) -> int:
        return sum(len(src) for src, _ in self.ends)

    def _rows(self):
        return chain.from_iterable(
            zip(repeat(kind), src, dst) for kind, (src, dst) in zip(_EDGE_KINDS, self.ends))

    def __getitem__(self, i):
        if type(i) is slice:
            return self._sliced(i)
        if i < 0:
            i += len(self)
        for kind, (src, dst) in zip(_EDGE_KINDS, self.ends):
            if 0 <= i < len(src):
                return self._make(StructuralEdge, (kind, src[i], dst[i]))
            i -= len(src)
        raise IndexError("edge index out of range")


class CallSiteView(RecordView):
    """``CallSite``s: ``caller``, ``callee``, and a location's ``file``
    code, a row of ``files``, ``start_line`` and ``end_line``."""

    __slots__ = ("files", "caller", "callee", "file", "start_line", "end_line")
    record = CallSite

    @classmethod
    def of_fields(cls, caller, callee, file, start_line, end_line) -> "CallSiteView":
        """The view of ``CallSite`` columns, a location's in its place."""
        files = tuple(sorted(set(file)))
        return cls(files, caller, callee, _coded(file, files), start_line, end_line)

    @classmethod
    def of(cls, records) -> "CallSiteView":
        caller, callee, location = _transposed(records, CallSite)
        return cls.of_fields(caller, callee, *_transposed(location, Location))

    def __len__(self) -> int:
        return len(self.caller)

    def _rows(self):
        return zip(self.caller, self.callee, self._locations())

    def __getitem__(self, i):
        if type(i) is slice:
            return self._sliced(i)
        make = self._make
        location = (self.files[self.file[i]], self.start_line[i], self.end_line[i])
        return make(CallSite, (self.caller[i], self.callee[i], make(Location, location)))
