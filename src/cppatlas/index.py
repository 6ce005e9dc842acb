"""Repository-wide structural index: build, resolve, persist.

``build_index`` unions per-unit parses under a global id assignment, then
resolves deferred references:

* base specifiers become ``inherits_from`` edges when a class definition is
  found by walking enclosing scopes innermost-first, then global scope;
* call expressions resolve in three steps: member of the enclosing class,
  then symbol in the innermost enclosing namespace, then global scope; plain
  calls prefer function records and constructor-style calls prefer classes
  (landing on the class's constructor); misses become ``unresolved:<name>``
  sentinel records rather than dropped edges;
* ``overload_of`` edges connect every pair of function records that share a
  scope and name, and ``overrides`` edges link a member function to the
  nearest base-class member with identical name and signature when that base
  member is virtual or the derived one is marked ``override``.

An index is read-only once made, and its fields are what an index file
holds. It keeps its symbols, edges and call sites as columns, the ones a
build assembles or a load decodes, in the record views of ``model``
(``SymbolView``, ``EdgeView``, ``CallSiteView``): a symbol's id is its
row, its kind and file are codes into small tables, an int column a load
reads is a memoryview of the file's bytes, and edges are a ``src`` and a
``dst`` column per kind. A ``SymbolRecord``, ``StructuralEdge`` or
``CallSite`` is made only when a view is indexed or iterated, and none is
kept, so a load makes no object per row. Everything in this package that
reads every row reads the columns; the tools make a record only for a row
they answer with. Every table derived from the fields is made on its first
read and kept (a ``functools.cached_property``): the ``graph`` that
queries walk rather than scanning edges, built from the int columns; the
lookups ``by_name``, ``by_qualified`` and ``by_suffix``, from the name
columns; the trigram filter that ``queries.grep_baseline`` reads; and the
``real`` rows that intent documents stand for. The graph and the lookups
are made with the cyclic collector paused. Neither ``build_index`` nor
``load_index`` derives any of them but ``real``, which the closure check
that both run reads.

The build passes one signature dict to every ``parse_unit``, so each
distinct parameter list of the tree is normalized once. Resolution reads
the parsed records as columns, made once per build: a kind and a
definition flag per row, and a lookup by qualified name. It walks an
interim graph over containment and inheritance. A call's target depends
only on the caller's enclosing scope, the callee text and whether the call is
constructor-style, so each distinct such key is resolved once per build;
so are each scope's enclosing class and namespace and each qualified
name's candidates, and nothing of one build is kept for the next. Edges
are gathered as (src, dst) int pairs, one set per kind, and made columns
once, sorted, in ``EdgeKind`` order. The ``unresolved:`` sentinels get
the largest ids. A build whose result fails the closure check raises
``CorruptIndex``.

The result is deterministic: identical repositories produce identical
indices, ids, edge lists and serialized bytes.

An index file (format 5) is a JSON header line, then two sections: the
texts of the sources, in path order, and then the intent texts, each run
UTF-8 encoded with lone surrogates passed through. The header gives each
section's strs by their lengths in code points, a ``lengths`` column, and
the sources also by their sorted, distinct ``paths``: the file's one path
table. A symbol's or a call site's file code is 0 for no file (an
``unresolved:`` sentinel's) or 1 more than its path's row, and the
includes are each parsed file's code, ascending, with its include
targets. A load slices the sources into one str per file, so that a
wide character widens its own file alone, and keeps the intent texts as
one str, a ``model.Joined`` read by slicing and never split, so that it
makes no str per document. The header holds the other
fields as columns. A symbol's id is its row, and its kind is a row of the
header's ``kinds``; edges are a ``from`` and a ``to`` column per kind,
and an empty kind is its row count alone. Every int column is packed:
little-endian unsigned ints of the narrowest width, 1, 2 or 4 bytes, that
holds its largest value, in one base64 string stored with that width. A
table of int columns alone also states its row count. A bool column is
bits, in one base64 string, and a str column is a JSON list. Persisting a
value that no width holds, or a file that has no source, raises
``CorruptIndex``, never a truncation; a load checks each column's width,
length and codes, every span, the sections' lengths, that the file is
UTF-8 and the closure before it returns, so no record or str made later
can fail, and a file of another version is a ``VersionMismatch``.
"""

from __future__ import annotations

import base64
import gc
import json
import logging
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, count, islice
from operator import and_, ge, ne, not_, sub
from pathlib import Path

from .cxx.parser import ParsedUnit, parse_unit
from .errors import CorruptIndex, VersionMismatch
from .errors import StaleIndexWarning
from .model import (
    CLASS_KINDS,
    FUNCTION_KINDS,
    UNRESOLVED_PREFIX,
    CallSiteView,
    EdgeKind,
    EdgeView,
    Joined,
    SymbolKind,
    SymbolRecord,
    SymbolView,
    _transposed,
    sentinel_rows,
    synthetic_flags,
)
from .repo import Repository

log = logging.getLogger(__name__)

FORMAT_MAGIC = "cppatlas-index"
FORMAT_VERSION = 5


class Graph:
    """Adjacency of an index's edges, built once per index from the
    (src, dst) pairs of each ``EdgeKind`` in ``pairs`` and the (caller,
    callee) pair of each call site in ``sites``, in order.

    For each ``EdgeKind`` it maps a node to its out-neighbours
    (``targets``) and in-neighbours (``sources``), each sorted by id, and
    it maps each caller and each callee to the positions of its call sites
    in ``sites``. Returned lists are shared: callers must not mutate them.
    """

    def __init__(self, pairs: dict, sites=()):
        self._out: dict[EdgeKind, dict[int, list[int]]] = {k: {} for k in EdgeKind}
        self._in: dict[EdgeKind, dict[int, list[int]]] = {k: {} for k in EdgeKind}
        for kind, kind_pairs in pairs.items():
            out, into = self._out[kind], self._in[kind]
            for src, dst in kind_pairs:
                out.setdefault(src, []).append(dst)
                into.setdefault(dst, []).append(src)
        for table in (*self._out.values(), *self._in.values()):
            for ids in table.values():
                ids.sort()
        self._by_caller: dict[int, list[int]] = {}
        self._by_callee: dict[int, list[int]] = {}
        for pos, (caller, callee) in enumerate(sites):
            self._by_caller.setdefault(caller, []).append(pos)
            self._by_callee.setdefault(callee, []).append(pos)

    def targets(self, kind: EdgeKind, node: int) -> list[int]:
        return self._out[kind].get(node, [])

    def sources(self, kind: EdgeKind, node: int) -> list[int]:
        return self._in[kind].get(node, [])

    def tables(self, kind: EdgeKind) -> tuple[dict, dict]:
        """The out- and in-neighbour tables of ``kind``: node to ids."""
        return self._out[kind], self._in[kind]

    def sites_from(self, caller: int) -> list[int]:
        return self._by_caller.get(caller, [])

    def sites_into(self, callee: int) -> list[int]:
        return self._by_callee.get(callee, [])


class _Table(dict):
    """An index's sources or includes, by path in sorted order: a dict
    that refuses every change in place. It is written and compared as a
    plain dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("an index's tables are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Table, (dict(self),)


# A fixed string of at least 3 UTF-8 bytes is looked for only in the files
# that hold every trigram (3-byte run) of it. Each trigram hashes to one of
# _BUCKETS rows, each row an int with one bit per file. On a 0.5 MB corpus
# of 1,159 files a third of the rows are nonzero, and the filter keeps
# about 0.6 MB. The build marks a bool array of _BUCKETS x _CHUNK files at
# a time (512 KiB), never one of _BUCKETS x all files, and packs it into a
# numpy bitmap of 1 bit per cell (1.2 MB there) that it turns into the
# rows. A query reads the rows with int operations alone: numpy calls cost
# several times more when the tools in between have evicted the caches.
_BUCKET_BITS = 13
_BUCKETS = 1 << _BUCKET_BITS
_CHUNK = 64


def _bucket(code):
    """The row of a trigram's code, its three bytes read big-endian: a
    multiplicative hash, the same for an int and for a uint32 array."""
    return ((code * 0x9E3779B1) & 0xFFFFFFFF) >> (32 - _BUCKET_BITS)


@contextmanager
def _collector_paused():
    """Loading, building and deriving an index's lookup tables allocate
    many objects and free no cycles, so the cyclic collector would only
    re-scan them as they grow (about a fifth of a large load, and a third
    of a distinct-scale build after parsing); it is switched back on
    afterwards. Also a decorator."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _ids_by(ids, values) -> dict[str, list[int]]:
    """The ``ids``, in order, by their rows' ``values``."""
    table: dict[str, list[int]] = {}
    for i, value in zip(ids, values):
        table.setdefault(value, []).append(i)
    return table


@dataclass(frozen=True)
class StructuralIndex:
    """Symbol graph and the source text it was built from: the fields are
    exactly what an index file holds, and no field can be reassigned.

    ``symbols``, ``edges`` and ``call_sites`` are record views over
    columns (``SymbolView``, ``EdgeView``, ``CallSiteView``): each makes
    its named tuple when one is indexed, and its named tuples, at C speed,
    when it is iterated, and keeps none. Given any other sequence of
    records, the constructor makes it the view of them. ``sources`` and
    ``includes`` (its lists made tuples) are copied, in path order, into
    dicts that refuse changes in place (``_Table``). The tables derived
    from the fields (``graph``, ``by_name``, ``by_qualified``,
    ``by_suffix``, ``trigrams`` and ``real``) are each made from the
    columns on their first read and kept.
    They are no fields, so they take no part in equality or ``repr``, and
    ``dataclasses.replace`` gives an index that derives its own."""

    symbols: SymbolView = ()
    edges: EdgeView = ()
    call_sites: CallSiteView = ()
    sources: dict[str, str] = field(default_factory=dict)
    includes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    repo_snapshot: str = ""
    parse_error_count: int = 0

    def __post_init__(self):
        for name, view in (("symbols", SymbolView), ("edges", EdgeView),
                           ("call_sites", CallSiteView)):
            if type(getattr(self, name)) is not view:
                object.__setattr__(self, name, view.of(getattr(self, name)))
        if type(self.sources) is not _Table:
            object.__setattr__(self, "sources", _Table(sorted(self.sources.items())))
        if type(self.includes) is not _Table:
            object.__setattr__(self, "includes", _Table(
                sorted((path, tuple(names)) for path, names in self.includes.items())))

    @cached_property
    @_collector_paused()
    def graph(self) -> Graph:
        edges, sites = self.edges, self.call_sites
        return Graph({kind: zip(*edges.ends_of(kind)) for kind in EdgeKind},
                     zip(sites.caller, sites.callee))

    @cached_property
    @_collector_paused()
    def by_name(self) -> dict[str, list[int]]:
        return _ids_by(self.symbols.ids, self.symbols.name)

    @cached_property
    @_collector_paused()
    def by_qualified(self) -> dict[str, list[int]]:
        return _ids_by(self.symbols.ids, self.symbols.qualified_name)

    @cached_property
    @_collector_paused()
    def by_suffix(self) -> dict[str, list[int]]:
        """Ids by every trailing scope path of two or more segments: "b::c"
        holds the ids of "a::b::c" and "x::b::c"."""
        table: dict[str, list[int]] = {}
        for i, name in zip(self.symbols.ids, self.symbols.qualified_name):
            cut = name.find("::")
            while cut != -1:
                suffix = name[cut + 2 :]
                if "::" in suffix:
                    table.setdefault(suffix, []).append(i)
                cut = name.find("::", cut + 1)
        return table

    @cached_property
    def real(self) -> tuple[tuple[int, ...], tuple[str, ...], tuple[str, ...]]:
        """The ids, qualified names and kind values of the rows that are
        not synthetic: the rows an intent document stands for. The closure
        check reads it, so a build or a load has made it. It is read from
        the kind codes, in numpy (see ``_check_columns``), and the rows
        ``sentinel_rows`` finds."""
        import numpy as np

        symbols = self.symbols
        codes = np.asarray(symbols.kind, dtype=np.intp)
        synthetic = np.array([k is SymbolKind.FILE for k in symbols.kinds], dtype=bool)[codes]
        synthetic[sentinel_rows(symbols.qualified_name)] = True
        real = ~synthetic
        ids = np.flatnonzero(real)
        values = np.array([k.value for k in symbols.kinds], dtype=object)
        return (tuple(ids.tolist()), tuple(compress(symbols.qualified_name, real.tolist())),
                tuple(values[codes[ids]].tolist()))

    @cached_property
    def trigrams(self) -> tuple[list[str], list[int], int]:
        """The grep filter: the paths of the sources, in order; the rows;
        and the rows' width in bits. Bit ``width - 1 - f`` of row b
        is set when file f holds a trigram of bucket b. Texts are UTF-8
        encoded with lone surrogates passed through, as patterns are, so a
        pattern's bytes lie in the bytes of every text holding it."""
        import numpy as np  # here, not at the top: see _check_columns

        paths, texts = list(self.sources), iter(self.sources.values())
        bitmap = np.zeros((_BUCKETS, (len(paths) + 7) // 8), dtype=np.uint8)
        for first in range(0, len(paths), _CHUNK):
            data = [text.encode("utf-8", "surrogatepass")
                    for text in islice(texts, _CHUNK)]
            file = np.repeat(np.arange(len(data)), [len(d) for d in data])
            b = np.frombuffer(b"".join(data), dtype=np.uint8).astype(np.uint32)
            buckets = _bucket((b[:-2] << 16) | (b[1:-1] << 8) | b[2:])
            inside = file[:-2] == file[2:]  # a trigram ends in the file it starts in
            seen = np.zeros((_BUCKETS, len(data)), dtype=bool)
            seen[buckets[inside], file[2:][inside]] = True
            bits = np.packbits(seen, axis=1)
            bitmap[:, first // 8 : first // 8 + bits.shape[1]] = bits
        rows = [0] * _BUCKETS
        for bucket in np.flatnonzero(bitmap.any(axis=1)).tolist():
            rows[bucket] = int.from_bytes(bitmap[bucket].tobytes(), "big")
        return paths, rows, bitmap.shape[1] * 8

    def grep_candidates(self, data: bytes):
        """The (path, text) pairs, in path order, of the files holding a
        trigram of each bucket that a trigram of ``data``, 3 bytes or
        more, hashes to."""
        paths, rows, width = self.trigrams
        sources = self.sources
        held = -1
        for i in range(len(data) - 2):
            held &= rows[_bucket(int.from_bytes(data[i : i + 3], "big"))]
        bits = format(held, f"0{width}b")
        f = bits.find("1")
        while f >= 0:
            yield paths[f], sources[paths[f]]
            f = bits.find("1", f + 1)

    def parent(self, symbol_id: int) -> int | None:
        parents = self.graph.sources(EdgeKind.CONTAINS, symbol_id)
        return parents[0] if parents else None


def build_index(repo: Repository) -> StructuralIndex:
    """Parse every header/source unit and assemble the resolved graph,
    with the cyclic collector paused as on load. Raises ``CorruptIndex``
    when the result fails its closure check, which runs once the build's
    own tables are freed."""
    with _collector_paused():
        index = _assembled(repo)
    try:
        _check_closure(index)
    except AssertionError as exc:
        raise CorruptIndex(f"the built index fails its closure check: {exc}") from exc
    return index


def _assembled(repo: Repository) -> StructuralIndex:
    """The index that ``build_index`` checks: parse, resolve, assemble."""
    signatures: dict = {}  # one normalization per distinct parameter list
    parsed = [parse_unit(unit, signatures) for unit in repo.units  # sorted by path
              if unit.kind in ("header", "source")]

    # every unit's records in one list, so that a record's id is its row
    offsets = list(accumulate((len(pu.symbols) for pu in parsed), initial=0))
    columns = _transposed(chain.from_iterable(pu.symbols for pu in parsed),
                          SymbolRecord)
    kinds, names, qualified = columns[1:4]
    pairs, sites = _resolved(parsed, offsets, columns)

    # --- sentinels and call sites ------------------------------------
    sentinels = sorted({target for *_, target in sites if type(target) is str})
    sentinel_ids = dict(zip(sentinels, count(offsets[-1])))
    sites = sorted((path, line, caller, sentinel_ids.get(target, target))
                   for path, line, caller, target in sites)
    pairs[EdgeKind.CALLS] = {(caller, callee) for _, _, caller, callee in sites}
    path, line, caller, callee = list(zip(*sites)) or [()] * 4
    # a point span cannot end before it starts
    call_sites = CallSiteView.of_fields(caller, callee, path, line, line)

    # --- overloads ---------------------------------------------------
    groups: dict[tuple[str, str], list[int]] = {}
    functions = map(FUNCTION_KINDS.__contains__, kinds)
    real = map(not_, synthetic_flags(kinds, qualified))
    for i in compress(count(), map(and_, functions, real)):
        name = names[i]
        scope_prefix = qualified[i][: -len(name)].rstrip(":")
        groups.setdefault((scope_prefix, name), []).append(i)
    pairs[EdgeKind.OVERLOAD_OF] = set(
        chain.from_iterable(combinations(ids, 2) for ids in groups.values()))

    # the parsed rows, then the sentinels; a symbol's id is its row
    tail = _transposed((SymbolRecord(0, SymbolKind.FREE_FUNCTION, name,
                                     UNRESOLVED_PREFIX + name, is_definition=False)
                        for name in sentinels), SymbolRecord)
    columns = [head + more for head, more in zip(columns, tail)]
    # each kind's pairs in order, the kinds in EdgeKind's order; a kind's
    # pairs are let go once its columns are made
    return StructuralIndex(
        symbols=SymbolView.of_fields(range(len(columns[1])), *columns[1:]),
        edges=EdgeView(tuple(zip(*sorted(pairs.pop(kind)))) or ((), ())
                       for kind in EdgeKind),
        call_sites=call_sites,
        sources={u.path: u.content for u in repo.units},
        includes={pu.path: pu.includes for pu in parsed},
        repo_snapshot=repo.snapshot_id,
        parse_error_count=sum(pu.error_count for pu in parsed),
    )


def _resolved(parsed: list[ParsedUnit], offsets: list[int], columns
              ) -> tuple[dict[EdgeKind, set[tuple[int, int]]], list[tuple]]:
    """The (src, dst) pairs of each edge kind but calls, and the call
    sites as (file, line, caller, callee) rows, whose callee is an id or,
    for a call that names no symbol, the callee text. The tables that
    resolution reads go when it returns, before the index is made."""
    pairs: dict[EdgeKind, set[tuple[int, int]]] = {
        k: set() for k in (EdgeKind.CONTAINS, EdgeKind.INHERITS_FROM)}
    for pu, off in zip(parsed, offsets):
        pairs[EdgeKind.CONTAINS].update(
            (parent + off, child + off) for parent, child in pu.contains)

    # --- inheritance -------------------------------------------------
    resolver = _Resolver(columns)
    for pu, off in zip(parsed, offsets):
        for pending in pu.pending_bases:
            derived = pending.derived + off
            base = resolver.base(derived, pending.base_text)
            if base is not None and base != derived:
                pairs[EdgeKind.INHERITS_FROM].add((derived, base))
            elif base is None:
                log.debug("unresolved base %r of %s", pending.base_text,
                          resolver.qualified[derived])

    # containment and inheritance are final here; calls and overrides read them
    resolver.graph = Graph(pairs)

    # --- calls -------------------------------------------------------
    sites: list[tuple[str, int, int, int | str]] = []
    # a call's target depends on nothing of its caller but the scope
    targets: dict[tuple[tuple[str, ...], str, bool], int | None] = {}
    for pu, off in zip(parsed, offsets):
        for call in pu.pending_calls:
            caller, callee_text = call.caller + off, call.callee_text
            key = (_scope_of(resolver.qualified[caller]), callee_text,
                   call.ctor_style)
            if key not in targets:
                targets[key] = resolver.call(*key)
            target = targets[key]
            sites.append((pu.path, call.line, caller,
                          callee_text if target is None else target))

    # --- overrides ---------------------------------------------------
    pairs[EdgeKind.OVERRIDES] = set(resolver.overrides())
    return pairs, sites


def _scope_of(qualified_name: str) -> tuple[str, ...]:
    """The enclosing scope's segments: all but the last."""
    return tuple(qualified_name.split("::")[:-1])


def _scope_prefixes(scope: tuple[str, ...]) -> list[str]:
    """Enclosing scope prefixes, innermost first, ending with '' (global)."""
    return ["::".join(scope[:k]) for k in range(len(scope), -1, -1)]


_METHOD_KINDS = (SymbolKind.MEMBER_FUNCTION, SymbolKind.TEMPLATE_FUNCTION)


class _Resolver:
    """Name resolution over the parsed rows of one build, read from their
    columns (``SymbolRecord`` fields in order, ids as rows). A qualified
    name's candidates and the prefixes a scope's bare callees are looked up
    in are each worked out once, and kept by this resolver alone. ``graph``,
    over containment and inheritance, is set before calls are resolved."""

    graph: Graph

    def __init__(self, columns):
        (_, self.kinds, self.names, qualified, self.signatures, _,
         self.defined, _, _, self.virtual, self.override) = columns
        self.by_qualified: dict[str, list[int]] = {}
        for i, name in enumerate(qualified):
            self.by_qualified.setdefault(name, []).append(i)
        self.qualified = qualified
        # qualified name -> (function, constructor or class) it would call
        self._candidates: dict[str, tuple[int | None, int | None]] = {}
        # scope -> prefixes a bare callee in it is looked up under
        self._bare: dict[tuple[str, ...], list[str]] = {}

    def base(self, derived: int, base_text: str) -> int | None:
        """A base specifier's class definition: the first under the
        derived class's innermost scope prefix that has one."""
        kinds, defined = self.kinds, self.defined
        for prefix in _scope_prefixes(_scope_of(self.qualified[derived])):
            qualified = f"{prefix}::{base_text}" if prefix else base_text
            for i in self.by_qualified.get(qualified, ()):
                if kinds[i] in CLASS_KINDS and defined[i]:
                    return i
        return None

    def call(self, scope: tuple[str, ...], callee_text: str,
             ctor_style: bool) -> int | None:
        """Three-step lookup for bare callees: member of the enclosing
        class, then the innermost enclosing namespace, then global scope.
        Enclosure is the caller's ``scope`` (from its qualified name), so an
        out-of-line member definition still sees its class. Qualified
        callees walk the scope's prefixes outward instead. Under each
        prefix, plain calls prefer a function and constructor-style calls a
        class, which lands on its constructor."""
        if "::" in callee_text:
            prefixes = _scope_prefixes(scope)
        else:
            prefixes = self._bare.get(scope)
            if prefixes is None:
                prefixes = self._bare[scope] = self._enclosing(scope)
        for prefix in prefixes:
            qualified = f"{prefix}::{callee_text}" if prefix else callee_text
            function, ctor = self._candidates.get(qualified) or self._pick(qualified)
            found = (ctor if ctor is not None else function) if ctor_style else (
                function if function is not None else ctor)
            if found is not None:
                return found
        return None

    def _enclosing(self, scope: tuple[str, ...]) -> list[str]:
        """The innermost prefix of ``scope`` naming a class, then the
        innermost naming a namespace (when another), then ''."""
        kinds, by_qualified = self.kinds, self.by_qualified
        cls = ns = None
        for k in range(len(scope), 0, -1):
            prefix = "::".join(scope[:k])
            ids = by_qualified.get(prefix, ())
            if cls is None and any(kinds[i] in CLASS_KINDS for i in ids):
                cls = prefix
            if ns is None and any(kinds[i] is SymbolKind.NAMESPACE for i in ids):
                ns = prefix
        prefixes = [] if cls is None else [cls]
        if ns is not None and ns not in prefixes:
            prefixes.append(ns)
        prefixes.append("")
        return prefixes

    def _pick(self, qualified: str) -> tuple[int | None, int | None]:
        """The function and the class named ``qualified`` that a call
        would reach, each the first definition among them or else the
        first; the class as its first constructor, if it has one."""
        kinds, defined = self.kinds, self.defined
        function = cls = None
        for i in self.by_qualified.get(qualified, ()):
            if kinds[i] in FUNCTION_KINDS:
                if function is None or defined[i] and not defined[function]:
                    function = i
            elif kinds[i] in CLASS_KINDS:
                if cls is None or defined[i] and not defined[cls]:
                    cls = i
        if cls is not None:
            cls = next((c for c in self.graph.targets(EdgeKind.CONTAINS, cls)
                        if kinds[c] is SymbolKind.CONSTRUCTOR), cls)
        self._candidates[qualified] = (function, cls)
        return function, cls

    def overrides(self):
        """The (member, target) pairs of ``overrides`` edges: each member
        function of a class definition, to every matching member at the
        nearest level of its class's ancestors that has one."""
        kinds, targets = self.kinds, self.graph.targets
        for cls in range(len(kinds)):
            if kinds[cls] not in CLASS_KINDS or not self.defined[cls]:
                continue
            for member in targets(EdgeKind.CONTAINS, cls):
                if kinds[member] in _METHOD_KINDS:
                    for target in self._override_targets(cls, member):
                        yield member, target

    def _override_targets(self, class_id: int, member: int) -> list[int]:
        """Nearest-level search over the ancestor lattice for a matching
        virtual member; all matches at the first matching depth are
        returned."""
        kinds, names, signatures = self.kinds, self.names, self.signatures
        targets = self.graph.targets
        name, signature = names[member], signatures[member]
        marked = self.override[member]
        frontier = list(targets(EdgeKind.INHERITS_FROM, class_id))
        visited = set(frontier)
        while frontier:
            matches = [
                c for base in frontier for c in targets(EdgeKind.CONTAINS, base)
                if kinds[c] in _METHOD_KINDS and names[c] == name
                and signatures[c] == signature and (self.virtual[c] or marked)
            ]
            if matches:
                return sorted(matches)
            nxt: list[int] = []
            for base in frontier:
                for up in targets(EdgeKind.INHERITS_FROM, base):
                    if up not in visited:
                        visited.add(up)
                        nxt.append(up)
            frontier = sorted(nxt)
        return []


def _check_closure(index: StructuralIndex):
    """Check a built or loaded index: dense ids, then ``_check_columns``
    over its columns."""
    symbols, edges, sites = index.symbols, index.edges, index.call_sites
    if symbols.ids != range(len(symbols)) and any(map(ne, symbols.ids, count())):
        raise AssertionError("symbol ids are not dense")
    _check_columns(
        symbols.name,
        symbols.qualified_name,
        index.real[0],
        edges.ends_of(EdgeKind.CONTAINS),
        [ids for pair in edges.ends for ids in pair],
        [sites.caller, sites.callee],
    )


def _check_columns(names, qualified_names, real, contains, edge_ends, site_ends):
    """The closure of a symbol graph given as columns, whose ids are rows:
    every qualified name ends in its name; every edge end (``edge_ends``)
    and call-site end (``site_ends``) is a row; and the ``contains`` pairs
    (parents, children; their columns are among ``edge_ends``) make a
    forest whose roots are exactly the rows not in ``real``. Raises
    ``AssertionError`` otherwise."""
    # imported here, not at the top, to keep numpy's import order (and so
    # peak RSS) as it was; masks are tested with count_nonzero, which,
    # unlike any/all, sets up no reduction on first use (64 KB of RSS)
    import numpy as np

    n = len(names)
    if not all(map(str.endswith, qualified_names, names)):
        name = next(b for a, b in zip(qualified_names, names) if not a.endswith(b))
        raise AssertionError(f"qualified name mismatch for {name!r}")
    for what, columns in (("edge", edge_ends), ("call site", site_ends)):
        ids = np.concatenate([np.asarray(ids, dtype=np.intp) for ids in columns])
        outside = (ids < 0) | (ids >= n)
        if np.count_nonzero(outside):
            raise AssertionError(f"dangling {what} end {ids[np.argmax(outside)]}")
    parents, children = (np.asarray(ids, dtype=np.intp) for ids in contains)
    counts = np.bincount(children, minlength=n)
    if np.count_nonzero(counts > 1):
        raise AssertionError(f"symbol {int(np.argmax(counts > 1))} has two parents")
    rooted = counts == 0
    synthetic = np.ones(n, dtype=bool)
    synthetic[np.fromiter(real, dtype=np.intp, count=len(real))] = False
    if np.count_nonzero(synthetic & ~rooted):
        raise AssertionError("synthetic symbol must be a root")
    if np.count_nonzero(rooted & ~synthetic):
        raise AssertionError(
            f"symbol {int(np.argmax(rooted & ~synthetic))} lacks a containment parent"
        )
    # acyclicity by pointer jumping: after k rounds ``up`` holds each row's
    # 2**k-th ancestor (a root holds itself), so once 2**k >= n every row
    # outside a cycle has reached its root
    up = np.arange(n)
    up[children] = parents
    reach = 1
    while reach < n:
        up = up[up]
        reach *= 2
    if np.count_nonzero(~rooted[up]):
        raise AssertionError("containment cycle")


# ----------------------------------------------------------------------
# persistence


@dataclass
class IndexContainer:
    """What actually lands on disk: the structural graph and, when built,
    the intent index, under one magic header and format version."""

    structural: StructuralIndex
    intent: "object | None" = None  # IntentIndex, kept loose to avoid a cycle

    @property
    def repo_snapshot(self) -> str:
        return self.structural.repo_snapshot


# Columns of the v5 layout, each with the type of its cells. A symbol's id
# is its row; its kind is a row of the "kinds" table, and its file a row of
# "", no file (an unresolved sentinel's), and then the sources' paths.
_LOCATION_COLUMNS = {"file": int, "start_line": int, "end_line": int}
# the rest of a SymbolRecord's fields, in their order
_RECORD_COLUMNS = {
    "name": str,
    "qualified_name": str,
    "signature": str,
    "is_definition": bool,
    "template_params": str,
    "doc_comment": str,
    "is_virtual": bool,
    "has_override": bool,
}
_SYMBOL_COLUMNS = {"kind": int, **_LOCATION_COLUMNS, **_RECORD_COLUMNS}
_EDGE_COLUMNS = {"from": int, "to": int}
_SITE_COLUMNS = {"caller": int, "callee": int, **_LOCATION_COLUMNS}
# each source's path and its length in the sources section, and each intent
# text's length in the texts section
_SOURCE_COLUMNS = {"paths": str, "lengths": int}
_TEXT_COLUMNS = {"lengths": int}

# An int column is packed: its values as little-endian unsigned ints of one
# width, 1, 2 or 4 bytes, in one base64 string, written with its width as
# {"width": w, "data": "..."}. JSON spends about 55 ns on each int cell it
# decodes; an array is read from bytes in one call. The array typecode of
# each width:
_TYPECODES = {1: "B", 2: "H", 4: "I"}


def _uints(width: int, values=()):
    """An ``array`` of unsigned ints of ``width`` bytes. The module is
    imported here, not at the top, so that a process that neither reads nor
    writes an index file does not load it (72 KB of RSS)."""
    from array import array

    uints = array(_TYPECODES[width], values)
    if uints.itemsize != width:
        raise RuntimeError(f"array {uints.typecode!r} is not {width} bytes here")
    return uints


def _pack(values, name: str) -> dict:
    """An int column in the narrowest width that holds its largest value.
    Raises ``CorruptIndex`` for a value below 0 or of 2**32 or more, which
    no width holds, rather than truncate it."""
    top = max(values, default=0)
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    try:  # a value below 0 or of 2**32 or more fits no width
        packed = _uints(width, values)
    except OverflowError as exc:
        raise CorruptIndex(
            f"column {name!r} holds a value outside 0 .. 2**32 - 1") from exc
    if sys.byteorder == "big":
        packed.byteswap()
    return {"width": width, "data": base64.b64encode(packed.tobytes()).decode("ascii")}


def _unpack(column: dict, rows: int) -> memoryview:
    """The ``rows`` values of a column ``_pack`` wrote, as a read-only
    memoryview of its bytes in native order."""
    width, data = column["width"], column["data"]
    if type(width) is not int or width not in _TYPECODES:
        raise ValueError(f"a packed column's width is {width!r}, not 1, 2 or 4")
    # anything but a str is a TypeError, and bad base64 a ValueError
    raw = base64.b64decode(data, validate=True)
    if len(raw) != width * rows:
        raise ValueError(f"a packed column holds {len(raw)} bytes, not {width} x {rows}")
    if sys.byteorder == "big":
        values = _uints(width)
        values.frombytes(raw)
        values.byteswap()
        raw = values.tobytes()
    values = memoryview(raw).cast(_TYPECODES[width])
    if values.itemsize != width:
        raise RuntimeError(f"format {values.format!r} is not {width} bytes here")
    return values


def _bits(values) -> str:
    """A bool column as one base64 string of bits: row i is bit i % 8 of
    byte i // 8, and the last byte's bits past the rows are 0. JSON spends
    about as long on each ``true`` or ``false`` it decodes as on the check
    of its type, which a bit needs neither of."""
    import numpy as np

    flags = np.fromiter(values, dtype=bool, count=len(values))
    return base64.b64encode(np.packbits(flags, bitorder="little").tobytes()).decode("ascii")


def _unbits(data: str, rows: int) -> memoryview:
    """The ``rows`` bools of a column ``_bits`` wrote, as a read-only
    memoryview of one byte per row that reads as ``bool``s."""
    import numpy as np

    raw = base64.b64decode(data, validate=True)
    if len(raw) != (rows + 7) // 8 or (rows % 8 and raw[-1] >> rows % 8):
        raise ValueError(f"a bits column holds {len(raw)} bytes, not the bits of {rows}")
    flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=rows,
                          bitorder="little")
    return memoryview(flags.tobytes()).cast("?")


def write_columns(table: dict, types: dict[str, type]) -> dict:
    """The named columns of one table, sequences of one length, as
    ``read_columns`` reads them: an int column packed (``_pack``), a bool
    column as bits (``_bits``), a str column a list; and, when every column
    is packed, the length as ``rows``."""
    out = {name: list(table[name]) if cell is str else
           _pack(table[name], name) if cell is int else _bits(table[name])
           for name, cell in types.items()}
    if all(cell is int for cell in types.values()):
        out["rows"] = len(table[next(iter(types))])
    return out


def _are_strs(cells) -> bool:
    """Whether each of ``cells`` is a str: ``join`` checks each cell's
    type in C, in a third of the time of a loop over the types."""
    try:
        "".join(cells)
    except TypeError:
        return False
    return True


def read_columns(table: dict, types: dict[str, type]) -> list:
    """The named columns of one table, checked to be of one length: a str
    column as a list of str, an int column, packed, as a memoryview, and a
    bool column, as bits, as a memoryview that reads as ``bool``s. The
    length is the lists', or the table's ``rows`` when it has no list; a
    table of no rows may hold nothing else (as an empty edge kind's
    does)."""
    lists = [name for name, cell in types.items() if cell is str]
    for name in lists:
        if type(table[name]) is not list or not _are_strs(table[name]):
            raise ValueError(f"column {name!r} is not a list of str")
    if lists:
        lengths = {len(table[name]) for name in lists}
        if len(lengths) > 1:
            raise ValueError(f"columns {', '.join(lists)} differ in length")
        (rows,) = lengths
    else:
        rows = table["rows"]
        if type(rows) is not int or rows < 0:
            raise ValueError(f"a table's rows are {rows!r}, not a count")
        if not rows and table.keys() == {"rows"}:
            return [()] * len(types)
    return [table[name] if cell is str else _unpack(table[name], rows) if cell is int
            else _unbits(table[name], rows) for name, cell in types.items()]


def _check_codes(codes: list, spans: list):
    """Each ``column`` of the (column, what, table) triples ``codes`` holds
    rows of its ``table``, and no span of ``spans`` ((starts, ends)
    columns) ends before it starts: the memoryviews ``read_columns`` gives,
    tested in numpy with ``count_nonzero`` (see ``_check_columns``)."""
    import numpy as np

    for column, what, table in codes:
        if np.count_nonzero(np.asarray(column) >= len(table)):
            raise ValueError(f"{what} index out of range")
    for starts, ends in spans:
        if np.count_nonzero(np.asarray(starts) > np.asarray(ends)):
            raise ValueError("a span ends before it starts")


def _recoded(codes, table, rows: dict) -> list:
    """``codes``, rows of ``table``, as the ``rows`` of their values."""
    return list(map([rows.get(value) for value in table].__getitem__, codes))


def _ends(lengths) -> memoryview:
    """The offsets of strs of ``lengths`` laid end to end, as a ``Joined``
    keeps them, read-only: one numpy pass, where a Python ``accumulate``
    takes about seven times as long."""
    import numpy as np

    ends = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ends[1:])
    return memoryview(ends).toreadonly()


def _section(texts: Joined) -> tuple[str, list[int]]:
    """The run of text that ``texts`` covers, and the length of each."""
    ends = texts.ends
    return texts.text[ends[0] : ends[-1]], list(map(sub, islice(ends, 1, None), ends))


def _structural_to_dict(index: StructuralIndex) -> dict:
    """The header's tables of an index, whose sources' texts are the first
    section. A symbol's or a call site's file, and each file the includes
    name, is a row of "" and the sources' paths, and ``kinds`` are
    ``SymbolKind``'s, so an index's own tables never show. Raises
    ``CorruptIndex`` for a file that has no source."""
    symbols, sites, edges, sources = (index.symbols, index.call_sites, index.edges,
                                      index.sources)
    rows = dict(zip(("", *sources), count()))
    named = {*map(symbols.files.__getitem__, set(symbols.file)),
             *map(sites.files.__getitem__, set(sites.file)), *index.includes}
    if not named <= rows.keys():
        raise CorruptIndex(f"file {min(named - rows.keys())!r} has no source")
    symbol_columns = {name: getattr(symbols, name) for name in _SYMBOL_COLUMNS}
    symbol_columns["kind"] = _recoded(symbols.kind, symbols.kinds,
                                      {k: i for i, k in enumerate(SymbolKind)})
    symbol_columns["file"] = _recoded(symbols.file, symbols.files, rows)
    site_columns = {name: getattr(sites, name) for name in _SITE_COLUMNS}
    site_columns["file"] = _recoded(sites.file, sites.files, rows)
    return {
        "kinds": [k.value for k in SymbolKind],
        "symbols": write_columns(symbol_columns, _SYMBOL_COLUMNS),
        # an empty edge kind is its row count alone
        "edges": {k.value: write_columns(dict(zip(_EDGE_COLUMNS, ends)), _EDGE_COLUMNS)
                  if ends[0] else {"rows": 0} for k, ends in zip(EdgeKind, edges.ends)},
        "call_sites": write_columns(site_columns, _SITE_COLUMNS),
        "sources": write_columns({"paths": list(sources),
                                  "lengths": list(map(len, sources.values()))},
                                 _SOURCE_COLUMNS),
        "includes": {"file": _pack([rows[path] for path in index.includes], "includes"),
                     "names": list(index.includes.values())},
        "parse_error_count": index.parse_error_count,
    }


def _structural_from_dict(d: dict, snapshot: str,
                          text: str) -> tuple[StructuralIndex, int]:
    """The index ``_structural_to_dict`` wrote, its columns kept as read,
    whose sources are the strs ``text`` starts with, each sliced from it;
    and where they end in ``text`` by their lengths, which may lie past
    it. Every check runs here, so that no record made later can fail."""
    includes, errors = d["includes"], d["parse_error_count"]
    if type(snapshot) is not str or type(errors) is not int:
        raise ValueError("repo_snapshot must be a str and parse_error_count an int")
    names = includes["names"]
    if type(names) is not list or not set(map(type, names)) <= {list} \
            or not _are_strs(chain.from_iterable(names)):
        raise ValueError("includes must give each file a list of str")
    included = _unpack(includes["file"], len(names))
    paths, lengths = read_columns(d["sources"], _SOURCE_COLUMNS)
    if any(map(ge, paths, paths[1:])):
        raise ValueError("source paths are not sorted and distinct")
    (kinds,) = read_columns(d, {"kinds": str})
    kinds = [SymbolKind(k) for k in kinds]
    symbols = read_columns(d["symbols"], _SYMBOL_COLUMNS)  # kind, file, lines, ...
    if set(d["edges"]) != {k.value for k in EdgeKind}:
        raise ValueError(f"edge kinds {sorted(d['edges'])} are not EdgeKind's")
    ends = [read_columns(d["edges"][k.value], _EDGE_COLUMNS) for k in EdgeKind]
    sites = read_columns(d["call_sites"], _SITE_COLUMNS)  # caller, callee, file, ...
    files, offsets = ("", *paths), _ends(lengths)
    _check_codes([(symbols[0], "kind", kinds), (symbols[1], "file", files),
                  (sites[2], "file", files), (included, "includes file", files)],
                 [symbols[2:4], sites[3:5]])
    # each above the one before, the first above no file
    if any(map(ge, chain((0,), included), included)):
        raise ValueError("includes files are not distinct sources in path order")
    index = StructuralIndex(
        symbols=SymbolView(kinds, files, range(len(symbols[0])), *symbols),
        edges=EdgeView(ends),
        call_sites=CallSiteView(files, *sites),
        sources=_Table(zip(paths, map(text.__getitem__,
                                      map(slice, offsets, offsets[1:])))),
        includes=_Table(zip(map(files.__getitem__, included), map(tuple, names))),
        repo_snapshot=snapshot,
        parse_error_count=errors,
    )
    _check_closure(index)
    return index, offsets[-1]


def persist_index(
    container: IndexContainer | StructuralIndex, path: str | Path
) -> None:
    """Write the versioned container: a JSON header line, then the texts of
    the sources and then the intent texts, each run UTF-8 encoded with lone
    surrogates passed through. Identical indices produce identical
    bytes."""
    if isinstance(container, StructuralIndex):
        container = IndexContainer(structural=container)
    sections = ["".join(container.structural.sources.values())]
    intent_dict = None
    if container.intent is not None:
        section, lengths = _section(container.intent.texts)
        intent_dict = {**container.intent.header(),
                       "docs": write_columns({"lengths": lengths}, _TEXT_COLUMNS)}
        sections.append(section)
    payload = {
        "format": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "repo_snapshot": container.repo_snapshot,
        "structural": _structural_to_dict(container.structural),
        "intent": intent_dict,
    }
    header = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as out:
        out.write(header.encode("ascii") + b"\n")
        for section in sections:
            out.write(section.encode("utf-8", "surrogatepass"))


def load_index(
    path: str | Path, expected_snapshot: str | None = None
) -> IndexContainer:
    """Read a container back; warns with ``StaleIndexWarning`` when the
    stored snapshot differs from ``expected_snapshot``. The structural
    index keeps the columns it decodes and makes no record; beyond the
    closure check and the ``real`` rows it reads it derives nothing: the
    structural tables and the hash embedder's intent vectors are each made
    on the first query that reads them. The intent documents are the
    ``real`` rows, kept as columns with no object per document. The file
    is decoded once; the sources are sliced from it, one str per file,
    and the intent texts kept as a str of their own, read by slicing."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CorruptIndex(f"cannot read index file {path}: {exc}") from exc
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    with _collector_paused():
        try:
            payload = json.loads(str(memoryview(data)[:end], "utf-8"))
        except (ValueError, RecursionError) as exc:  # or nested too deep
            raise CorruptIndex(
                f"index file {path} has no valid UTF-8 JSON header") from exc
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_MAGIC:
            raise CorruptIndex(f"index file {path} has a foreign or missing header")
        if payload.get("version") != FORMAT_VERSION:
            raise VersionMismatch(
                f"index version {payload.get('version')} != {FORMAT_VERSION}"
            )
        try:
            text = str(memoryview(data)[end + 1 :], "utf-8", "surrogatepass")
            del data
            snapshot = payload["repo_snapshot"]
            structural, end = _structural_from_dict(payload["structural"], snapshot, text)
            intent = None
            if payload.get("intent") is not None:
                from .intent import IntentIndex

                (lengths,) = read_columns(payload["intent"]["docs"], _TEXT_COLUMNS)
                texts = Joined(text[end:], _ends(lengths))
                end += texts.ends[-1]
                intent = IntentIndex.from_dict(
                    {**payload["intent"], "docs": {"text": texts}}, structural)
            if end != len(text):
                raise ValueError(f"the sections hold {len(text)} characters, not "
                                 f"the {end} their lengths sum to")
        except (KeyError, TypeError, ValueError, AttributeError,
                AssertionError) as exc:
            raise CorruptIndex(f"index file {path} is malformed: {exc!r}") from exc
    if expected_snapshot is not None and expected_snapshot != snapshot:
        warnings.warn(
            StaleIndexWarning(
                f"index built from snapshot {snapshot[:12]} but repository "
                f"is at {expected_snapshot[:12]}"
            )
        )
    return IndexContainer(structural=structural, intent=intent)
