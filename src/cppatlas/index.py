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
holds. Every table derived from them is made on its first read and kept
(a ``functools.cached_property``): the ``graph`` that queries walk rather
than scanning edges, the lookups ``by_name``, ``by_qualified`` and
``by_suffix``, and the trigram filter that ``queries.grep_baseline``
reads. Neither ``build_index`` nor ``load_index`` derives any of them;
both run the closure check.

Resolution reads an interim index over the real symbols, for its
``by_qualified``, and an interim graph over containment and inheritance.
A call's target depends only on the caller's enclosing scope, the callee
text and whether the call is constructor-style, so each distinct such key
is resolved once per build. The ``unresolved:`` sentinels get the largest
ids.

The result is deterministic: identical repositories produce identical
indices, ids, edge lists and serialized bytes.
"""

from __future__ import annotations

import gc
import json
import logging
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, count, repeat
from operator import gt
from pathlib import Path

from .cxx.parser import ParsedUnit, parse_unit
from .errors import CorruptIndex, VersionMismatch
from .errors import StaleIndexWarning
from .model import (
    CLASS_KINDS,
    FUNCTION_KINDS,
    UNRESOLVED_PREFIX,
    CallSite,
    EdgeKind,
    Location,
    StructuralEdge,
    SymbolKind,
    SymbolRecord,
)
from .repo import Repository

log = logging.getLogger(__name__)

FORMAT_MAGIC = "cppatlas-index"
FORMAT_VERSION = 2

_EDGE_ORDER = {k: i for i, k in enumerate(EdgeKind)}


class Graph:
    """Adjacency of one edge list, built once per index.

    For each ``EdgeKind`` it maps a node to its out-neighbours
    (``targets``) and in-neighbours (``sources``), each sorted by id, and
    it maps each caller and each callee to the positions of its call sites
    in the ``call_sites`` list it was built from. Returned lists are shared:
    callers must not mutate them.
    """

    def __init__(self, edges=(), call_sites=()):
        self._out: dict[EdgeKind, dict[int, list[int]]] = {k: {} for k in EdgeKind}
        self._in: dict[EdgeKind, dict[int, list[int]]] = {k: {} for k in EdgeKind}
        for e in edges:
            self._out[e.kind].setdefault(e.src, []).append(e.dst)
            self._in[e.kind].setdefault(e.dst, []).append(e.src)
        for table in (*self._out.values(), *self._in.values()):
            for ids in table.values():
                ids.sort()
        self._by_caller: dict[int, list[int]] = {}
        self._by_callee: dict[int, list[int]] = {}
        for pos, site in enumerate(call_sites):
            self._by_caller.setdefault(site.caller, []).append(pos)
            self._by_callee.setdefault(site.callee, []).append(pos)

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
    """An index's sources or includes, by path: a dict that refuses every
    change in place. It is written and compared as a plain dict."""

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


def _ids_by(symbols, attr: str) -> dict[str, list[int]]:
    """The ids of ``symbols``, in order, by the value of one attribute."""
    table: dict[str, list[int]] = {}
    for rec in symbols:
        table.setdefault(getattr(rec, attr), []).append(rec.symbol_id)
    return table


@dataclass(frozen=True)
class StructuralIndex:
    """Symbol graph and the source text it was built from: the fields are
    exactly what an index file holds, and no field can be reassigned.

    ``symbols``, ``edges`` and ``call_sites`` are made tuples of named
    tuples at construction, and ``sources`` and ``includes`` (its lists
    made tuples) are copied into dicts that refuse changes in place. The
    tables derived from the fields (``graph``, ``by_name``,
    ``by_qualified``, ``by_suffix`` and ``trigrams``) are each made on
    their first read and kept. They are no fields, so they take no part in
    equality or ``repr``, and ``dataclasses.replace`` gives an index that
    derives its own."""

    symbols: tuple[SymbolRecord, ...] = ()
    edges: tuple[StructuralEdge, ...] = ()
    call_sites: tuple[CallSite, ...] = ()
    sources: dict[str, str] = field(default_factory=dict)
    includes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    repo_snapshot: str = ""
    parse_error_count: int = 0

    def __post_init__(self):
        for name in ("symbols", "edges", "call_sites"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "sources", _Table(self.sources))
        object.__setattr__(self, "includes", _Table(
            (path, tuple(names)) for path, names in self.includes.items()))

    @cached_property
    def graph(self) -> Graph:
        return Graph(self.edges, self.call_sites)

    @cached_property
    def by_name(self) -> dict[str, list[int]]:
        return _ids_by(self.symbols, "name")

    @cached_property
    def by_qualified(self) -> dict[str, list[int]]:
        return _ids_by(self.symbols, "qualified_name")

    @cached_property
    def by_suffix(self) -> dict[str, list[int]]:
        """Ids by every trailing scope path of two or more segments: "b::c"
        holds the ids of "a::b::c" and "x::b::c"."""
        table: dict[str, list[int]] = {}
        for rec in self.symbols:
            name = rec.qualified_name
            cut = name.find("::")
            while cut != -1:
                suffix = name[cut + 2 :]
                if "::" in suffix:
                    table.setdefault(suffix, []).append(rec.symbol_id)
                cut = name.find("::", cut + 1)
        return table

    @cached_property
    def trigrams(self) -> tuple[list, list[int], int]:
        """The grep filter: the sources' (path, text) pairs in path order,
        the rows, and the rows' width in bits. Bit ``width - 1 - f`` of row
        b is set when file f holds a trigram of bucket b. Texts are UTF-8
        encoded with lone surrogates passed through, as patterns are, so a
        pattern's bytes lie in the bytes of every text holding it."""
        import numpy as np  # here, not at the top: see _check_columns

        files = sorted(self.sources.items())
        bitmap = np.zeros((_BUCKETS, (len(files) + 7) // 8), dtype=np.uint8)
        for first in range(0, len(files), _CHUNK):
            data = [text.encode("utf-8", "surrogatepass")
                    for _, text in files[first : first + _CHUNK]]
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
        return files, rows, bitmap.shape[1] * 8

    def grep_candidates(self, data: bytes):
        """The (path, text) pairs, in path order, of the files holding a
        trigram of each bucket that a trigram of ``data``, 3 bytes or
        more, hashes to."""
        files, rows, width = self.trigrams
        held = -1
        for i in range(len(data) - 2):
            held &= rows[_bucket(int.from_bytes(data[i : i + 3], "big"))]
        bits = format(held, f"0{width}b")
        f = bits.find("1")
        while f >= 0:
            yield files[f]
            f = bits.find("1", f + 1)

    def parent(self, symbol_id: int) -> int | None:
        parents = self.graph.sources(EdgeKind.CONTAINS, symbol_id)
        return parents[0] if parents else None


def build_index(repo: Repository) -> StructuralIndex:
    """Parse every header/source unit and assemble the resolved graph."""
    parsed: list[ParsedUnit] = []
    for unit in repo.units:  # units are sorted by path
        if unit.kind in ("header", "source"):
            parsed.append(parse_unit(unit))

    # every unit's records in one list, so that a record's id is its row
    offsets = list(accumulate((len(pu.symbols) for pu in parsed), initial=0))
    columns = list(zip(*chain.from_iterable(pu.symbols for pu in parsed)))
    symbols = _bulk(SymbolRecord, zip(range(offsets[-1]), *columns[1:]))

    edges: set[StructuralEdge] = set()
    for pu, off in zip(parsed, offsets):
        for parent, child in pu.contains:
            edges.add(
                StructuralEdge(EdgeKind.CONTAINS, parent + off, child + off)
            )

    # resolution looks names up among the real symbols only
    real = StructuralIndex(symbols=symbols)

    # --- inheritance -------------------------------------------------
    for pu, off in zip(parsed, offsets):
        for pending in pu.pending_bases:
            derived = pending.derived + off
            base = _resolve_base(real, derived, pending.base_text)
            if base is not None and base != derived:
                edges.add(StructuralEdge(EdgeKind.INHERITS_FROM, derived, base))
            elif base is None:
                log.debug(
                    "unresolved base %r of %s",
                    pending.base_text,
                    symbols[derived].qualified_name,
                )

    # containment and inheritance are final here; calls and overrides read them
    graph = Graph(edges)

    # --- calls -------------------------------------------------------
    raw_calls: list[tuple[int, str, bool, int, str]] = []
    for pu, off in zip(parsed, offsets):
        for call in pu.pending_calls:
            raw_calls.append(
                (call.caller + off, call.callee_text, call.ctor_style, call.line, pu.path)
            )
    resolved: list[tuple[int, int | str, Location]] = []
    unresolved_names: set[str] = set()
    # a call's target depends on nothing of its caller but the scope
    targets: dict[tuple[tuple[str, ...], str, bool], int | None] = {}
    for caller, callee_text, ctor_style, line, path in raw_calls:
        scope = _scope_of(symbols[caller].qualified_name)
        key = (scope, callee_text, ctor_style)
        if key not in targets:
            targets[key] = _resolve_call(real, graph, *key)
        target = targets[key]
        loc = Location(path, line, line)
        if target is None:
            unresolved_names.add(callee_text)
            resolved.append((caller, callee_text, loc))
        else:
            resolved.append((caller, target, loc))

    sentinel_ids: dict[str, int] = {}
    for name in sorted(unresolved_names):
        sid = len(symbols)
        symbols.append(
            SymbolRecord(
                symbol_id=sid,
                kind=SymbolKind.FREE_FUNCTION,
                name=name,
                qualified_name=f"{UNRESOLVED_PREFIX}{name}",
                location=Location("", 0, 0),
                is_definition=False,
            )
        )
        sentinel_ids[name] = sid

    call_sites: list[CallSite] = []
    for caller, target, loc in resolved:
        callee = target if isinstance(target, int) else sentinel_ids[target]
        call_sites.append(CallSite(caller, callee, loc))
        edges.add(StructuralEdge(EdgeKind.CALLS, caller, callee))

    # --- overloads ---------------------------------------------------
    groups: dict[tuple[str, str], list[int]] = defaultdict(list)
    for rec in symbols:
        if rec.kind in FUNCTION_KINDS and not rec.is_synthetic:
            scope_prefix = rec.qualified_name[: -len(rec.name)].rstrip(":")
            groups[(scope_prefix, rec.name)].append(rec.symbol_id)
    for ids in groups.values():
        if len(ids) < 2:
            continue
        ids.sort()
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                edges.add(StructuralEdge(EdgeKind.OVERLOAD_OF, ids[a], ids[b]))

    # --- overrides ---------------------------------------------------
    for rec in symbols:
        if rec.kind not in CLASS_KINDS or not rec.is_definition:
            continue
        members = [
            symbols[c]
            for c in graph.targets(EdgeKind.CONTAINS, rec.symbol_id)
            if symbols[c].kind
            in (SymbolKind.MEMBER_FUNCTION, SymbolKind.TEMPLATE_FUNCTION)
        ]
        for member in members:
            for target in _find_override_targets(
                real, graph, rec.symbol_id, member
            ):
                edges.add(
                    StructuralEdge(EdgeKind.OVERRIDES, member.symbol_id, target)
                )

    call_sites.sort(
        key=lambda c: (c.location.file, c.location.start_line, c.caller, c.callee)
    )
    index = StructuralIndex(
        symbols=symbols,
        edges=sorted(edges, key=lambda e: (_EDGE_ORDER[e.kind], e.src, e.dst)),
        call_sites=call_sites,
        sources={u.path: u.content for u in repo.units},
        includes={pu.path: pu.includes for pu in parsed},
        repo_snapshot=repo.snapshot_id,
        parse_error_count=sum(pu.error_count for pu in parsed),
    )
    _check_closure(index)
    return index


def _scope_of(qualified_name: str) -> tuple[str, ...]:
    """The enclosing scope's segments: all but the last."""
    return tuple(qualified_name.split("::")[:-1])


def _scope_prefixes(scope: tuple[str, ...]) -> list[str]:
    """Enclosing scope prefixes, innermost first, ending with '' (global)."""
    return ["::".join(scope[:k]) for k in range(len(scope), -1, -1)]


def _resolve_base(
    index: StructuralIndex, derived: int, base_text: str
) -> int | None:
    """Resolve a base specifier to a class definition id, or None."""
    derived_rec = index.symbols[derived]
    for prefix in _scope_prefixes(_scope_of(derived_rec.qualified_name)):
        qualified = f"{prefix}::{base_text}" if prefix else base_text
        candidates = [
            i
            for i in index.by_qualified.get(qualified, [])
            if index.symbols[i].kind in CLASS_KINDS
            and index.symbols[i].is_definition
        ]
        if candidates:
            return candidates[0]
    return None


def _pick_candidate(
    index: StructuralIndex,
    graph: Graph,
    ids: list[int],
    ctor_style: bool,
) -> int | None:
    """Apply the kind preference shared by all resolution steps."""

    def best(pool: list[int]) -> int | None:
        if not pool:
            return None
        return min(
            pool, key=lambda i: (not index.symbols[i].is_definition, i)
        )

    funcs = [i for i in ids if index.symbols[i].kind in FUNCTION_KINDS]
    classes = [i for i in ids if index.symbols[i].kind in CLASS_KINDS]

    def ctor_of(class_id: int) -> int:
        ctors = [
            c
            for c in graph.targets(EdgeKind.CONTAINS, class_id)
            if index.symbols[c].kind is SymbolKind.CONSTRUCTOR
        ]
        return min(ctors) if ctors else class_id

    if ctor_style:
        chosen = best(classes)
        if chosen is not None:
            return ctor_of(chosen)
        return best(funcs)
    chosen = best(funcs)
    if chosen is not None:
        return chosen
    chosen = best(classes)
    if chosen is not None:
        return ctor_of(chosen)
    return None


def _resolve_call(
    index: StructuralIndex,
    graph: Graph,
    scope: tuple[str, ...],
    callee_text: str,
    ctor_style: bool,
) -> int | None:
    """Three-step lookup for bare callees: member of the enclosing
    class, then the innermost enclosing namespace, then global scope.
    Enclosure is the caller's ``scope`` (from its qualified name), so an
    out-of-line member definition still sees its class. Qualified callees
    walk the scope's prefixes outward instead."""
    if "::" in callee_text:
        for prefix in _scope_prefixes(scope):
            qualified = f"{prefix}::{callee_text}" if prefix else callee_text
            found = _pick_candidate(
                index, graph, index.by_qualified.get(qualified, []), ctor_style
            )
            if found is not None:
                return found
        return None

    def innermost(kinds) -> str | None:
        for k in range(len(scope), 0, -1):
            prefix = "::".join(scope[:k])
            if any(
                index.symbols[i].kind in kinds
                for i in index.by_qualified.get(prefix, [])
            ):
                return prefix
        return None

    scopes: list[str] = []
    cls = innermost(CLASS_KINDS)
    if cls is not None:
        scopes.append(cls)
    ns = innermost((SymbolKind.NAMESPACE,))
    if ns is not None and ns not in scopes:
        scopes.append(ns)
    scopes.append("")
    for prefix in scopes:
        qualified = f"{prefix}::{callee_text}" if prefix else callee_text
        found = _pick_candidate(
            index, graph, index.by_qualified.get(qualified, []), ctor_style
        )
        if found is not None:
            return found
    return None


def _find_override_targets(
    index: StructuralIndex,
    graph: Graph,
    class_id: int,
    member: SymbolRecord,
) -> list[int]:
    """Nearest-level search over the ancestor lattice for a matching
    virtual member; all matches at the first matching depth are returned."""
    frontier = list(graph.targets(EdgeKind.INHERITS_FROM, class_id))
    visited = set(frontier)
    while frontier:
        matches: list[int] = []
        for base in frontier:
            for child_id in graph.targets(EdgeKind.CONTAINS, base):
                candidate = index.symbols[child_id]
                if candidate.kind not in (
                    SymbolKind.MEMBER_FUNCTION,
                    SymbolKind.TEMPLATE_FUNCTION,
                ):
                    continue
                if candidate.name != member.name:
                    continue
                if candidate.signature != member.signature:
                    continue
                if candidate.is_virtual or member.has_override:
                    matches.append(child_id)
        if matches:
            return sorted(matches)
        nxt: list[int] = []
        for base in frontier:
            for up in graph.targets(EdgeKind.INHERITS_FROM, base):
                if up not in visited:
                    visited.add(up)
                    nxt.append(up)
        frontier = sorted(nxt)
    return []


def _check_closure(index: StructuralIndex):
    """Check a built index: dense ids, then ``_check_columns`` over its
    records, edge list and call sites."""
    symbols, edges, sites = index.symbols, index.edges, index.call_sites
    if any(rec.symbol_id != i for i, rec in enumerate(symbols)):
        raise AssertionError("symbol ids are not dense")
    contains = [e for e in edges if e.kind is EdgeKind.CONTAINS]
    _check_columns(
        [rec.name for rec in symbols],
        [rec.qualified_name for rec in symbols],
        [rec.is_synthetic for rec in symbols],
        ([e.src for e in contains], [e.dst for e in contains]),
        [[e.src for e in edges], [e.dst for e in edges]],
        [[c.caller for c in sites], [c.callee for c in sites]],
    )


def _check_columns(names, qualified_names, synthetic, contains, edge_ends,
                   site_ends):
    """The closure of a symbol graph given as columns, whose ids are rows:
    every qualified name ends in its name; every edge end (``edge_ends``)
    and call-site end (``site_ends``) is a row; and the ``contains`` pairs
    (parents, children; their columns are among ``edge_ends``) make a
    forest whose roots are exactly the ``synthetic`` rows. Raises
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
        for ids in columns:
            if ids and not (0 <= min(ids) and max(ids) < n):
                bad = next(i for i in ids if not 0 <= i < n)
                raise AssertionError(f"dangling {what} end {bad}")
    parents, children = (np.asarray(ids, dtype=np.intp) for ids in contains)
    counts = np.bincount(children, minlength=n)
    if np.count_nonzero(counts > 1):
        raise AssertionError(f"symbol {int(np.argmax(counts > 1))} has two parents")
    rooted = counts == 0
    synthetic = np.fromiter(synthetic, dtype=bool, count=n)
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


# Columns of the v2 layout, each with the type of its cells. A symbol's id
# is its row; its kind and file are rows of the "kinds" and "files" tables.
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
_SITE_COLUMNS = {"caller": int, "callee": int, **_LOCATION_COLUMNS}


def read_columns(table: dict, types: dict[str, type]) -> list[list]:
    """The named columns of one table, checked to be lists of one length
    whose cells all have the stated type (a ``bool`` is no ``int`` here)."""
    columns = []
    for name, cell in types.items():
        column = table[name]
        if type(column) is not list or not set(map(type, column)) <= {cell}:
            raise ValueError(f"column {name!r} is not a list of {cell.__name__}")
        columns.append(column)
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns {', '.join(types)} differ in length")
    return columns


def _decode(codes: list[int], table: list, what: str) -> list:
    if codes and not 0 <= min(codes) <= max(codes) < len(table):
        raise ValueError(f"{what} index out of range")
    return [table[i] for i in codes]


def _columns(cls, rows) -> dict:
    """``rows`` of the named tuple ``cls``, field by field."""
    return dict(zip(cls._fields, zip(*rows) if rows else repeat(())))


def _structural_to_dict(index: StructuralIndex) -> dict:
    symbols = _columns(SymbolRecord, index.symbols)
    sites = _columns(CallSite, index.call_sites)
    for table in (symbols, sites):
        table.update(_columns(Location, table.pop("location")))
    files = sorted({*symbols["file"], *sites["file"]})
    file_row = {f: i for i, f in enumerate(files)}
    kind_row = {k: i for i, k in enumerate(SymbolKind)}
    symbols["kind"] = map(kind_row.__getitem__, symbols["kind"])
    for table in (symbols, sites):
        table["file"] = map(file_row.__getitem__, table["file"])
    ends = {k: ([], []) for k in EdgeKind}
    for kind, src, dst in index.edges:
        ends[kind][0].append(src)
        ends[kind][1].append(dst)
    return {
        "kinds": [k.value for k in SymbolKind],
        "files": files,
        "symbols": {name: list(symbols[name]) for name in _SYMBOL_COLUMNS},
        "edges": {k.value: {"from": src, "to": dst}
                  for k, (src, dst) in ends.items()},
        "call_sites": {name: list(sites[name]) for name in _SITE_COLUMNS},
        "sources": index.sources,
        "includes": index.includes,
        "parse_error_count": index.parse_error_count,
    }


def _structural_from_dict(d: dict, snapshot: str) -> StructuralIndex:
    sources, includes, errors = d["sources"], d["includes"], d["parse_error_count"]
    if type(snapshot) is not str or type(errors) is not int:
        raise ValueError("repo_snapshot must be a str and parse_error_count an int")
    # JSON object keys are always strings
    if type(sources) is not dict or not set(map(type, sources.values())) <= {str}:
        raise ValueError("sources must map each path to its text")
    if type(includes) is not dict or not all(
        type(v) is list and set(map(type, v)) <= {str} for v in includes.values()
    ):
        raise ValueError("includes must map each path to a list of str")
    (kinds,) = read_columns(d, {"kinds": str})
    kinds = [SymbolKind(k) for k in kinds]
    (files,) = read_columns(d, {"files": str})

    def locations(file, start_line, end_line) -> list[Location]:
        if any(map(gt, start_line, end_line)):
            raise ValueError("a span ends before it starts")
        return _bulk(Location, zip(_decode(file, files, "file"), start_line, end_line))

    kind, file, start_line, end_line, name, qualified, signature, *rest = (
        read_columns(d["symbols"], _SYMBOL_COLUMNS)
    )
    kind = _decode(kind, kinds, "kind")
    symbols = _bulk(SymbolRecord, zip(
        count(), kind, name, qualified, signature,
        locations(file, start_line, end_line), *rest,
    ))
    if set(d["edges"]) != {k.value for k in EdgeKind}:
        raise ValueError(f"edge kinds {sorted(d['edges'])} are not EdgeKind's")
    edges, ends = [], {}
    for k in EdgeKind:
        src, dst = ends[k] = read_columns(d["edges"][k.value], {"from": int, "to": int})
        edges += _bulk(StructuralEdge, zip(repeat(k), src, dst))
    caller, callee, *where = read_columns(d["call_sites"], _SITE_COLUMNS)
    call_sites = _bulk(CallSite, zip(caller, callee, locations(*where)))
    _check_columns(
        name,
        qualified,
        (rec.is_synthetic for rec in symbols),
        ends[EdgeKind.CONTAINS],
        [ids for pair in ends.values() for ids in pair],
        [caller, callee],
    )
    return StructuralIndex(
        symbols=symbols,
        edges=edges,
        call_sites=call_sites,
        sources=sources,
        includes=includes,
        repo_snapshot=snapshot,
        parse_error_count=errors,
    )


def _bulk(cls, rows) -> list:
    """``cls`` named tuples from ``rows`` of its fields, made without
    calling ``cls``, so without any check a subclass adds."""
    return list(map(tuple.__new__, repeat(cls), rows))


def persist_index(
    container: IndexContainer | StructuralIndex, path: str | Path
) -> None:
    """Write the versioned container. Identical indices produce identical
    bytes."""
    if isinstance(container, StructuralIndex):
        container = IndexContainer(structural=container)
    intent_dict = None
    if container.intent is not None:
        intent_dict = container.intent.to_dict()
    payload = {
        "format": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "repo_snapshot": container.repo_snapshot,
        "structural": _structural_to_dict(container.structural),
        "intent": intent_dict,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


@contextmanager
def _collector_paused():
    """Loading allocates millions of objects and frees no cycles, so the
    cyclic collector would only re-scan the payload as it grows (about a
    fifth of a large load); it is switched back on afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def load_index(
    path: str | Path, expected_snapshot: str | None = None
) -> IndexContainer:
    """Read a container back; warns with ``StaleIndexWarning`` when the
    stored snapshot differs from ``expected_snapshot``. Beyond the closure
    check it derives nothing: the structural tables and the hash embedder's
    intent vectors are each made on the first query that reads them."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorruptIndex(f"cannot read index file {path}: {exc}") from exc
    with _collector_paused():
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise CorruptIndex(f"index file {path} is not valid JSON") from exc
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_MAGIC:
            raise CorruptIndex(f"index file {path} has a foreign or missing header")
        if payload.get("version") != FORMAT_VERSION:
            raise VersionMismatch(
                f"index version {payload.get('version')} != {FORMAT_VERSION}"
            )
        try:
            snapshot = payload["repo_snapshot"]
            structural = _structural_from_dict(payload["structural"], snapshot)
            intent = None
            if payload.get("intent") is not None:
                from .intent import IntentIndex

                intent = IntentIndex.from_dict(payload["intent"], structural.symbols)
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
