"""Frozen copy of ``build_index`` and its resolve helpers as they were
before symbol ids were assigned in place, each call scope resolved once and
the lookup tables built in one pass; and of ``_check_closure`` as it was
before it ran over id columns.

It is the reference `test_index.py` compares `cppatlas.index.build_index`
against: the same persisted bytes and the same ``by_name``,
``by_qualified`` and ``by_suffix`` tables. `test_closure.py` compares the
closure check against its ``_check_closure``. Nothing in `src/` imports
it; do not edit it to match `cppatlas.index`.

It builds into a record of its own, ``RefIndex``, with its own copy of
the ``Graph`` and the edge order, and imports nothing from
`cppatlas.index`; ``persisted`` gives a record's persisted fields, the
keyword arguments of a ``cppatlas.index.StructuralIndex``.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field

from cppatlas.cxx.parser import ParsedUnit, parse_unit
from cppatlas.model import (
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
from cppatlas.repo import Repository

log = logging.getLogger(__name__)

_EDGE_ORDER = {k: i for i, k in enumerate(EdgeKind)}


class Graph:
    """Adjacency of one edge list: per-kind out- and in-neighbours, each
    sorted by id, and the call-site positions of each caller and callee."""

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


@dataclass
class RefIndex:
    """What the reference build makes: the persisted fields first, then
    the lookup tables."""

    symbols: list[SymbolRecord] = field(default_factory=list)
    edges: list[StructuralEdge] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    sources: dict[str, str] = field(default_factory=dict)
    includes: dict[str, list[str]] = field(default_factory=dict)
    repo_snapshot: str = ""
    parse_error_count: int = 0
    by_name: dict[str, list[int]] = field(default_factory=dict)
    by_qualified: dict[str, list[int]] = field(default_factory=dict)
    by_suffix: dict[str, list[int]] = field(default_factory=dict)


_PERSISTED = ("symbols", "edges", "call_sites", "sources", "includes",
              "repo_snapshot", "parse_error_count")


def persisted(index: RefIndex) -> dict:
    """The fields of ``index`` that an index file holds, by name."""
    return {name: getattr(index, name) for name in _PERSISTED}


def build_index(repo: Repository) -> RefIndex:
    """Parse every header/source unit and assemble the resolved graph."""
    parsed: list[ParsedUnit] = []
    for unit in repo.units:  # units are sorted by path
        if unit.kind in ("header", "source"):
            parsed.append(parse_unit(unit))

    index = RefIndex(repo_snapshot=repo.snapshot_id)
    index.sources = {u.path: u.content for u in repo.units}

    offsets: list[int] = []
    next_id = 0
    for pu in parsed:
        offsets.append(next_id)
        for rec in pu.symbols:
            index.symbols.append(rec._replace(symbol_id=next_id))
            next_id += 1
        index.includes[pu.path] = list(pu.includes)
        index.parse_error_count += pu.error_count

    edges: set[StructuralEdge] = set()
    for pu, off in zip(parsed, offsets):
        for parent, child in pu.contains:
            edges.add(
                StructuralEdge(EdgeKind.CONTAINS, parent + off, child + off)
            )

    _build_lookup(index)

    # --- inheritance -------------------------------------------------
    for pu, off in zip(parsed, offsets):
        for pending in pu.pending_bases:
            derived = pending.derived + off
            base = _resolve_base(index, derived, pending.base_text)
            if base is not None and base != derived:
                edges.add(StructuralEdge(EdgeKind.INHERITS_FROM, derived, base))
            elif base is None:
                log.debug(
                    "unresolved base %r of %s",
                    pending.base_text,
                    index.symbols[derived].qualified_name,
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
    for caller, callee_text, ctor_style, line, path in raw_calls:
        target = _resolve_call(index, graph, caller, callee_text, ctor_style)
        loc = Location(path, line, line)
        if target is None:
            unresolved_names.add(callee_text)
            resolved.append((caller, callee_text, loc))
        else:
            resolved.append((caller, target, loc))

    sentinel_ids: dict[str, int] = {}
    for name in sorted(unresolved_names):
        sid = len(index.symbols)
        index.symbols.append(
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

    for caller, target, loc in resolved:
        callee = target if isinstance(target, int) else sentinel_ids[target]
        index.call_sites.append(CallSite(caller, callee, loc))
        edges.add(StructuralEdge(EdgeKind.CALLS, caller, callee))

    _build_lookup(index)  # sentinels joined the table

    # --- overloads ---------------------------------------------------
    groups: dict[tuple[str, str], list[int]] = defaultdict(list)
    for rec in index.symbols:
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
    for rec in index.symbols:
        if rec.kind not in CLASS_KINDS or not rec.is_definition:
            continue
        members = [
            index.symbols[c]
            for c in graph.targets(EdgeKind.CONTAINS, rec.symbol_id)
            if index.symbols[c].kind
            in (SymbolKind.MEMBER_FUNCTION, SymbolKind.TEMPLATE_FUNCTION)
        ]
        for member in members:
            for target in _find_override_targets(
                index, graph, rec.symbol_id, member
            ):
                edges.add(
                    StructuralEdge(EdgeKind.OVERRIDES, member.symbol_id, target)
                )

    index.edges = sorted(edges, key=lambda e: (_EDGE_ORDER[e.kind], e.src, e.dst))
    index.call_sites.sort(
        key=lambda c: (c.location.file, c.location.start_line, c.caller, c.callee)
    )
    _check_closure(index)
    return index


def _build_lookup(index: RefIndex):
    by_name: dict[str, list[int]] = defaultdict(list)
    by_qualified: dict[str, list[int]] = defaultdict(list)
    for rec in index.symbols:
        by_name[rec.name].append(rec.symbol_id)
        by_qualified[rec.qualified_name].append(rec.symbol_id)
    index.by_name = {k: sorted(v) for k, v in by_name.items()}
    index.by_qualified = {k: sorted(v) for k, v in by_qualified.items()}
    by_suffix: dict[str, list[int]] = defaultdict(list)
    for name, ids in index.by_qualified.items():
        cut = name.find("::")
        while cut != -1:
            suffix = name[cut + 2 :]
            if "::" in suffix:
                by_suffix[suffix].extend(ids)
            cut = name.find("::", cut + 1)
    index.by_suffix = {k: sorted(v) for k, v in by_suffix.items()}


def _scope_prefixes(qualified_name: str) -> list[str]:
    """Enclosing scope prefixes, innermost first, ending with '' (global)."""
    parts = qualified_name.split("::")[:-1]
    return ["::".join(parts[:k]) for k in range(len(parts), -1, -1)]


def _resolve_base(
    index: RefIndex, derived: int, base_text: str
) -> int | None:
    """Resolve a base specifier to a class definition id, or None."""
    derived_rec = index.symbols[derived]
    for prefix in _scope_prefixes(derived_rec.qualified_name):
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
    index: RefIndex,
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
    index: RefIndex,
    graph: Graph,
    caller: int,
    callee_text: str,
    ctor_style: bool,
) -> int | None:
    """Three-step lookup for bare callees: member of the enclosing
    class, then the innermost enclosing namespace, then global scope.
    Enclosure comes from the caller's qualified name, so an out-of-line
    member definition still sees its class. Qualified callees walk the
    caller's scope prefixes outward instead."""
    caller_rec = index.symbols[caller]

    if "::" in callee_text:
        for prefix in _scope_prefixes(caller_rec.qualified_name):
            qualified = f"{prefix}::{callee_text}" if prefix else callee_text
            found = _pick_candidate(
                index, graph, index.by_qualified.get(qualified, []), ctor_style
            )
            if found is not None:
                return found
        return None

    parts = caller_rec.qualified_name.split("::")[:-1]

    def innermost(kinds) -> str | None:
        for k in range(len(parts), 0, -1):
            prefix = "::".join(parts[:k])
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
    for scope in scopes:
        qualified = f"{scope}::{callee_text}" if scope else callee_text
        found = _pick_candidate(
            index, graph, index.by_qualified.get(qualified, []), ctor_style
        )
        if found is not None:
            return found
    return None


def _find_override_targets(
    index: RefIndex,
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


def _check_closure(index):
    """Check the closure of ``index``, a ``RefIndex`` or any record with
    ``symbols``, ``edges`` and ``call_sites``, over a graph of its own."""
    graph = Graph(index.edges)

    def parent(symbol_id: int) -> int | None:
        parents = graph.sources(EdgeKind.CONTAINS, symbol_id)
        return parents[0] if parents else None

    n = len(index.symbols)
    for i, rec in enumerate(index.symbols):
        if rec.symbol_id != i:
            raise AssertionError("symbol ids are not dense")
        if not rec.qualified_name.endswith(rec.name):
            raise AssertionError(f"qualified name mismatch for {rec.name!r}")
    for e in index.edges:
        if not (0 <= e.src < n and 0 <= e.dst < n):
            raise AssertionError(f"dangling edge {e}")
    for c in index.call_sites:
        if not (0 <= c.caller < n and 0 <= c.callee < n):
            raise AssertionError(f"dangling call site {c}")
    for rec in index.symbols:
        parents = graph.sources(EdgeKind.CONTAINS, rec.symbol_id)
        if len(parents) > 1:
            raise AssertionError(f"symbol {rec.symbol_id} has two parents")
        if rec.is_synthetic:
            if parents:
                raise AssertionError("synthetic symbol must be a root")
        elif not parents:
            raise AssertionError(
                f"symbol {rec.qualified_name} lacks a containment parent"
            )
    # acyclicity: every walk upward ends at a root, or at a node that an
    # earlier walk already took to one
    rooted: set[int] = set()
    for start in range(n):
        seen = set()
        cur = start
        while cur not in rooted and (up := parent(cur)) is not None:
            if cur in seen:
                raise AssertionError("containment cycle")
            seen.add(cur)
            cur = up
        rooted |= seen
