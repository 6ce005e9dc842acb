"""Deterministic structural queries over a built index.

Every function here is a pure read: same index and arguments give the
same answer, byte for byte. Name arguments accept either a fully
qualified spelling ("a::b::C") or a bare identifier; bare lookups that
hit several distinct qualified names raise ``AmbiguousName`` with the
candidate spellings instead of guessing.
"""

from __future__ import annotations

import re

from .cxx.lexer import lex
from .cxx.parser import normalize_signature
from .errors import (
    AmbiguousName,
    BadRequest,
    NoSeedsResolved,
    NotFound,
    UnknownClass,
    UnknownFunction,
)
from .index import StructuralIndex
from .model import (
    CLASS_KINDS,
    FUNCTION_KINDS,
    EdgeKind,
    SymbolRecord,
)

_SNIPPET_MAX_LINES = 12

# edge kinds that carry locality for defect neighborhoods, in EdgeKind
# order (the order result edges are listed in); overload edges are lexical
# coincidence, not proximity
_SUBGRAPH_KINDS = (
    EdgeKind.CONTAINS, EdgeKind.INHERITS_FROM, EdgeKind.CALLS, EdgeKind.OVERRIDES
)


def snippet_for(index: StructuralIndex, record: SymbolRecord) -> str:
    content = index.sources.get(record.location.file)
    return snippet_of(None if content is None else content.split("\n"), record)


def snippet_of(lines: list[str] | None, record: SymbolRecord) -> str:
    """``snippet_for`` from the record's file already split into lines,
    or "" when there is no such file."""
    if lines is None:
        return ""
    start = record.location.start_line
    end = min(record.location.end_line, start + _SNIPPET_MAX_LINES - 1)
    chunk = lines[start - 1 : end]
    if end < record.location.end_line:
        chunk.append("...")
    return "\n".join(chunk)


def _lookup_by_name(
    index: StructuralIndex, name: str, kinds: frozenset
) -> list[SymbolRecord]:
    if "::" in name:
        ids = index.by_qualified.get(name, [])
    else:
        ids = index.by_name.get(name, [])
    pool = [index.symbols[i] for i in ids]
    return [r for r in pool if r.kind in kinds and not r.is_synthetic]


def _prefer_definitions(records: list[SymbolRecord]) -> list[SymbolRecord]:
    defs = [r for r in records if r.is_definition]
    return defs if defs else records


def find_class(index: StructuralIndex, name: str) -> SymbolRecord:
    """Resolve a class, struct or class template by bare or qualified
    name. Prefers the definition over forward declarations."""
    matches = _lookup_by_name(index, name, CLASS_KINDS)
    if not matches:
        raise NotFound(f"no class named {name!r}")
    matches = _prefer_definitions(matches)
    qualified = sorted({r.qualified_name for r in matches})
    if len(qualified) > 1:
        raise AmbiguousName(name, qualified)
    matches.sort(key=lambda r: (not r.is_definition, r.symbol_id))
    return matches[0]


def find_function(
    index: StructuralIndex, name: str, signature: str | None = None
) -> list[SymbolRecord]:
    """All function records matching a name, optionally narrowed by the
    signature. Overload sets come back together, sorted. A signature that
    matches no record verbatim is normalized the way the parser normalizes
    declarations and tried again, so "(int a,int)" finds "(int, int)"."""
    matches = _lookup_by_name(index, name, FUNCTION_KINDS)
    if signature is not None:
        wanted = signature
        if all(r.signature != wanted for r in matches):
            wanted = _declared_signature(signature)
        matches = [r for r in matches if r.signature == wanted]
    if not matches:
        raise NotFound(f"no function named {name!r}"
                       + (f" with signature {signature!r}" if signature else ""))
    matches.sort(
        key=lambda r: (
            r.qualified_name,
            r.signature,
            not r.is_definition,
            r.location.file,
            r.location.start_line,
        )
    )
    return matches


def _declared_signature(signature: str) -> str:
    tokens = lex(signature).tokens
    if len(tokens) >= 2 and tokens[0].text == "(" and tokens[-1].text == ")":
        tokens = tokens[1:-1]
    return normalize_signature(tokens)


def _single_function(
    index: StructuralIndex, name: str, signature: str | None
) -> SymbolRecord:
    try:
        matches = find_function(index, name, signature)
    except NotFound as exc:
        raise UnknownFunction(str(exc)) from exc
    matches = _prefer_definitions(matches)
    distinct = sorted({(r.qualified_name, r.signature) for r in matches})
    if len(distinct) > 1:
        raise AmbiguousName(name, [f"{q} {s}" for q, s in distinct])
    return matches[0]


def get_inheritance_chain(
    index: StructuralIndex, class_name: str, direction: str = "both"
) -> dict:
    """Breadth-first ancestor and descendant levels for a class. Each
    level is a sorted list of symbol ids; level 0 is omitted (the class
    itself is reported separately)."""
    if direction not in ("bases", "derived", "both"):
        raise BadRequest(f"bad direction {direction!r}")
    try:
        record = find_class(index, class_name)
    except NotFound as exc:
        raise UnknownClass(str(exc)) from exc

    def levels(step) -> list[list[int]]:
        seen = {record.symbol_id}
        frontier = {record.symbol_id}
        out: list[list[int]] = []
        while frontier:
            nxt: set[int] = set()
            for node in frontier:
                nxt.update(step(EdgeKind.INHERITS_FROM, node))
            nxt -= seen
            if not nxt:
                break
            seen |= nxt
            out.append(sorted(nxt))
            frontier = nxt
        return out

    result: dict = {
        "class": record.qualified_name,
        "symbol_id": record.symbol_id,
    }
    if direction in ("bases", "both"):
        result["bases"] = levels(index.graph.targets)
    if direction in ("derived", "both"):
        result["derived"] = levels(index.graph.sources)
    return result


def get_function_calls(
    index: StructuralIndex,
    name: str,
    signature: str | None = None,
    direction: str = "out",
) -> dict:
    """Call sites out of (or into) one function. The function must
    resolve uniquely; pass a signature to pick one overload."""
    if direction not in ("out", "in"):
        raise BadRequest(f"bad direction {direction!r}")
    record = _single_function(index, name, signature)
    same = {
        i
        for i in index.by_qualified.get(record.qualified_name, [])
        if index.symbols[i].signature == record.signature
        and index.symbols[i].kind in FUNCTION_KINDS
    }
    positions_of = (
        index.graph.sites_from if direction == "out" else index.graph.sites_into
    )
    sites = []
    for pos in sorted(p for anchor in same for p in positions_of(anchor)):
        cs = index.call_sites[pos]
        other_id = cs.callee if direction == "out" else cs.caller
        other = index.symbols[other_id]
        sites.append(
            {
                "caller": cs.caller,
                "callee": cs.callee,
                "other": other.qualified_name,
                "resolved": not other.is_synthetic,
                "file": cs.location.file,
                "line": cs.location.start_line,
            }
        )
    return {
        "function": record.qualified_name,
        "symbol_id": record.symbol_id,
        "direction": direction,
        "sites": sites,
    }


def resolve_seed(index: StructuralIndex, seed: str | int) -> list[int]:
    """Symbol ids a defect seed refers to. Bare names fan out to every
    record with that name; qualified names match exactly or, failing
    that, as a trailing scope path ("Calculator::add" finds
    "calc::Calculator::add"). A symbol id is an int or a string of
    decimal digits. Unknown seeds, ids out of range and digit strings
    that ``int`` cannot read resolve to nothing."""
    if isinstance(seed, str) and seed.isdecimal():
        try:
            seed = int(seed)
        except ValueError:  # more digits than int() converts
            return []
    if isinstance(seed, int):
        return [seed] if 0 <= seed < len(index.symbols) else []
    if "::" in seed:
        return list(index.by_qualified.get(seed) or index.by_suffix.get(seed, []))
    return list(index.by_name.get(seed, []))


def defect_subgraph(
    index: StructuralIndex, seeds: list[str | int], hops: int = 2
) -> dict:
    """Undirected neighborhood around resolved seeds, following
    containment, inheritance, call and override edges up to ``hops``
    steps. Seeds that resolve to nothing are dropped; if every seed
    drops, raises ``NoSeedsResolved``."""
    if hops < 0:
        raise BadRequest("hops must be >= 0")
    seed_ids: set[int] = set()
    for seed in seeds:
        seed_ids.update(resolve_seed(index, seed))
    if not seed_ids:
        raise NoSeedsResolved(f"none of {list(seeds)!r} resolved")

    graph = index.graph
    nodes = set(seed_ids)
    frontier = set(seed_ids)
    for _ in range(hops):
        nxt: set[int] = set()
        for node in frontier:
            for kind in _SUBGRAPH_KINDS:
                nxt.update(graph.targets(kind, node))
                nxt.update(graph.sources(kind, node))
        nxt -= nodes
        if not nxt:
            break
        nodes |= nxt
        frontier = nxt

    ordered = sorted(nodes)
    edges = [
        {"kind": kind.value, "from": src, "to": dst}
        for kind in _SUBGRAPH_KINDS
        for src in ordered
        for dst in graph.targets(kind, src)
        if dst in nodes
    ]
    return {
        "seeds": sorted(seed_ids),
        "hops": hops,
        "nodes": ordered,
        "edges": edges,
    }


def grep_baseline(
    index: StructuralIndex,
    pattern: str,
    max_results: int = 50,
    regex: bool = True,
) -> dict:
    """Line matches of a pattern across all indexed sources, ordered by
    path then line, truncated at ``max_results``. A fixed string is
    looked for in each whole file first, and only the files holding it
    are split into lines."""
    if max_results < 1:
        raise BadRequest("max_results must be >= 1")
    if regex:
        try:
            rx = re.compile(pattern)
        except re.error as exc:
            raise BadRequest(f"invalid pattern: {exc}") from exc
        hit = rx.search
    else:
        hit = lambda line: pattern in line  # noqa: E731
    matches = []
    truncated = False
    for path in sorted(index.sources):
        text = index.sources[path]
        if not regex and pattern not in text:
            continue
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not hit(line):
                continue
            if len(matches) >= max_results:
                truncated = True
                break
            matches.append({"path": path, "line": lineno, "text": line})
        if truncated:
            break
    return {"pattern": pattern, "matches": matches, "truncated": truncated}
