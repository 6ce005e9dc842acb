"""Deterministic structural queries over a built index.

Every function here is a pure read: same index and arguments give the
same answer, byte for byte. Name arguments accept either a fully
qualified spelling ("a::b::C") or a bare identifier; bare lookups that
hit several distinct qualified names raise ``AmbiguousName`` with the
candidate spellings instead of guessing.
"""

from __future__ import annotations

import re
import sys
from itertools import islice

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
    is_sentinel_name,
)

_SNIPPET_MAX_LINES = 12
# a snippet row keeps this many characters of its line, so that the records
# of one long line do not each carry the whole line
_SNIPPET_MAX_COLUMNS = 240
DEFAULT_HOPS = 2  # steps out from the seeds of a defect subgraph

# edge kinds that carry locality for defect neighborhoods, in EdgeKind
# order (the order result edges are listed in); overload edges are lexical
# coincidence, not proximity
_SUBGRAPH_KINDS = (
    EdgeKind.CONTAINS, EdgeKind.INHERITS_FROM, EdgeKind.CALLS, EdgeKind.OVERRIDES
)


def snippet_for(index: StructuralIndex, record: SymbolRecord) -> str:
    content = index.sources.get(record.location.file)
    return snippet_of(None if content is None else snippet_rows(content), record)


def snippet_of(lines: list[str] | None, record: SymbolRecord) -> str:
    """``snippet_for`` from the record's file's ``snippet_rows``, or ""
    when there is no such file."""
    if lines is None:
        return ""
    _, start, end = record.location
    return "\n".join(snippet_window(lines, start, end))


def snippet_rows(content: str) -> list[str]:
    """A file's lines as snippets show them: in a file holding a line of
    more than ``_SNIPPET_MAX_COLUMNS`` characters, each line clipped to its
    first ``_SNIPPET_MAX_COLUMNS``; in any other file, each line whole."""
    rows = content.split("\n")
    if max(map(len, rows)) > _SNIPPET_MAX_COLUMNS:
        rows = [row[:_SNIPPET_MAX_COLUMNS] for row in rows]
    return rows


def snippet_window(lines: list[str], start: int, end: int) -> list[str]:
    """The rows of the snippet of a span from ``start`` to ``end``, from
    its file's ``snippet_rows``: the first ``_SNIPPET_MAX_LINES`` of the
    span, then "..." if the span runs on."""
    last = min(end, start + _SNIPPET_MAX_LINES - 1)
    window = lines[start - 1 : last]
    if last < end:
        window.append("...")
    return window


def _lookup_by_name(index: StructuralIndex, name: str, kinds: frozenset) -> list[int]:
    """The ids of the symbols of ``kinds`` that a bare or qualified name
    names, read from the columns, so that a record is made only for the
    answer."""
    if "::" in name:
        ids = index.by_qualified.get(name, [])
    else:
        ids = index.by_name.get(name, [])
    # no kind of ``kinds`` is a file root's, so the only synthetic rows
    # here are unresolved sentinels
    symbols = index.symbols
    return [i for i in ids if symbols.kind_of(i) in kinds
            and not is_sentinel_name(symbols.qualified_name[i])]


def _prefer_definitions(index: StructuralIndex, ids: list[int]) -> list[int]:
    defined = index.symbols.is_definition
    defs = [i for i in ids if defined[i]]
    return defs if defs else ids


def find_class(index: StructuralIndex, name: str) -> SymbolRecord:
    """Resolve a class, struct or class template by bare or qualified
    name. Prefers the definition over forward declarations."""
    return index.symbols[_class_id(index, name)]


def _class_id(index: StructuralIndex, name: str) -> int:
    matches = _lookup_by_name(index, name, CLASS_KINDS)
    if not matches:
        raise NotFound(f"no class named {name!r}")
    matches = _prefer_definitions(index, matches)
    qualified = sorted({index.symbols.qualified_name[i] for i in matches})
    if len(qualified) > 1:
        raise AmbiguousName(name, qualified)
    # the matches are in id order, and all are definitions or none is
    return matches[0]


def find_function(
    index: StructuralIndex, name: str, signature: str | None = None
) -> list[SymbolRecord]:
    """All function records matching a name, optionally narrowed by the
    signature. Overload sets come back together, sorted. A signature that
    matches no record verbatim is normalized the way the parser normalizes
    declarations and tried again, so "(int a,int)" finds "(int, int)"."""
    return [index.symbols[i] for i in _function_ids(index, name, signature)]


def _function_ids(index: StructuralIndex, name: str, signature: str | None
                  ) -> list[int]:
    symbols = index.symbols
    signatures = symbols.signature
    matches = _lookup_by_name(index, name, FUNCTION_KINDS)
    if signature is not None:
        wanted = signature
        if all(signatures[i] != wanted for i in matches):
            wanted = _declared_signature(signature)
        matches = [i for i in matches if signatures[i] == wanted]
    if not matches:
        raise NotFound(f"no function named {name!r}"
                       + (f" with signature {signature!r}" if signature else ""))
    matches.sort(
        key=lambda i: (
            symbols.qualified_name[i],
            signatures[i],
            not symbols.is_definition[i],
            symbols.files[symbols.file[i]],
            symbols.start_line[i],
        )
    )
    return matches


def _declared_signature(signature: str) -> str:
    lexed = lex(signature)
    texts, kinds = lexed.tokens, lexed.kinds
    if len(texts) >= 2 and texts[0] == "(" and texts[-1] == ")":
        texts, kinds = texts[1:-1], kinds[1:-1]
    return normalize_signature(texts, kinds)


def _single_function(index: StructuralIndex, name: str, signature: str | None
                     ) -> int:
    """The id of the one function ``name`` and ``signature`` name."""
    try:
        matches = _function_ids(index, name, signature)
    except NotFound as exc:
        raise UnknownFunction(str(exc)) from exc
    matches = _prefer_definitions(index, matches)
    symbols = index.symbols
    distinct = sorted({(symbols.qualified_name[i], symbols.signature[i])
                       for i in matches})
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
        class_id = _class_id(index, class_name)
    except NotFound as exc:
        raise UnknownClass(str(exc)) from exc

    def levels(step) -> list[list[int]]:
        seen = {class_id}
        frontier = {class_id}
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
        "class": index.symbols.qualified_name[class_id],
        "symbol_id": class_id,
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
    function = _single_function(index, name, signature)
    symbols, cs = index.symbols, index.call_sites
    qualified = symbols.qualified_name[function]
    same = {
        i
        for i in index.by_qualified.get(qualified, [])
        if symbols.signature[i] == symbols.signature[function]
        and symbols.kind_of(i) in FUNCTION_KINDS
    }
    positions_of = (
        index.graph.sites_from if direction == "out" else index.graph.sites_into
    )
    sites = []
    for pos in sorted(p for anchor in same for p in positions_of(anchor)):
        caller, callee = cs.caller[pos], cs.callee[pos]
        other = callee if direction == "out" else caller
        sites.append(
            {
                "caller": caller,
                "callee": callee,
                "other": symbols.qualified_name[other],
                "resolved": not symbols.is_synthetic(other),
                "file": cs.files[cs.file[pos]],
                "line": cs.start_line[pos],
            }
        )
    return {
        "function": qualified,
        "symbol_id": function,
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
    index: StructuralIndex, seeds: list[str | int], hops: int = DEFAULT_HOPS
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

    tables = [index.graph.tables(kind) for kind in _SUBGRAPH_KINDS]
    steps = [table.get for pair in tables for table in pair]
    nodes = set(seed_ids)
    frontier = set(seed_ids)
    for _ in range(hops):
        nxt: set[int] = set()
        for step in steps:
            for ids in map(step, frontier):
                if ids:
                    nxt.update(ids)
        nxt -= nodes
        if not nxt:
            break
        nodes |= nxt
        frontier = nxt

    ordered = sorted(nodes)
    edges = []
    for kind, (out, _) in zip(_SUBGRAPH_KINDS, tables):
        value = kind.value
        for src in ordered:
            for dst in out.get(src, ()):
                if dst in nodes:
                    edges.append({"kind": value, "from": src, "to": dst})
    return {
        "seeds": sorted(seed_ids),
        "hops": hops,
        "nodes": ordered,
        "edges": edges,
    }


def _found_lines(index: StructuralIndex, pattern: str):
    """``{"path", "line", "text"}`` of each line holding ``pattern``, a
    string with no newline ("" is on every line), in path then line
    order. Files whose trigrams rule it out are never read."""
    data = pattern.encode("utf-8", "surrogatepass")
    if len(data) >= 3:
        files = index.grep_candidates(data)
    else:
        files = index.sources.items()
    for path, text in files:
        pos = text.find(pattern)
        line, counted = 1, 0
        while pos >= 0:
            line += text.count("\n", counted, pos)
            counted = pos
            end = text.find("\n", pos)
            if end < 0:
                end = len(text)
            yield {"path": path, "line": line,
                   "text": text[text.rfind("\n", 0, pos) + 1 : end]}
            pos = text.find(pattern, end + 1)


def _scanned_lines(index: StructuralIndex, hit):
    """``{"path", "line", "text"}`` of each line ``hit`` is true of, in
    path then line order."""
    for path, source in index.sources.items():
        for line, text in enumerate(source.split("\n"), start=1):
            if hit(text):
                yield {"path": path, "line": line, "text": text}


def grep_baseline(
    index: StructuralIndex,
    pattern: str,
    max_results: int = 50,
    regex: bool = True,
) -> dict:
    """Line matches of a pattern across all indexed sources, ordered by
    path then line, truncated at ``max_results``. A regex that
    ``re.escape`` leaves unchanged matches exactly the lines holding it, so
    it is looked for as a fixed string. A fixed string is found in each
    file with ``str.find``; one of at least 3 UTF-8 bytes is looked for
    only in the files a trigram filter leaves, built on the first such
    grep. A regex with metacharacters is tried on every line."""
    if max_results < 1:
        raise BadRequest("max_results must be >= 1")
    if regex and re.escape(pattern) != pattern:
        try:
            lines = _scanned_lines(index, re.compile(pattern).search)
        except re.error as exc:
            raise BadRequest(f"invalid pattern: {exc}") from exc
    elif "\n" in pattern:  # no line holds one
        lines = ()
    else:
        lines = _found_lines(index, pattern)
    # islice takes no count above sys.maxsize, and no list grows that long
    matches = list(islice(lines, min(max_results, sys.maxsize - 1) + 1))
    return {"pattern": pattern, "matches": matches[:max_results],
            "truncated": len(matches) > max_results}
