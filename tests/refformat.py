"""Frozen copy of the version 1 index file codec that `cppatlas.index` and
`cppatlas.intent` replaced with the columnar version 2 layout: one JSON
object per symbol, edge and call site, and every intent vector written out
as a list of decimal floats.

It is the reference `test_format.py` compares the version 2 reader and
writer against. Nothing in `src/` imports it; do not edit it to match
`cppatlas.index`. It makes a ``StructuralIndex`` from the persisted fields
alone, and imports no helper of `cppatlas.index`. Its intent side reads
the file into a record of its own, ``V1Intent``: the doc columns and a
float64 matrix, the arguments of a ``cppatlas.intent.IntentIndex``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cppatlas.index import FORMAT_MAGIC, IndexContainer, StructuralIndex
from cppatlas.intent import IntentIndex
from cppatlas.model import (
    CallSite,
    EdgeKind,
    Location,
    StructuralEdge,
    SymbolKind,
    SymbolRecord,
)

VERSION = 1


class V1Intent(NamedTuple):
    """The intent fields of a version 1 file, in the order
    ``IntentIndex`` takes them: one column per doc field, and the docs'
    vectors as the rows of one float64 matrix."""

    provider_name: str
    dim: int
    repo_snapshot: str
    symbol_ids: tuple[int, ...]
    qualified_names: tuple[str, ...]
    kinds: tuple[str, ...]
    texts: tuple[str, ...]
    matrix: np.ndarray


def _location(d: dict) -> Location:
    return Location(d["file"], d["start_line"], d["end_line"])


def _symbol(d: dict) -> SymbolRecord:
    return SymbolRecord(
        symbol_id=d["symbol_id"],
        kind=SymbolKind(d["kind"]),
        name=d["name"],
        qualified_name=d["qualified_name"],
        signature=d["signature"],
        location=_location(d["location"]),
        is_definition=d["is_definition"],
        template_params=d["template_params"],
        doc_comment=d["doc_comment"],
        is_virtual=d["is_virtual"],
        has_override=d["has_override"],
    )


def persist_v1(container: IndexContainer, path: str | Path) -> None:
    index, intent = container.structural, container.intent
    structural = {
        "symbols": [s.to_dict() for s in index.symbols],
        "edges": [e.to_dict() for e in index.edges],
        "call_sites": [
            {"caller": c.caller, "callee": c.callee,
             "call_site": c.location.to_dict()}
            for c in index.call_sites
        ],
        "sources": index.sources,
        "includes": index.includes,
        "parse_error_count": index.parse_error_count,
    }
    intent_dict = None
    if intent is not None:
        intent_dict = {
            "provider_name": intent.provider_name,
            "dim": intent.dim,
            "repo_snapshot": intent.repo_snapshot,
            "docs": [
                {"symbol_id": symbol_id, "qualified_name": qualified_name,
                 "kind": kind, "text": text, "vector": vector}
                for symbol_id, qualified_name, kind, text, vector in zip(
                    intent.symbol_ids, intent.qualified_names, intent.kinds,
                    intent.texts, intent.matrix.tolist())
            ],
        }
    payload = {
        "format": FORMAT_MAGIC,
        "version": VERSION,
        "repo_snapshot": index.repo_snapshot,
        "structural": structural,
        "intent": intent_dict,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_v1(path: str | Path) -> IndexContainer:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    assert payload["format"] == FORMAT_MAGIC and payload["version"] == VERSION
    d = payload["structural"]
    edges = [StructuralEdge(EdgeKind(e["kind"]), e["from"], e["to"])
             for e in d["edges"]]
    call_sites = [CallSite(c["caller"], c["callee"], _location(c["call_site"]))
                  for c in d["call_sites"]]
    structural = StructuralIndex(
        symbols=[_symbol(s) for s in d["symbols"]],
        edges=edges,
        call_sites=call_sites,
        sources=dict(d["sources"]),
        includes={k: list(v) for k, v in d["includes"].items()},
        repo_snapshot=payload["repo_snapshot"],
        parse_error_count=d["parse_error_count"],
    )
    intent = None
    if payload["intent"] is not None:
        i = payload["intent"]
        docs = i["docs"]
        matrix = np.array([[float(v) for v in x["vector"]] for x in docs],
                          dtype=np.float64)
        record = V1Intent(
            i["provider_name"], i["dim"], i["repo_snapshot"],
            *(tuple(x[key] for x in docs)
              for key in ("symbol_id", "qualified_name", "kind", "text")),
            matrix.reshape(len(docs), i["dim"]),
        )
        intent = IntentIndex(*record)
    return IndexContainer(structural=structural, intent=intent)
