"""The packed columns and the sections of a version 5 index file, read and
written by hand, with nothing of `cppatlas.index`.

A version 5 file is a JSON header line, then the texts of the sources and
then the intent texts, each run UTF-8 encoded with lone surrogates passed
through. The header gives each run's strs by their lengths in code points:
``structural.sources`` is ``{"paths": [...], "lengths": packed}``, the
paths sorted, and ``intent.docs`` is ``{"lengths": packed, "rows": n}``.
The sources' paths are the file's one path table: a symbol's or a call
site's ``file`` code is 0 for no file (an ``unresolved:`` sentinel's) or 1
more than its path's row, and ``structural.includes`` is ``{"file":
packed, "names": [[...], ...]}``, each parsed file's code, ascending, and
its include targets.

Its int columns are packed as in version 3: each is one ``{"width": w,
"data": base64}`` object of little-endian unsigned ints of 1, 2 or 4
bytes, and a table of int columns alone states its ``rows``. An empty edge
kind's table holds ``rows`` alone. Its bool columns are bits: one base64 string,
row i at bit i % 8 of byte i // 8.

``read_file`` gives a file as the dict of version 3's layout, which tests
edit: the ``files`` table that codes are rows of (``""``, then the paths),
each source's text under ``structural.sources`` by path, the includes by
path, the intent texts as ``intent.docs.text``, and each bool column a
list. ``write_file`` writes such a dict back as version 5: ``files[1:]``
as the paths, the ``sources`` texts in their order as the first section,
and each includes path as its row of ``files``, or 0 when it has none. So
a path can be edited apart from its text, and a text dropped apart from
its path. A value that version 5 cannot hold there (a source that is no
str, a bool column holding another value, a ``docs`` without a list of
texts) is written as it is, where a loader must refuse it.

A test that edits a file cell by cell, as the version 2 tests edited its
JSON lists, goes through ``edited``: it turns every packed column of the
``structural`` object into a list of ints, applies the edit, and packs
them back, setting each ``rows`` count from the table's first column. A
list that no width holds (a negative or bool cell, a float, 2**32) stays a
list, which a loader must refuse as it refuses any column that is not
packed. ``as_version_2`` rewrites a file in the layout of version 2.
"""

from __future__ import annotations

import base64
import json
from itertools import accumulate

WIDTHS = (1, 2, 4)

# the packed columns of each table; each edge kind's table has "from" and "to"
_SYMBOLS = ("kind", "file", "start_line", "end_line")
_SITES = ("caller", "callee", "file", "start_line", "end_line")
_EDGES = ("from", "to")
_BOOLS = ("is_definition", "is_virtual", "has_override")


def unpack(column: dict) -> list[int]:
    raw, width = base64.b64decode(column["data"]), column["width"]
    return [int.from_bytes(raw[i : i + width], "little")
            for i in range(0, len(raw), width)]


def pack(values: list):
    """``values`` packed in the narrowest width that holds them, or the
    list itself when no width does."""
    if not all(type(v) is int and 0 <= v < 1 << 32 for v in values):
        return values
    width = next(w for w in WIDTHS if max(values, default=0) < 1 << 8 * w)
    data = b"".join(v.to_bytes(width, "little") for v in values)
    return {"width": width, "data": base64.b64encode(data).decode("ascii")}


def unbits(data: str, rows: int) -> list[bool]:
    raw = base64.b64decode(data)
    return [bool(raw[i // 8] >> i % 8 & 1) for i in range(rows)]


def bits(values: list):
    """``values`` as bits, or the list itself when a cell is no bool."""
    if not all(type(v) is bool for v in values):
        return values
    raw = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        raw[i // 8] |= v << i % 8
    return base64.b64encode(bytes(raw)).decode("ascii")


def _tables(structural: dict):
    """Each table that holds packed columns, with their names, and whether
    it states its rows."""
    if type(structural.get("symbols")) is dict:
        yield structural["symbols"], _SYMBOLS, False
    if type(structural.get("call_sites")) is dict:
        yield structural["call_sites"], _SITES, True
    for table in structural.get("edges", {}).values():
        yield table, _EDGES, True


def unpacked(structural: dict) -> dict:
    """``structural`` with every packed column a list, and no ``rows``."""
    for table, names, _ in _tables(structural):
        empty = table.pop("rows", None) == 0 and not table
        for name in names:
            table[name] = [] if empty else unpack(table[name])
    return structural


def repacked(structural: dict) -> dict:
    """``unpacked`` undone: each list column packed, each ``rows`` set."""
    for table, names, rows in _tables(structural):
        if names == _EDGES and table.keys() == set(names) and not any(table.values()):
            table.clear()
            table["rows"] = 0
            continue
        if rows:
            table["rows"] = len(table[names[0]])
        for name in names:
            table[name] = pack(table[name])
    return structural


def edited(structural: dict, edit) -> dict:
    """``structural`` after ``edit`` of its columns as lists."""
    edit(unpacked(structural))
    return repacked(structural)


def _strs(text: str, lengths: list[int]) -> list[str]:
    ends = list(accumulate(lengths))
    return [text[start:end] for start, end in zip([0, *ends[:-1]], ends)]


def read_file(path) -> dict:
    """A version 5 file as a dict of version 3's layout (see above)."""
    head, _, rest = path.read_bytes().partition(b"\n")
    payload = json.loads(head)
    text = rest.decode("utf-8", "surrogatepass")
    structural, intent = payload["structural"], payload["intent"]
    paths, lengths = structural["sources"]["paths"], unpack(structural["sources"]["lengths"])
    files = structural["files"] = ["", *paths]
    structural["sources"] = dict(zip(paths, _strs(text, lengths)))
    includes = structural["includes"]
    structural["includes"] = dict(zip(map(files.__getitem__, unpack(includes["file"])),
                                      includes["names"]))
    if intent is not None:
        docs = intent["docs"]
        texts = _strs(text[sum(lengths):], unpack(docs["lengths"]) if docs["rows"] else [])
        intent["docs"] = {"text": texts}
    symbols = structural["symbols"]
    for name in _BOOLS:
        symbols[name] = unbits(symbols[name], len(symbols["name"]))
    return payload


def _is_strs(values) -> bool:
    return type(values) is list and all(type(v) is str for v in values)


def write_file(path, payload: dict) -> None:
    """``payload``, a dict of version 3's layout, written as version 5."""
    payload = json.loads(json.dumps(payload))  # edit a copy
    structural, intent = payload.get("structural"), payload.get("intent")
    if type(structural) is not dict:
        structural = {}
    sections = []
    sources = structural.get("sources")
    files = structural.pop("files", None)
    if type(files) is not list:
        files = ["", *sources] if type(sources) is dict else [""]
    if type(sources) is dict and _is_strs(list(sources.values())):
        sections.append("".join(sources.values()))
        structural["sources"] = {
            "paths": files[1:], "lengths": pack(list(map(len, sources.values())))}
    includes = structural.get("includes")
    if type(includes) is dict:
        structural["includes"] = {
            "file": pack([files.index(p) if p in files else 0 for p in includes]),
            "names": list(includes.values())}
    if type(structural.get("symbols")) is dict:
        for name in _BOOLS:
            if type(structural["symbols"].get(name)) is list:
                structural["symbols"][name] = bits(structural["symbols"][name])
    if type(intent) is dict and type(intent.get("docs")) is dict and _is_strs(
            intent["docs"].get("text")):
        texts = intent["docs"]["text"]
        sections.append("".join(texts))
        intent["docs"] = ({"lengths": pack(list(map(len, texts))), "rows": len(texts)}
                          if texts else {"rows": 0})
    header = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path.write_bytes(header.encode("ascii") + b"\n" + "".join(sections).encode(
        "utf-8", "surrogatepass"))


def as_version_2(payload: dict, doc_ids) -> dict:
    """A file's payload, as ``read_file`` gives it, in the version 2
    layout: int columns as JSON lists, and intent docs with their ids as a
    ``symbol_id`` column."""
    unpacked(payload["structural"])
    payload["version"] = 2
    if payload["intent"] is not None:
        payload["intent"]["docs"]["symbol_id"] = list(doc_ids)
    return payload
