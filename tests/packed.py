"""The packed int columns of a version 3 index file, read and written by
hand, with nothing of `cppatlas.index`.

A version 3 file packs each int column into one ``{"width": w, "data":
base64}`` object: little-endian unsigned ints of 1, 2 or 4 bytes. A test
that edits a file cell by cell, as the version 2 tests edited its JSON
lists, goes through ``edited``: it turns every packed column of the
``structural`` object into a list of ints, applies the edit, and packs
them back, setting each ``rows`` count from the table's first column. A
list that no width holds (a negative or bool cell, a float, 2**32) stays a
list, which a loader must refuse as it refuses any column that is not
packed. ``as_version_2`` rewrites a file in the layout of version 2.
"""

from __future__ import annotations

import base64

WIDTHS = (1, 2, 4)

# the packed columns of each table; each edge kind's table has "from" and "to"
_SYMBOLS = ("kind", "file", "start_line", "end_line")
_SITES = ("caller", "callee", "file", "start_line", "end_line")


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


def _tables(structural: dict):
    """Each table that holds packed columns, with their names, and whether
    it states its rows."""
    if type(structural.get("symbols")) is dict:
        yield structural["symbols"], _SYMBOLS, False
    if type(structural.get("call_sites")) is dict:
        yield structural["call_sites"], _SITES, True
    for table in structural.get("edges", {}).values():
        yield table, ("from", "to"), True


def unpacked(structural: dict) -> dict:
    """``structural`` with every packed column a list, and no ``rows``."""
    for table, names, _ in _tables(structural):
        table.pop("rows", None)
        for name in names:
            table[name] = unpack(table[name])
    return structural


def repacked(structural: dict) -> dict:
    """``unpacked`` undone: each list column packed, each ``rows`` set."""
    for table, names, rows in _tables(structural):
        if rows:
            table["rows"] = len(table[names[0]])
        for name in names:
            table[name] = pack(table[name])
    return structural


def edited(structural: dict, edit) -> dict:
    """``structural`` after ``edit`` of its columns as lists."""
    edit(unpacked(structural))
    return repacked(structural)


def as_version_2(payload: dict, doc_ids) -> dict:
    """A version 3 file's payload in the version 2 layout: int columns as
    JSON lists, and intent docs with their ids as a ``symbol_id`` column."""
    unpacked(payload["structural"])
    payload["version"] = 2
    if payload["intent"] is not None:
        payload["intent"]["docs"]["symbol_id"] = list(doc_ids)
    return payload
