"""The index file against the frozen version 1 codec in refformat.py:
exact round trips, stable bytes, and the same answer to every tool request;
and the packed int columns of version 3 against their codec's rules."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cppatlas.errors import CorruptIndex, EngineError, VersionMismatch
from cppatlas.index import (
    IndexContainer,
    build_index,
    load_index,
    persist_index,
    read_columns,
    write_columns,
)
from cppatlas.intent import build_intent_index
from cppatlas.model import CLASS_KINDS, FUNCTION_KINDS, Location
from cppatlas.repo import Repository, SourceUnit, load_repository
from cppatlas.tools import ToolContext, dispatch_tool

import corpusgen
import packed
import refformat

DATA = pathlib.Path(__file__).parent / "data"


def _index(source):
    if isinstance(source, str):
        return build_index(load_repository(DATA / source))
    files = corpusgen.generate(source).files
    units = tuple(SourceUnit.make(path, text) for path, text in files.items())
    return build_index(Repository("mem", units))


def _requests(index, intent):
    requests = []
    for rec in index.symbols:
        if rec.is_synthetic:
            continue
        name = rec.qualified_name
        if rec.kind in CLASS_KINDS:
            requests.append(("FindClass", {"name": name}))
            requests.append(("GetInheritanceChain",
                             {"name": name, "direction": "both"}))
        if rec.kind in FUNCTION_KINDS:
            requests.append(("FindFunction", {"name": name}))
            for direction in ("in", "out"):
                requests.append(("GetFunctionCalls", {
                    "name": name, "signature": rec.signature,
                    "direction": direction}))
        requests.append(("DefectSubgraph", {"seeds": [rec.symbol_id], "hops": 2}))
    for text in intent.texts[::3]:
        requests.append(("QueryCodeIntent", {"text": text, "k": 5}))
    requests.append(("QueryCodeIntent", {"text": "", "k": 3}))
    for name in sorted(index.by_name)[::3]:
        requests.append(("GrepBaseline", {"pattern": name, "regex": False}))
    return requests


def _answer(ctx, tool, arguments):
    try:
        return dispatch_tool(ctx, tool, arguments)
    except EngineError as exc:
        return exc.to_dict()


@pytest.mark.parametrize("source", ["toyrepo", "motivation", 0, 7, 42, 101])
def test_v2_round_trip_answers_like_v1(source, tmp_path):
    """The current format, version 3 (the name is from version 2), against
    version 1."""
    index = _index(source)
    intent = build_intent_index(index)
    built = IndexContainer(structural=index, intent=intent)

    persist_index(built, tmp_path / "current.caidx")
    persist_index(built, tmp_path / "twice.caidx")
    loaded = load_index(tmp_path / "current.caidx")
    persist_index(loaded, tmp_path / "reloaded.caidx")
    current = (tmp_path / "current.caidx").read_bytes()
    assert (tmp_path / "twice.caidx").read_bytes() == current
    assert (tmp_path / "reloaded.caidx").read_bytes() == current
    assert loaded.structural == index
    assert loaded.intent == intent
    assert np.array_equal(loaded.intent.matrix, intent.matrix)
    assert loaded.intent.matrix.tobytes() == intent.matrix.tobytes()

    refformat.persist_v1(built, tmp_path / "v1.caidx")
    old = refformat.load_v1(tmp_path / "v1.caidx")
    assert old.structural == loaded.structural
    assert old.intent == loaded.intent
    assert len(current) < (tmp_path / "v1.caidx").stat().st_size

    new_ctx = ToolContext(loaded.structural, loaded.intent)
    old_ctx = ToolContext(old.structural, old.intent)
    requests = _requests(index, intent)
    assert {tool for tool, _ in requests} == {
        "FindClass", "GetInheritanceChain", "FindFunction", "GetFunctionCalls",
        "DefectSubgraph", "QueryCodeIntent", "GrepBaseline"}
    for tool, arguments in requests:
        want = _answer(old_ctx, tool, arguments)
        assert _answer(new_ctx, tool, arguments) == want, (tool, arguments)


def test_v1_file_is_a_version_mismatch(toy_index, toy_intent, tmp_path):
    path = tmp_path / "v1.caidx"
    refformat.persist_v1(IndexContainer(toy_index, toy_intent), path)
    with pytest.raises(VersionMismatch):
        load_index(path)


def test_v2_file_is_a_version_mismatch(toy_index, toy_intent, tmp_path):
    path = tmp_path / "v3.caidx"
    persist_index(IndexContainer(toy_index, toy_intent), path)
    payload = packed.as_version_2(json.loads(path.read_text()),
                                  toy_intent.symbol_ids)
    assert type(payload["structural"]["symbols"]["kind"]) is list
    path.write_text(json.dumps(payload))
    with pytest.raises(VersionMismatch):
        load_index(path)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1 << 8, 1 << 16, 1 << 32]).flatmap(
    lambda top: st.lists(st.integers(0, top - 1), max_size=40)))
@example([])
@example([255, 0])
@example([256])
@example([65535, 3])
@example([65536])
@example([2**32 - 1, 2**32 - 2])
def test_packed_int_columns_round_trip_in_the_narrowest_width(values):
    table = write_columns({"v": values, "w": values[::-1]}, {"v": int, "w": int})
    assert table["rows"] == len(values)
    width = next(w for w in (1, 2, 4) if max(values, default=0) < 1 << 8 * w)
    assert table["v"]["width"] == table["w"]["width"] == width
    assert table["v"] == packed.pack(values)  # the bytes the layout states
    table = json.loads(json.dumps(table))
    v, w = read_columns(table, {"v": int, "w": int})
    assert list(v) == values and list(w) == values[::-1]
    assert v.itemsize == width


def test_a_packed_column_beside_lists_takes_their_length():
    table = write_columns({"n": ["a", "b"], "v": [7, 300]}, {"n": str, "v": int})
    assert "rows" not in table and table["n"] == ["a", "b"]
    assert [list(c) for c in read_columns(table, {"n": str, "v": int})] == [
        ["a", "b"], [7, 300]]


@pytest.mark.parametrize("value", [-1, -(2**40), 2**32, 2**64])
def test_a_value_no_width_holds_fails_at_persist(value, toy_index, tmp_path):
    with pytest.raises(CorruptIndex, match="outside 0 .. 2\\*\\*32 - 1"):
        write_columns({"v": [1, value, 2]}, {"v": int})
    symbols = list(toy_index.symbols)
    start = min(value, symbols[1].location.start_line)
    symbols[1] = symbols[1]._replace(
        location=Location(symbols[1].location.file, start, value))
    index = dataclasses.replace(toy_index, symbols=symbols)
    path = tmp_path / "atlas.caidx"
    with pytest.raises(CorruptIndex, match="'end_line'|'start_line'"):
        persist_index(index, path)
    assert not path.exists()
