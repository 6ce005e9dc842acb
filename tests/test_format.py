"""The version 2 index file against the frozen version 1 codec in
refformat.py: exact round trips, stable bytes, and the same answer to
every tool request."""

import pathlib

import numpy as np
import pytest

from cppatlas.errors import EngineError, VersionMismatch
from cppatlas.index import IndexContainer, build_index, load_index, persist_index
from cppatlas.intent import build_intent_index
from cppatlas.model import CLASS_KINDS, FUNCTION_KINDS
from cppatlas.repo import Repository, SourceUnit, load_repository
from cppatlas.tools import ToolContext, dispatch_tool

import corpusgen
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
    for doc in intent.docs[::3]:
        requests.append(("QueryCodeIntent", {"text": doc.text, "k": 5}))
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
    index = _index(source)
    intent = build_intent_index(index)
    built = IndexContainer(structural=index, intent=intent)

    persist_index(built, tmp_path / "v2.caidx")
    persist_index(built, tmp_path / "twice.caidx")
    loaded = load_index(tmp_path / "v2.caidx")
    persist_index(loaded, tmp_path / "reloaded.caidx")
    v2 = (tmp_path / "v2.caidx").read_bytes()
    assert (tmp_path / "twice.caidx").read_bytes() == v2
    assert (tmp_path / "reloaded.caidx").read_bytes() == v2
    assert loaded.structural == index
    assert loaded.intent == intent
    assert np.array_equal(loaded.intent.matrix, intent.matrix)
    assert loaded.intent.matrix.tobytes() == intent.matrix.tobytes()

    refformat.persist_v1(built, tmp_path / "v1.caidx")
    old = refformat.load_v1(tmp_path / "v1.caidx")
    assert old.structural == loaded.structural
    assert old.intent == loaded.intent
    assert len(v2) < (tmp_path / "v1.caidx").stat().st_size

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
