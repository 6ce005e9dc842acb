"""The index file against the frozen version 1 codec in refformat.py:
exact round trips, stable bytes, and the same answer to every tool request;
the packed int columns, kept from version 3, against their codec's rules;
the sections and bits columns of version 4, and version 5's one path
table; and ``model.Joined``, which holds a section, against the tuple of
its strs."""

import base64
import copy
import dataclasses
import gc
import json
import pathlib
import pickle
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cppatlas.errors import CorruptIndex, EngineError, VersionMismatch
from cppatlas.index import (
    IndexContainer,
    StructuralIndex,
    build_index,
    load_index,
    persist_index,
    read_columns,
    write_columns,
)
from cppatlas.intent import build_intent_index
from cppatlas.model import CLASS_KINDS, FUNCTION_KINDS, Joined, Location
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
    """The current format, version 5 (the name is from version 2), against
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
    # nor larger than version 2, which held every edge kind as two lists
    v2 = packed.as_version_2(packed.read_file(tmp_path / "current.caidx"),
                             intent.symbol_ids)
    assert len(current) <= len(json.dumps(v2, sort_keys=True, separators=(",", ":"))) + 1

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
    payload = packed.as_version_2(packed.read_file(path), toy_intent.symbol_ids)
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


# ----------------------------------------------------------------------
# versions 4 and 5: a JSON header line, then the sources and the intent
# texts as raw UTF-8 sections that the header gives by their lengths


def _header_and_sections(path):
    head, _, rest = path.read_bytes().partition(b"\n")
    return json.loads(head), rest


def _rewritten(path, header, sections: bytes):
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_bytes(text.encode("ascii") + b"\n" + sections)


@pytest.fixture
def toy_file(toy_index, toy_intent, tmp_path):
    path = tmp_path / "toy.caidx"
    persist_index(IndexContainer(toy_index, toy_intent), path)
    return path


def test_v3_file_is_a_version_mismatch(toy_file):
    payload = packed.read_file(toy_file)  # in the version 3 layout
    for name in ("is_definition", "is_virtual", "has_override"):
        assert type(payload["structural"]["symbols"][name]) is list
    payload["version"] = 3
    toy_file.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":"))
                        + "\n", encoding="utf-8")
    with pytest.raises(VersionMismatch):
        load_index(toy_file)


def test_v4_file_is_a_version_mismatch(toy_file):
    # version 4 held a ``files`` table of its own, and the includes by path
    payload = packed.read_file(toy_file)
    structural, symbols = payload["structural"], payload["structural"]["symbols"]
    sources = structural["sources"]
    structural["sources"] = {"paths": list(sources),
                             "lengths": packed.pack(list(map(len, sources.values())))}
    for name in ("is_definition", "is_virtual", "has_override"):
        symbols[name] = packed.bits(symbols[name])
    payload["version"] = 4
    _rewritten(toy_file, payload, "".join(sources.values()).encode("utf-8")
               + "".join(payload["intent"]["docs"].pop("text")).encode("utf-8"))
    with pytest.raises(VersionMismatch):
        load_index(toy_file)


def test_the_file_is_a_header_line_and_two_sections(toy_index, toy_intent, toy_file):
    header, sections = _header_and_sections(toy_file)
    sources = toy_index.sources
    assert header["version"] == 5
    paths = header["structural"]["sources"]["paths"]
    assert paths == sorted(sources)
    want = "".join(map(sources.__getitem__, sorted(sources))) + "".join(toy_intent.texts)
    assert sections == want.encode("utf-8")
    lengths = packed.unpack(header["structural"]["sources"]["lengths"])
    assert lengths == [len(sources[p]) for p in sorted(sources)]
    docs = header["intent"]["docs"]
    assert packed.unpack(docs["lengths"]) == [len(t) for t in toy_intent.texts]
    assert docs["rows"] == len(toy_intent.texts)
    symbols = header["structural"]["symbols"]
    assert packed.unbits(symbols["is_definition"], len(symbols["name"])) == [
        r.is_definition for r in toy_index.symbols]
    # the sources' paths are the one path table: file codes are 0 for no
    # file and 1 more than a path's row
    assert "files" not in header["structural"]
    files = ["", *paths]
    assert [files[c] for c in packed.unpack(symbols["file"])] == [
        r.location.file for r in toy_index.symbols]
    assert [files[c] for c in packed.unpack(header["structural"]["call_sites"]["file"])] == [
        c.location.file for c in toy_index.call_sites]
    includes = header["structural"]["includes"]
    assert dict(zip([files[c] for c in packed.unpack(includes["file"])],
                    map(tuple, includes["names"]))) == toy_index.includes
    # tests/packed.py gives the file back as it read it
    copy_path = toy_file.with_name("copy.caidx")
    packed.write_file(copy_path, packed.read_file(toy_file))
    assert copy_path.read_bytes() == toy_file.read_bytes()


def _edit_lengths(where: str, row: int, delta: int):
    def edit(header):
        table = (header["structural"]["sources"] if where == "sources"
                 else header["intent"]["docs"])
        lengths = packed.unpack(table["lengths"])
        lengths[row] += delta
        table["lengths"] = packed.pack(lengths)
    return edit


def _paths(edit):
    def edit_paths(header):
        table = header["structural"]["sources"]
        lengths = packed.unpack(table["lengths"])
        table["paths"], lengths = edit(table["paths"], lengths)
        table["lengths"] = packed.pack(lengths)
    return edit_paths


def _bits_edit(edit):
    def edit_bits(header):
        column = header["structural"]["symbols"]["is_virtual"]
        raw = edit(bytearray(base64.b64decode(column)))
        header["structural"]["symbols"]["is_virtual"] = base64.b64encode(raw).decode()
    return edit_bits


def _one_more_text(header):
    docs = header["intent"]["docs"]
    docs["lengths"] = packed.pack(packed.unpack(docs["lengths"]) + [0])
    docs["rows"] += 1


# (edit of the header, edit of the sections' bytes)
_BAD_SECTIONS = {
    "source-length-one-more": (_edit_lengths("sources", 0, 1), None),
    "source-length-one-less": (_edit_lengths("sources", 0, -1), None),
    "last-source-length-one-more": (_edit_lengths("sources", -1, 1), None),
    "text-length-one-more": (_edit_lengths("texts", 0, 1), None),
    "text-length-one-less": (_edit_lengths("texts", -1, -1), None),
    "lengths-sum-past-the-file": (_edit_lengths("texts", 2, 10**6), None),
    "bytes-after-the-texts": (None, lambda raw: raw + b"x"),
    "newline-after-the-texts": (None, lambda raw: raw + b"\n"),
    "texts-cut-short": (None, lambda raw: raw[:-1]),
    "unsorted-paths": (_paths(lambda p, n: (p[::-1], n[::-1])), None),
    "duplicate-path": (_paths(lambda p, n: ([p[0], *p[:-1]], n)), None),
    "path-missing": (_paths(lambda p, n: (p[:-1], n)), None),
    "lengths-missing": (lambda h: h["structural"]["sources"].pop("lengths"), None),
    "paths-not-a-list": (lambda h: h["structural"]["sources"].update(paths="a"), None),
    "one-text-more-than-real-rows": (_one_more_text, None),
    "bits-one-byte-long": (_bits_edit(lambda raw: raw + b"\0"), None),
    "bits-one-byte-short": (_bits_edit(lambda raw: raw[:-1]), None),
    "bits-a-list": (lambda h: h["structural"]["symbols"].update(
        is_virtual=[False] * len(h["structural"]["symbols"]["name"])), None),
    "bits-not-base64": (lambda h: h["structural"]["symbols"].update(is_virtual="*"), None),
    "bad-byte-in-the-sources": (None, lambda raw: b"\xff" + raw[1:]),
    "bad-byte-in-the-texts": (None, lambda raw: raw[:-1] + b"\xff"),
    "lone-continuation-byte": (None, lambda raw: raw[:5] + b"\x80" + raw[6:]),
    "cut-multibyte-sequence": (None, lambda raw: raw[:5] + b"\xe2\x82" + raw[7:]),
}


@pytest.mark.parametrize("edit_header, edit_sections", _BAD_SECTIONS.values(),
                         ids=_BAD_SECTIONS)
def test_a_bad_section_or_bits_column_is_corrupt(toy_file, edit_header, edit_sections):
    _edited(toy_file, edit_header, edit_sections)
    with pytest.raises(CorruptIndex):
        load_index(toy_file)


def _edited(path, edit_header, edit_sections):
    header, sections = _header_and_sections(path)
    if edit_header is not None:
        edit_header(header)
    if edit_sections is not None:
        sections = edit_sections(sections)
    _rewritten(path, header, sections)


# the cases that edit no intent text: with none, the sources end the file,
# and a last source length that runs past it must not clip to fit
_NEED_TEXTS = {"text-length-one-more", "text-length-one-less",
               "lengths-sum-past-the-file", "one-text-more-than-real-rows"}


@pytest.mark.parametrize("case", sorted(_BAD_SECTIONS.keys() - _NEED_TEXTS))
def test_a_bad_section_is_corrupt_in_a_file_with_no_intent_texts(toy_index, tmp_path,
                                                                 case):
    path = tmp_path / "toy.caidx"
    persist_index(toy_index, path)
    _edited(path, *_BAD_SECTIONS[case])
    with pytest.raises(CorruptIndex):
        load_index(path)


def test_a_wide_character_widens_its_own_source_alone(tmp_path):
    """A load keeps about one byte per character of ASCII sources, though
    another source holds a character outside Latin-1."""
    line = "int f(int a) { return a + 1; }  // ascii\n"
    sources = {f"src/{i:03}.h": line * 25 for i in range(500)}
    ascii_chars = sum(map(len, sources.values()))
    sources["wide.h"] = "// \U0001f600\n"
    path = tmp_path / "wide.caidx"
    persist_index(StructuralIndex(sources=sources), path)
    load_index(path)  # a first load imports what loads need
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_index(path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loaded.structural.sources == sources
    assert kept < 1.5 * ascii_chars, (kept, ascii_chars)


def _includes_edit(edit):
    def edit_includes(header):
        table = header["structural"]["includes"]
        table["file"] = packed.pack(edit(packed.unpack(table["file"]),
                                         len(header["structural"]["sources"]["paths"])))
    return edit_includes


_BAD_INCLUDES = {
    "includes-file-past-the-paths": lambda f, n: [*f[:-1], n + 1],
    "includes-file-repeated": lambda f, n: [f[0], *f[:-1]],
    "includes-files-unsorted": lambda f, n: f[::-1],
    "includes-file-with-no-source": lambda f, n: [0, *f[1:]],
}


@pytest.mark.parametrize("edit", _BAD_INCLUDES.values(), ids=_BAD_INCLUDES)
def test_an_includes_file_that_is_no_source_in_path_order_is_corrupt(toy_file, edit):
    header, sections = _header_and_sections(toy_file)
    _includes_edit(edit)(header)
    _rewritten(toy_file, header, sections)
    with pytest.raises(CorruptIndex, match="includes"):
        load_index(toy_file)


def test_a_file_with_no_source_fails_at_persist(toy_index, tmp_path):
    first = sorted(toy_index.includes)[0]
    for index in (
            dataclasses.replace(toy_index, sources={
                p: t for p, t in toy_index.sources.items() if p != first}),
            dataclasses.replace(toy_index, includes={
                **toy_index.includes, "nowhere.h": ()})):
        path = tmp_path / "atlas.caidx"
        with pytest.raises(CorruptIndex, match="has no source"):
            persist_index(index, path)
        assert not path.exists()


def test_a_bits_column_has_no_bit_set_past_its_rows(tmp_path):
    three = Repository("three", (SourceUnit.make("a.h", "struct A {};\nvoid f();\n"),))
    index = build_index(three)
    assert len(index.symbols) % 8 == 3
    path = tmp_path / "three.caidx"
    persist_index(index, path)
    assert load_index(path).structural == index
    header, sections = _header_and_sections(path)
    column = header["structural"]["symbols"]["is_definition"]
    assert len(base64.b64decode(column)) == 1
    for spare in range(3, 8):
        raw = bytes([base64.b64decode(column)[0] | 1 << spare])
        header["structural"]["symbols"]["is_definition"] = base64.b64encode(raw).decode()
        _rewritten(path, header, sections)
        with pytest.raises(CorruptIndex, match="bits"):
            load_index(path)


@pytest.mark.parametrize("at", ["header", "start-of-sources", "end-of-texts"])
def test_a_file_that_is_not_utf8_is_corrupt(toy_file, at):
    data = bytearray(toy_file.read_bytes())
    data[{"header": 1, "start-of-sources": data.index(b"\n") + 1,
          "end-of-texts": len(data) - 1}[at]] = 0xFF
    toy_file.write_bytes(bytes(data))
    with pytest.raises(CorruptIndex):
        load_index(toy_file)


def test_sections_without_intent_end_with_the_sources(toy_index, tmp_path):
    path = tmp_path / "atlas.caidx"
    persist_index(toy_index, path)
    header, sections = _header_and_sections(path)
    assert header["intent"] is None
    assert sections == "".join(map(toy_index.sources.__getitem__,
                                   sorted(toy_index.sources))).encode("utf-8")
    _rewritten(path, header, sections + b"int x;\n")
    with pytest.raises(CorruptIndex, match="their lengths sum to"):
        load_index(path)


def test_lone_surrogates_round_trip_in_both_sections(toy_index, toy_intent, tmp_path):
    first = sorted(toy_index.sources)[0]
    sources = {**toy_index.sources, first: "\ud800x\n" + toy_index.sources[first],
               "z\udfff.h": "\udfff\n😀 \U0001f600\n"}
    index = dataclasses.replace(toy_index, sources=sources)
    texts = list(toy_intent.texts)
    texts[0], texts[-1] = "odd \ud800 text", "\udfff"
    intent = dataclasses.replace(toy_intent, texts=texts)
    path, again = tmp_path / "odd.caidx", tmp_path / "again.caidx"
    persist_index(IndexContainer(index, intent), path)
    loaded = load_index(path)
    assert loaded.structural.sources == sources
    assert list(loaded.intent.texts) == texts
    assert loaded.structural == index and loaded.intent == intent
    persist_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()


_DICT_READS = [
    lambda t, first: t[first], lambda t, first: t.get(first),
    lambda t, first: t.get("absent.h", 7), lambda t, first: first in t,
    lambda t, first: "absent.h" in t, lambda t, first: list(t),
    lambda t, first: list(reversed(t)), lambda t, first: list(t.keys()),
    lambda t, first: list(t.values()), lambda t, first: list(t.items()),
    lambda t, first: t.copy(), lambda t, first: repr(t),
    lambda t, first: t == {**t}, lambda t, first: dict(t) == t,
    lambda t, first: t != {}, lambda t, first: t | {}, lambda t, first: {} | t,
    lambda t, first: dict(t), lambda t, first: {**t}, lambda t, first: len(t),
    lambda t, first: bool(t), lambda t, first: json.dumps(t, sort_keys=True),
    lambda t, first: json.dumps(t), lambda t, first: sorted(t),
    lambda t, first: pickle.loads(pickle.dumps(t)),
    lambda t, first: copy.deepcopy(t),
]


def test_loaded_sources_read_as_the_built_dict(toy_index, toy_file):
    # each read is the first of a table just loaded
    first = sorted(toy_index.sources)[0]
    for i, read in enumerate(_DICT_READS):
        want = read(dict(toy_index.sources), first)
        assert read(load_index(toy_file).structural.sources, first) == want, i
    # two loaded tables compare by their items
    assert load_index(toy_file).structural.sources == load_index(toy_file).structural.sources
    with pytest.raises(TypeError):
        load_index(toy_file).structural.sources["a.h"] = "int a;"


def test_loaded_tables_compare_as_the_built_dicts(toy_index, toy_file):
    loaded = load_index(toy_file).structural
    for table, built in ((loaded.sources, toy_index.sources),
                         (loaded.includes, toy_index.includes)):
        want = dict(built)
        assert table == want and want == table and table == built
        assert not (table != want or want != table or table != built)
        other = {**want, next(iter(want)): "changed"}
        assert table != other and other != table and not table == other
        assert table != {} and {} != table


_STRS = st.lists(st.text(st.sampled_from("a \u00e9\u20ac\U0001f600\ud800\udfff\n"),
                         max_size=4), max_size=6)


def _assert_reads_as(joined, items: tuple):
    """Every read of ``joined`` gives what the same read of ``items``
    gives."""
    n = len(items)
    assert len(joined) == n and bool(joined) == bool(items)
    assert tuple(joined) == items and list(reversed(joined)) == list(reversed(items))
    assert [joined[i] for i in range(-n, n)] == [items[i] for i in range(-n, n)]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            joined[i]
    for cut in (slice(None), slice(1, None), slice(-2, 5), slice(None, None, -2),
                slice(n, None)):
        assert joined[cut] == items[cut]
    for probe in (*items, "", "zz", "a\ud800"):
        assert (probe in joined) == (probe in items)
        assert joined.count(probe) == items.count(probe)
    assert joined == items and items == joined and not joined != items
    assert joined == Joined.of(items) and Joined.of(list(items)) == joined
    assert joined != list(items) and list(items) != joined
    assert joined != (*items, "x") and (*items, "x") != joined
    if items:
        assert joined != items[:-1] and items[:-1] != joined
    assert hash(joined) == hash(items)
    assert repr(joined) == f"Joined({items!r})"
    for copied in (pickle.loads(pickle.dumps(joined)), copy.deepcopy(joined)):
        assert type(copied) is Joined and copied == joined and tuple(copied) == items
    with pytest.raises(TypeError):
        joined["a"]
    with pytest.raises(TypeError):
        joined[0] = "x"


@settings(max_examples=60, deadline=None)
@given(items=_STRS)
@example(items=[])
@example(items=[""])
@example(items=["", "", ""])
@example(items=["ab", "", "\ud800c", "d e", "\U0001f600\n\u00e9"])
def test_joined_reads_as_the_tuple_of_its_strs(toy_index, toy_intent, items):
    """A ``Joined`` as ``of`` builds it, and as a load makes it of the
    intent texts; the same odd strs as sources load as the built dict."""
    items = tuple(items)
    _assert_reads_as(Joined.of(items), items)
    _assert_reads_as(Joined.of(iter(items)), items)
    texts = tuple(items[row % len(items)] for row in range(len(toy_intent.texts))
                  ) if items else tuple(toy_intent.texts)
    index = dataclasses.replace(toy_index, sources={
        **toy_index.sources, **{f"z/{row:02}.h": text for row, text in enumerate(items)}})
    intent = dataclasses.replace(toy_intent, texts=texts)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "odd.caidx"
        persist_index(IndexContainer(index, intent), path)
        loaded = load_index(path)
    assert loaded.structural.sources == index.sources
    _assert_reads_as(loaded.intent.texts, texts)
