"""An index's symbols, edges and call sites are record views over columns.

The records they make are compared with the frozen build in refindex.py,
which keeps them as lists of named tuples, on built and on loaded indices;
and the views are checked to make records only when one is read."""

import gc
import pathlib

import pytest

import corpusgen
import refindex
from cppatlas.index import (IndexContainer, _Table, build_index, load_index,
                            persist_index)
from cppatlas.intent import build_intent_index
from cppatlas.model import (CLASS_KINDS, FUNCTION_KINDS, CallSiteView, EdgeView,
                            RecordView, SymbolView)
from cppatlas.repo import Repository, SourceUnit, load_repository
from cppatlas.tools import ToolContext, dispatch_tool

from test_index import _TOOL_CALLS

DATA = pathlib.Path(__file__).parent / "data"
VIEWS = {"symbols": SymbolView, "edges": EdgeView, "call_sites": CallSiteView}


def _repo(tree) -> Repository:
    if isinstance(tree, str):
        return load_repository(DATA / tree)
    units = tuple(SourceUnit.make(path, text)
                  for path, text in sorted(corpusgen.generate(tree).files.items()))
    return Repository(f"seed{tree}", units)


def _with_columns_as(view, container):
    """``view`` made again from its columns, each put in ``container``."""
    if isinstance(view, EdgeView):
        return EdgeView((container(src), container(dst)) for src, dst in view.ends)
    return type(view)(*(container(getattr(view, name)) for name in type(view).__slots__))


@pytest.mark.parametrize("tree", ["toyrepo", "motivation", 0, 7, 42, 101])
def test_views_make_the_records_of_the_frozen_build(tree, tmp_path):
    repo = _repo(tree)
    built = build_index(repo)
    want = refindex.persisted(refindex.build_index(repo))
    path, again = tmp_path / "atlas.caidx", tmp_path / "again.caidx"
    persist_index(built, path)
    loaded = load_index(path).structural
    persist_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert loaded == built
    for index in (built, loaded):
        for name, view in VIEWS.items():
            records = getattr(index, name)
            assert type(records) is view
            assert tuple(records) == tuple(want[name]), name
            assert len(records) == len(want[name])
            # each record read by index, from either end, and by slice
            n = len(records)
            assert [records[i] for i in range(n)] == list(want[name])
            assert [records[i - n] for i in range(n)] == list(want[name])
            assert records[1:-1:2] == tuple(want[name])[1:-1:2]
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    records[i]
            # equal whatever holds the columns
            for container in (list, tuple):
                assert _with_columns_as(records, container) == records


@pytest.fixture(scope="module")
def side_by_side_file(tmp_path_factory):
    """An index file of 60 corpusgen seeds side by side."""
    units = tuple(sorted(
        (SourceUnit.make(f"s{seed}/{path}", text)
         for seed in range(60) for path, text in corpusgen.generate(seed).files.items()),
        key=lambda u: u.path))
    index = build_index(Repository("side-by-side", units))
    assert len(index.symbols) >= 1000
    path = tmp_path_factory.mktemp("side-by-side") / "atlas.caidx"
    persist_index(IndexContainer(index, build_intent_index(index)), path)
    return path


def test_a_load_makes_fewer_objects_than_symbols(side_by_side_file):
    gc.collect()
    before = len(gc.get_objects())
    loaded = load_index(side_by_side_file)
    grown = len(gc.get_objects()) - before
    assert grown < len(loaded.structural.symbols), grown


def test_a_found_record_reads_one_source_text(side_by_side_file, monkeypatch):
    """The snippet of a record a tool answers with is read from its file's
    text alone: no other entry of the sources is read, nor are they
    iterated."""
    structural = load_index(side_by_side_file).structural
    sources = structural.sources
    reads = []

    def counted(read):
        def wrapped(table, *args):
            if table is sources:
                reads.append(args[:1] or read.__name__)
            return read(table, *args)
        return wrapped

    for name in ("get", "__getitem__", "__iter__", "items", "values"):
        monkeypatch.setattr(_Table, name, counted(getattr(_Table, name)))
    symbols = structural.symbols
    unique = [i for i in range(len(symbols))
              if len(structural.by_qualified[symbols.qualified_name[i]]) == 1]
    cls = next(i for i in unique if symbols.kind_of(i) in CLASS_KINDS)
    function = next(i for i in unique if symbols.kind_of(i) in FUNCTION_KINDS)
    ctx = ToolContext(structural)
    for tool, symbol in (("FindClass", cls), ("FindFunction", function)):
        reads.clear()
        answer = dispatch_tool(ctx, tool, {"name": symbols.qualified_name[symbol]})
        assert answer and reads == [(symbols.files[symbols.file[symbol]],)], (tool, reads)


def test_a_toy_session_makes_a_few_dozen_records(toyrepo_root, tmp_path,
                                                  monkeypatch):
    made = []

    def counted(cls, fields):
        made.append(cls)
        return tuple.__new__(cls, fields)

    monkeypatch.setattr(RecordView, "_make", staticmethod(counted))
    index = build_index(load_repository(toyrepo_root))
    persist_index(IndexContainer(index, build_intent_index(index)),
                  tmp_path / "toy.caidx")
    container = load_index(tmp_path / "toy.caidx")
    ctx = ToolContext(container.structural, container.intent)
    for tool, arguments in _TOOL_CALLS:
        dispatch_tool(ctx, tool, arguments)
    assert len(made) <= 24, len(made)
    # the count sees iteration too: each symbol is a record and a location
    made.clear()
    list(container.structural.symbols)
    assert len(made) == 2 * len(container.structural.symbols)
