"""The closure check over id columns against the frozen object walk in
refindex.py: both accept or both reject every index here, on build and,
where the file can hold the case, on load.

Each broken index changes one thing of the toy index: a second parent,
a containment cycle, a root with a parent or a real symbol without one,
an edge or call-site end outside the ids, ids that are not the rows, or a
qualified name that does not end in the name."""

import dataclasses

import pytest

import corpusgen
import refindex
from cppatlas.errors import CorruptIndex
from cppatlas.index import (
    StructuralIndex,
    _check_closure,
    build_index,
    load_index,
    persist_index,
)
from cppatlas.model import EdgeKind, StructuralEdge, SymbolKind
from cppatlas.repo import Repository, SourceUnit

CONTAINS = EdgeKind.CONTAINS


def accepts(check, index) -> bool:
    try:
        check(index)
    except AssertionError:
        return False
    return True


def variant(index, symbols=None, edges=None, call_sites=None):
    """``index`` with some lists replaced; it derives its own graph."""
    return dataclasses.replace(
        index,
        symbols=index.symbols if symbols is None else symbols,
        edges=index.edges if edges is None else edges,
        call_sites=index.call_sites if call_sites is None else call_sites,
    )


def parent_of(index, child) -> int:
    return next(e.src for e in index.edges if e.kind is CONTAINS and e.dst == child)


def reparented(index, child, new_parent):
    """``index`` with the contains edge into ``child`` coming from
    ``new_parent`` instead."""
    return variant(index, edges=[
        StructuralEdge(CONTAINS, new_parent, child)
        if e.kind is CONTAINS and e.dst == child else e
        for e in index.edges
    ])


def chain_of(index, length) -> list[int]:
    """Real symbols, each the parent of the next."""
    for e in index.edges:
        if e.kind is not CONTAINS or index.symbols[e.src].is_synthetic:
            continue
        ids = [e.src, e.dst]
        while len(ids) < length:
            below = index.graph.targets(CONTAINS, ids[-1])
            if not below:
                break
            ids.append(below[0])
        if len(ids) == length:
            return ids
    raise LookupError(f"no containment chain of {length}")


def second_parent(index):
    child = chain_of(index, 2)[1]
    other = next(i for i in range(len(index.symbols))
                 if i not in (child, parent_of(index, child)))
    return variant(index, edges=[*index.edges, StructuralEdge(CONTAINS, other, child)])


def two_cycle(index):
    a, b = chain_of(index, 2)
    return reparented(index, a, b)


def three_cycle(index):
    a, b, c = chain_of(index, 3)
    return reparented(index, a, c)


def self_loop(index):
    a = chain_of(index, 2)[1]
    return reparented(index, a, a)


def synthetic_with_parent(kind):
    def corrupt(index):
        root = next(r for r in index.symbols
                    if r.is_synthetic and (r.kind is SymbolKind.FILE) == (kind == "file"))
        # a parent from another file, so the new edge closes no cycle
        real = next(r.symbol_id for r in index.symbols if not r.is_synthetic
                    and r.location.file != root.location.file)
        return variant(index, edges=[
            *index.edges, StructuralEdge(CONTAINS, real, root.symbol_id)
        ])
    return corrupt


def real_without_parent(index):
    child = chain_of(index, 2)[1]
    return variant(index, edges=[
        e for e in index.edges if not (e.kind is CONTAINS and e.dst == child)
    ])


def dangling_edge(kind, end, at):
    def corrupt(index):
        bad = len(index.symbols) if at == "n" else -1
        a, b = chain_of(index, 2)
        if kind is CONTAINS and end == "src":  # b keeps one parent
            return reparented(index, b, bad)
        src, dst = (bad, b) if end == "src" else (a, bad)
        return variant(index, edges=[*index.edges, StructuralEdge(kind, src, dst)])
    return corrupt


def dangling_site(field, at):
    def corrupt(index):
        bad = len(index.symbols) if at == "n" else -1
        sites = list(index.call_sites)
        sites[0] = sites[0]._replace(**{field: bad})
        return variant(index, call_sites=sites)
    return corrupt


def swapped_ids(index):
    symbols = list(index.symbols)
    a, b = chain_of(index, 2)
    symbols[a] = symbols[a]._replace(symbol_id=b)
    symbols[b] = symbols[b]._replace(symbol_id=a)
    return variant(index, symbols=symbols)


def shifted_ids(index):
    symbols = [r._replace(symbol_id=r.symbol_id + 1) for r in index.symbols]
    return variant(index, symbols=symbols)


def name_mismatch(index):
    symbols = list(index.symbols)
    real = chain_of(index, 2)[1]
    symbols[real] = symbols[real]._replace(name="elsewhere")
    return variant(index, symbols=symbols)


BROKEN = {
    "second-parent": second_parent,
    "two-node-cycle": two_cycle,
    "three-node-cycle": three_cycle,
    "contains-self-loop": self_loop,
    "file-root-with-parent": synthetic_with_parent("file"),
    "unresolved-with-parent": synthetic_with_parent("unresolved"),
    "real-without-parent": real_without_parent,
    **{
        f"dangling-{kind.value}-{end}-at-{at}": dangling_edge(kind, end, at)
        for kind in (CONTAINS, EdgeKind.CALLS)
        for end in ("src", "dst")
        for at in ("minus-one", "n")
    },
    **{
        f"dangling-call-site-{field}-at-{at}": dangling_site(field, at)
        for field in ("caller", "callee")
        for at in ("minus-one", "n")
    },
    "qualified-name-not-ending-in-name": name_mismatch,
}
# ids are rows in the file, so it cannot hold these
BUILD_ONLY = {"swapped-ids": swapped_ids, "shifted-ids": shifted_ids}


def test_the_toy_index_holds_every_case(toy_index):
    assert len(chain_of(toy_index, 3)) == 3
    assert any(r.kind is SymbolKind.FILE for r in toy_index.symbols)
    assert any(r.is_synthetic and r.kind is not SymbolKind.FILE
               for r in toy_index.symbols)


@pytest.mark.parametrize("corrupt", [*BROKEN.values(), *BUILD_ONLY.values()],
                         ids=[*BROKEN, *BUILD_ONLY])
def test_checks_agree_on_a_broken_index(toy_index, corrupt):
    broken = corrupt(toy_index)
    assert not accepts(refindex._check_closure, broken)
    assert not accepts(_check_closure, broken)


@pytest.mark.parametrize("corrupt", BROKEN.values(), ids=BROKEN)
def test_load_rejects_a_broken_index(toy_index, corrupt, tmp_path):
    path = tmp_path / "atlas.caidx"
    persist_index(corrupt(toy_index), path)
    with pytest.raises(CorruptIndex):
        load_index(path)


def test_checks_agree_on_sound_indices(toy_index, tmp_path):
    empty = StructuralIndex()
    lone_root = Repository("lone", (SourceUnit.make("a.h", ""),))
    for index in (toy_index, empty, build_index(lone_root)):
        assert accepts(refindex._check_closure, index)
        assert accepts(_check_closure, index)
        persist_index(index, tmp_path / "atlas.caidx")
        assert load_index(tmp_path / "atlas.caidx").structural == index


@pytest.mark.parametrize("first", range(0, 60, 10))
def test_checks_agree_on_corpusgen(first, tmp_path):
    for seed in range(first, first + 10):
        files = corpusgen.generate(seed).files
        units = tuple(SourceUnit.make(p, t) for p, t in sorted(files.items()))
        index = build_index(Repository(f"seed{seed}", units))  # runs the new check
        assert accepts(refindex._check_closure, index), seed
        persist_index(index, tmp_path / "atlas.caidx")
        load_index(tmp_path / "atlas.caidx")  # and on the file's columns

