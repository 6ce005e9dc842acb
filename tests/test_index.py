import base64
import dataclasses
import json
import math
import random

import numpy as np
import pytest

from cppatlas.errors import (
    CorruptIndex,
    EngineError,
    NotFound,
    StaleIndexWarning,
    VersionMismatch,
)
from cppatlas.index import (
    Graph,
    IndexContainer,
    StructuralIndex,
    build_index,
    load_index,
    persist_index,
)
from cppatlas.intent import IntentDoc, IntentIndex
from cppatlas.model import (
    UNRESOLVED_PREFIX, EdgeKind, Location, StructuralEdge, SymbolKind)
from cppatlas.queries import find_class
from cppatlas.repo import Repository, SourceUnit, load_repository
from cppatlas.tools import ToolContext, dispatch_tool

import corpusgen
import refindex


def _external(intent):
    """``intent`` as if an external provider had made it: its vectors are
    stored, not rebuilt. Rows are scaled so no hash row could equal them."""
    docs = tuple(
        IntentDoc(d.symbol_id, d.qualified_name, d.kind, d.text,
                  tuple(x * (-1) ** d.symbol_id / 3 for x in d.vector))
        for d in intent.docs
    )
    return IntentIndex("scripted-256", intent.dim, intent.repo_snapshot, docs)


def materialize(tmp_path, corpus):
    for rel, content in corpus.files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content)
    return tmp_path


@pytest.fixture(scope="module", params=[0, 7, 101])
def index(request, tmp_path_factory):
    corpus = corpusgen.generate(request.param)
    root = materialize(tmp_path_factory.mktemp("corpus"), corpus)
    return build_index(load_repository(root))


class TestGraphInvariants:
    def test_symbol_ids_are_dense(self, index):
        assert [r.symbol_id for r in index.symbols] == list(range(len(index.symbols)))

    def test_edge_endpoints_in_range(self, index):
        n = len(index.symbols)
        for e in index.edges:
            assert 0 <= e.src < n and 0 <= e.dst < n

    def test_containment_is_a_forest(self, index):
        roots = 0
        for rec in index.symbols:
            parent = index.parent(rec.symbol_id)
            if rec.kind is SymbolKind.FILE:
                assert parent is None
                roots += 1
            elif not rec.qualified_name.startswith(UNRESOLVED_PREFIX):
                assert parent is not None
                # walking up always terminates at a file root
                seen = set()
                cur = rec.symbol_id
                while index.parent(cur) is not None:
                    assert cur not in seen
                    seen.add(cur)
                    cur = index.parent(cur)
                assert index.symbols[cur].kind is SymbolKind.FILE
        assert roots == len(index.sources)

    def test_lookup_tables_cover_all_symbols(self, index):
        for rec in index.symbols:
            assert rec.symbol_id in index.by_name[rec.name]
            assert rec.symbol_id in index.by_qualified[rec.qualified_name]
        for ids in index.by_name.values():
            assert ids == sorted(ids)
        for ids in index.by_qualified.values():
            assert ids == sorted(ids)

    def test_call_sites_match_call_edges(self, index):
        edge_pairs = {
            (e.src, e.dst) for e in index.edges if e.kind is EdgeKind.CALLS
        }
        site_pairs = {(s.caller, s.callee) for s in index.call_sites}
        assert site_pairs == edge_pairs

    def test_unresolved_sentinels_are_marked(self, index):
        for rec in index.symbols:
            if rec.qualified_name.startswith(UNRESOLVED_PREFIX):
                assert rec.kind is SymbolKind.FREE_FUNCTION
                assert not rec.is_definition


def test_build_is_deterministic(toyrepo_root):
    a = build_index(load_repository(toyrepo_root))
    b = build_index(load_repository(toyrepo_root))
    assert a == b


def _assert_same_build(repo, tmp_path):
    """``build_index`` against the frozen build in refindex.py: the same
    lookup tables, key order included, and the same persisted bytes."""
    got, want = build_index(repo), refindex.build_index(repo)
    for table in ("by_name", "by_qualified", "by_suffix"):
        assert list(getattr(got, table).items()) == list(
            getattr(want, table).items()
        ), table
    # the frozen build's lists, as the tuples a StructuralIndex holds
    frozen = StructuralIndex(**refindex.persisted(want))
    assert refindex.persisted(got) == refindex.persisted(frozen)
    persist_index(got, tmp_path / "got.caidx")
    persist_index(frozen, tmp_path / "want.caidx")
    assert (tmp_path / "got.caidx").read_bytes() == (
        tmp_path / "want.caidx"
    ).read_bytes()
    return got


@pytest.mark.parametrize("first", range(0, 60, 10))
def test_build_matches_the_frozen_build_on_corpusgen(first, tmp_path):
    for seed in range(first, first + 10):
        files = corpusgen.generate(seed).files
        units = tuple(SourceUnit.make(p, t) for p, t in sorted(files.items()))
        _assert_same_build(Repository(f"seed{seed}", units), tmp_path)


def test_build_matches_the_frozen_build_on_both_call_styles(tmp_path):
    # one scope calls Gadget in both styles: the plain call reaches the
    # function, the constructor-style one the class's constructor
    text = (
        "namespace app {\n"
        "struct Gadget { Gadget(int v); };\n"
        "int Gadget(long v);\n"
        "void first() { Gadget(1); Gadget g(2); }\n"
        "void second() { Gadget h(3); Gadget(4); app::Gadget(5); }\n"
        "}\n"
    )
    repo = Repository("styles", (SourceUnit.make("a.cpp", text),))
    index = _assert_same_build(repo, tmp_path)
    kinds = {index.symbols[s.callee].kind for s in index.call_sites}
    assert kinds == {SymbolKind.CONSTRUCTOR, SymbolKind.FREE_FUNCTION}


def test_build_matches_the_frozen_build_on_seeds_side_by_side(tmp_path):
    # every seed reuses the same namespaces and names, so names collide
    # across seeds, overload cliques span them and sentinels are shared
    units = tuple(sorted(
        (
            SourceUnit.make(f"s{seed}/{path}", text)
            for seed in range(24)
            for path, text in corpusgen.generate(seed).files.items()
        ),
        key=lambda u: u.path,
    ))
    index = _assert_same_build(Repository("side-by-side", units), tmp_path)

    def seed_of(symbol_id):
        return index.symbols[symbol_id].location.file.split("/")[0]

    callers_of: dict[int, set[str]] = {}
    for site in index.call_sites:
        if index.symbols[site.callee].qualified_name.startswith(UNRESOLVED_PREFIX):
            callers_of.setdefault(site.callee, set()).add(seed_of(site.caller))
    assert any(len(seeds) > 1 for seeds in callers_of.values())
    assert any(
        seed_of(e.src) != seed_of(e.dst)
        for e in index.edges
        if e.kind is EdgeKind.OVERLOAD_OF
    )


class TestToyRepoGraph:
    def test_known_symbols_present(self, toy_index):
        q = toy_index.by_qualified
        assert "calc::Calculator" in q
        assert "calc::Calculator::subtract" in q
        assert "calc::SciCalculator::power" in q

    def test_subtract_has_declaration_and_definition(self, toy_index):
        recs = [
            toy_index.symbols[i]
            for i in toy_index.by_qualified["calc::Calculator::subtract"]
        ]
        assert sorted(r.is_definition for r in recs) == [False, True]
        decl = next(r for r in recs if not r.is_definition)
        assert "difference" in decl.doc_comment

    def test_inheritance_edge(self, toy_index):
        derived = toy_index.symbols[
            toy_index.by_qualified["calc::SciCalculator"][0]
        ]
        bases = {
            toy_index.symbols[e.dst].qualified_name
            for e in toy_index.edges
            if e.kind is EdgeKind.INHERITS_FROM and e.src == derived.symbol_id
        }
        assert bases == {"calc::Calculator"}

    def test_flavor_override_edge(self, toy_index):
        overrides = {
            (
                toy_index.symbols[e.src].qualified_name,
                toy_index.symbols[e.dst].qualified_name,
            )
            for e in toy_index.edges
            if e.kind is EdgeKind.OVERRIDES
        }
        assert ("calc::SciCalculator::flavor", "calc::Calculator::flavor") in overrides

    def test_out_of_line_call_resolves_through_class_scope(self, toy_index):
        sites = {
            (
                toy_index.symbols[s.caller].qualified_name,
                toy_index.symbols[s.callee].qualified_name,
            )
            for s in toy_index.call_sites
        }
        assert ("calc::Calculator::multiply", "calc::Calculator::add") in sites
        # inherited members are not searched: the lookup stops at the
        # caller's own class, its namespace, then the global scope
        assert ("calc::SciCalculator::power", "unresolved:multiply") in sites


def test_location_span_must_not_end_before_it_starts():
    with pytest.raises(ValueError):
        Location("a", 3, 2)
    assert Location("a", 3, 3).end_line == 3


class TestPersistence:
    def test_round_trip_equals_original(self, toy_index, tmp_path):
        path = tmp_path / "atlas.json"
        persist_index(toy_index, path)
        loaded = load_index(path)
        assert loaded.structural == toy_index
        assert loaded.intent is None

    def test_bytes_are_stable(self, toy_index, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        persist_index(toy_index, p1)
        persist_index(load_index(p1).structural, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_intent_survives_round_trip(self, toy_index, toy_intent, tmp_path):
        path = tmp_path / "atlas.json"
        persist_index(IndexContainer(structural=toy_index, intent=toy_intent), path)
        loaded = load_index(path)
        assert loaded.intent is not None
        assert loaded.intent.to_dict() == toy_intent.to_dict()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CorruptIndex):
            load_index(path)
        with pytest.raises(CorruptIndex):
            load_index(tmp_path / "absent.json")

    def test_file_nested_past_the_parser_depth_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_version_mismatch_rejected(self, toy_index, tmp_path):
        path = tmp_path / "atlas.json"
        persist_index(toy_index, path)
        payload = json.loads(path.read_text())
        payload["version"] = payload["version"] + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionMismatch):
            load_index(path)

    def test_stale_snapshot_warns(self, toy_index, tmp_path):
        path = tmp_path / "atlas.json"
        persist_index(toy_index, path)
        with pytest.warns(StaleIndexWarning):
            load_index(path, expected_snapshot="0" * 64)
        loaded = load_index(path, expected_snapshot=toy_index.repo_snapshot)
        assert loaded.structural.repo_snapshot == toy_index.repo_snapshot

    @staticmethod
    def _second_parent(structural):
        contains = structural["edges"]["contains"]
        child = contains["to"][0]
        other = next(f for f in contains["from"] if f != contains["from"][0])
        contains["from"].append(other)
        contains["to"].append(child)

    @staticmethod
    def _dangling_edge(structural):
        structural["edges"]["calls"]["from"].append(1)
        structural["edges"]["calls"]["to"].append(99999)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: s.pop("call_sites"),
            _dangling_edge,
            lambda s: s["call_sites"]["callee"].__setitem__(0, 99999),
            lambda s: s["edges"].update(befriends={"from": [1], "to": [2]}),
            _second_parent,
            lambda s: s["edges"].pop("overrides"),
            lambda s: s["symbols"]["name"].pop(),
            lambda s: s["edges"]["contains"]["to"].pop(),
            lambda s: s["call_sites"]["start_line"].pop(),
            lambda s: s["symbols"]["kind"].__setitem__(0, len(s["kinds"])),
            lambda s: s["symbols"]["kind"].__setitem__(0, -1),
            lambda s: s["symbols"]["file"].__setitem__(1, len(s["files"])),
            lambda s: s["call_sites"]["file"].__setitem__(0, -1),
            lambda s: s["kinds"].__setitem__(0, "macro"),
            lambda s: s["edges"]["calls"]["from"].__setitem__(0, True),
            lambda s: s["symbols"]["start_line"].__setitem__(0, 1.0),
            lambda s: s["symbols"].update(name="calc"),
            lambda s: s["sources"].update({next(iter(s["sources"])): 7}),
            lambda s: s.update(sources=list(s["sources"].items())),
            lambda s: s["includes"].update({next(iter(s["includes"])): "a.h"}),
            lambda s: s["includes"].update({next(iter(s["includes"])): [3]}),
            lambda s: s.update(parse_error_count=False),
            lambda s: s.update(parse_error_count="0"),
            lambda s: s["symbols"]["end_line"].__setitem__(
                1, s["symbols"]["start_line"][1] - 1),
            lambda s: s["call_sites"]["end_line"].__setitem__(
                0, s["call_sites"]["start_line"][0] - 1),
        ],
        ids=["missing-call-sites", "dangling-edge", "dangling-call-site",
             "unknown-edge-kind", "second-parent", "missing-edge-kind",
             "short-symbol-column", "short-edge-column",
             "short-call-site-column", "kind-index-past-table",
             "negative-kind-index", "file-index-past-table",
             "negative-call-site-file", "unknown-kind-name",
             "bool-edge-endpoint", "float-line", "column-not-a-list",
             "source-not-text", "sources-not-an-object", "includes-not-a-list",
             "include-not-text",
             "bool-parse-error-count", "string-parse-error-count",
             "symbol-span-ends-before-it-starts",
             "call-site-span-ends-before-it-starts"],
    )
    def test_malformed_structural_payload_rejected(
        self, toy_index, tmp_path, corrupt
    ):
        path = tmp_path / "atlas.json"
        persist_index(toy_index, path)
        payload = json.loads(path.read_text())
        corrupt(payload["structural"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptIndex):
            load_index(path)

    @pytest.mark.parametrize("snapshot", [7, None, ["abc"]])
    def test_snapshot_that_is_not_a_string_rejected(
        self, toy_index, snapshot, tmp_path
    ):
        path = tmp_path / "atlas.json"
        persist_index(toy_index, path)
        payload = json.loads(path.read_text())
        payload["repo_snapshot"] = snapshot
        path.write_text(json.dumps(payload))
        for expected in (None, toy_index.repo_snapshot):
            with pytest.raises(CorruptIndex):
                load_index(path, expected_snapshot=expected)

    @staticmethod
    def _assert_corruptions_rejected(container, corruptions, tmp_path):
        persist_index(container, tmp_path / "good.json")
        load_index(tmp_path / "good.json")
        for name, corrupt in corruptions.items():
            payload = json.loads((tmp_path / "good.json").read_text())
            corrupt(payload["intent"])
            path = tmp_path / "atlas.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(CorruptIndex):
                load_index(path)
                pytest.fail(f"{name}: loaded")

    def test_malformed_intent_payload_rejected(
        self, toy_index, toy_intent, tmp_path
    ):
        synthetic = next(r.symbol_id for r in toy_index.symbols if r.is_synthetic)
        corruptions = {
            "zero dim": lambda i: i.update(dim=0, provider_name="hash-tf-0"),
            "negative dim": lambda i: i.update(dim=-256),
            "string dim": lambda i: i.update(dim="256"),
            "bool dim": lambda i: i.update(dim=True, provider_name="hash-tf-True"),
            "float dim": lambda i: i.update(dim=256.0),
            "missing docs": lambda i: i.pop("docs"),
            "short text column": lambda i: i["docs"]["text"].pop(),
            "short id column": lambda i: i["docs"]["symbol_id"].pop(),
            "id past the symbols": lambda i: i["docs"]["symbol_id"].__setitem__(
                0, len(toy_index.symbols)
            ),
            "negative id": lambda i: i["docs"]["symbol_id"].__setitem__(0, -1),
            "bool id": lambda i: i["docs"]["symbol_id"].__setitem__(0, True),
            "synthetic id": lambda i: i["docs"]["symbol_id"].__setitem__(
                0, synthetic
            ),
            "null text": lambda i: i["docs"]["text"].__setitem__(0, None),
            "number text": lambda i: i["docs"]["text"].__setitem__(1, 7),
            "text column a string": lambda i: i["docs"].update(text="calc"),
            "number snapshot": lambda i: i.update(repo_snapshot=7),
        }
        self._assert_corruptions_rejected(
            IndexContainer(structural=toy_index, intent=toy_intent),
            corruptions,
            tmp_path,
        )

    def test_malformed_stored_vectors_rejected(
        self, toy_index, toy_intent, tmp_path
    ):
        intent = _external(toy_intent)
        n, dim = intent.matrix.shape

        def encode(matrix):
            return base64.b64encode(matrix.astype("<f8").tobytes()).decode()

        def poison(i, value):
            matrix = intent.matrix.copy()
            matrix[4, 7] = value
            i["vectors"] = encode(matrix)

        corruptions = {
            "missing vectors": lambda i: i.pop("vectors"),
            "vectors a list": lambda i: i.update(vectors=intent.matrix.tolist()),
            "vectors a number": lambda i: i.update(vectors=0.5),
            "vectors null": lambda i: i.update(vectors=None),
            "not base64": lambda i: i.update(
                vectors=i["vectors"][:8] + "*" + i["vectors"][8:]
            ),
            "not ascii": lambda i: i.update(vectors="\u00e9" + i["vectors"][1:]),
            "one row short": lambda i: i.update(vectors=encode(intent.matrix[1:])),
            "one entry long": lambda i: i.update(
                vectors=encode(np.append(intent.matrix.ravel(), 0.0))
            ),
            "one byte short": lambda i: i.update(
                vectors=base64.b64encode(base64.b64decode(i["vectors"])[:-1]).decode()
            ),
            "NaN entry": lambda i: poison(i, math.nan),
            "infinite entry": lambda i: poison(i, -math.inf),
            "doc without a row": lambda i: i["docs"]["symbol_id"].append(
                i["docs"]["symbol_id"][0]
            ) or i["docs"]["text"].append("calc"),
            "zero dim": lambda i: i.update(dim=0, vectors=""),
            "negative dim": lambda i: i.update(dim=-dim),
            "float dim": lambda i: i.update(dim=float(dim)),
            "number provider name": lambda i: i.update(provider_name=7),
        }
        self._assert_corruptions_rejected(
            IndexContainer(structural=toy_index, intent=intent),
            corruptions,
            tmp_path,
        )

    def test_rebuilt_vectors_are_floats_equal_to_matrix_rows(
        self, toy_index, toy_intent, tmp_path
    ):
        path = tmp_path / "atlas.json"
        persist_index(IndexContainer(structural=toy_index, intent=toy_intent), path)
        assert '"vector' not in path.read_text()
        loaded = load_index(path).intent
        assert loaded == toy_intent
        assert np.array_equal(loaded.matrix, toy_intent.matrix)
        for row, doc in enumerate(loaded.docs):
            assert {type(x) for x in doc.vector} == {float}
            assert loaded.matrix[row].tolist() == list(doc.vector)

    def test_stored_vectors_survive_round_trip(
        self, toy_index, toy_intent, tmp_path
    ):
        intent = _external(toy_intent)
        path = tmp_path / "atlas.json"
        persist_index(IndexContainer(structural=toy_index, intent=intent), path)
        stored = json.loads(path.read_text())["intent"]["vectors"]
        assert base64.b64decode(stored) == intent.matrix.astype("<f8").tobytes()
        loaded = load_index(path).intent
        assert loaded == intent
        assert np.array_equal(loaded.matrix, intent.matrix)
        assert loaded.matrix.flags["C_CONTIGUOUS"]
        assert {type(x) for d in loaded.docs for x in d.vector} == {float}

    def test_loaded_graph_matches_built_graph(self, toy_index, tmp_path):
        path = tmp_path / "atlas.json"
        persist_index(toy_index, path)
        loaded = load_index(path).structural
        for rec in toy_index.symbols:
            sid = rec.symbol_id
            assert loaded.parent(sid) == toy_index.parent(sid)
            for kind in EdgeKind:
                assert loaded.graph.targets(kind, sid) == toy_index.graph.targets(kind, sid)
                assert loaded.graph.sources(kind, sid) == toy_index.graph.sources(kind, sid)
            assert loaded.graph.sites_from(sid) == toy_index.graph.sites_from(sid)
            assert loaded.graph.sites_into(sid) == toy_index.graph.sites_into(sid)


DERIVED = ("graph", "by_name", "by_qualified", "by_suffix", "trigrams")


def _derived(index) -> set[str]:
    return set(DERIVED) & set(vars(index))


class TestDerivedTables:
    """The tables derived from an index's fields are made on their first
    read, once, and never by a build or a load."""

    def test_neither_build_nor_load_derives_a_table(self, toyrepo_root, tmp_path):
        built = build_index(load_repository(toyrepo_root))
        assert _derived(built) == set()
        persist_index(built, tmp_path / "toy.caidx")
        loaded = load_index(tmp_path / "toy.caidx").structural
        assert _derived(loaded) == set()
        assert loaded == built

    def test_each_table_is_made_on_its_first_read_and_once(
        self, toy_index, monkeypatch
    ):
        graphs = []
        init = Graph.__init__

        def counted(self, *args):
            graphs.append(args)
            init(self, *args)

        monkeypatch.setattr(Graph, "__init__", counted)
        index = dataclasses.replace(toy_index)
        for n, name in enumerate(DERIVED):
            assert _derived(index) == set(DERIVED[:n])
            first = getattr(index, name)
            assert getattr(index, name) is first
            assert vars(index)[name] is first
        index.parent(3)
        assert len(graphs) == 1

    def test_find_class_derives_the_lookups_only(self, toy_index, tmp_path):
        persist_index(toy_index, tmp_path / "toy.caidx")
        loaded = load_index(tmp_path / "toy.caidx").structural
        ctx = ToolContext(loaded)
        for name in ("Calculator", "calc::SciCalculator"):
            dispatch_tool(ctx, "FindClass", {"name": name})
        assert _derived(loaded) == {"by_name", "by_qualified"}

    def test_no_field_can_be_reassigned(self, toy_index):
        for name in (*(f.name for f in dataclasses.fields(toy_index)), *DERIVED):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(toy_index, name, getattr(toy_index, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            del toy_index.symbols

    def test_no_sequence_changes_in_place(self, toy_index, tmp_path):
        # a change in place would leave the derived tables stale
        edge = StructuralEdge(EdgeKind.INHERITS_FROM, 12, 20)
        persist_index(toy_index, tmp_path / "toy.caidx")
        given = dataclasses.replace(toy_index, symbols=list(toy_index.symbols),
                                    edges=list(toy_index.edges),
                                    call_sites=list(toy_index.call_sites))
        for index in (toy_index, load_index(tmp_path / "toy.caidx").structural,
                      given):
            assert index == toy_index
            for name in ("symbols", "edges", "call_sites"):
                assert type(getattr(index, name)) is tuple
            with pytest.raises(AttributeError):
                index.edges.append(edge)
            with pytest.raises(TypeError):
                index.symbols[0] = index.symbols[1]

    def test_replace_derives_a_graph_over_the_new_edges(self, toy_index):
        site = toy_index.call_sites[0]
        assert site.callee in toy_index.graph.targets(EdgeKind.CALLS, site.caller)
        uncalled = dataclasses.replace(toy_index, edges=[
            e for e in toy_index.edges if e.kind is not EdgeKind.CALLS])
        assert _derived(uncalled) == set()
        assert uncalled.graph.targets(EdgeKind.CALLS, site.caller) == []
        for rec in toy_index.symbols:
            assert uncalled.parent(rec.symbol_id) == toy_index.parent(rec.symbol_id)


def _values(index) -> list:
    """Every record, edge, call site and location an index holds."""
    located = (*index.symbols, *index.call_sites)
    return [*located, *index.edges, *(v.location for v in located)]


class TestReadOnlyValues:
    """Each value an index holds is a named tuple, so no derived table can
    go stale under it."""

    def test_no_value_of_a_built_or_loaded_index_can_be_assigned(
        self, toy_index, tmp_path
    ):
        persist_index(toy_index, tmp_path / "toy.caidx")
        loaded = load_index(tmp_path / "toy.caidx").structural
        for index in (toy_index, loaded):
            values = _values(index)
            assert {type(v).__name__ for v in values} == {
                "SymbolRecord", "StructuralEdge", "CallSite", "Location"}
            for value in values:
                for name in value._fields:
                    with pytest.raises(AttributeError):
                        setattr(value, name, getattr(value, name))
                with pytest.raises(AttributeError):
                    value.extra = 1
            for table in (index.sources, index.includes):
                with pytest.raises(TypeError):
                    table["x.h"] = table[next(iter(table))]
            assert {type(names) for names in index.includes.values()} == {tuple}

    def test_a_rename_in_place_raises_and_the_lookups_hold(self, toy_index):
        rec = find_class(toy_index, "Calculator")
        with pytest.raises(AttributeError):
            rec.qualified_name = "calc::Renamed"
        with pytest.raises(AttributeError):
            rec.name = "Renamed"
        assert find_class(toy_index, "Calculator").qualified_name == (
            "calc::Calculator")
        with pytest.raises(NotFound):
            find_class(toy_index, "Renamed")


def _explicit_dict(rec) -> dict:
    """``SymbolRecord.to_dict`` as it was once written out, key by key."""
    return {
        "symbol_id": rec.symbol_id,
        "kind": rec.kind.value,
        "name": rec.name,
        "qualified_name": rec.qualified_name,
        "signature": rec.signature,
        "location": {
            "file": rec.location.file,
            "start_line": rec.location.start_line,
            "end_line": rec.location.end_line,
        },
        "is_definition": rec.is_definition,
        "template_params": rec.template_params,
        "doc_comment": rec.doc_comment,
        "is_virtual": rec.is_virtual,
        "has_override": rec.has_override,
    }


@pytest.mark.parametrize("tree", ["toy", "motivation", 0, 7, 42, 101])
def test_record_to_dict_keeps_its_keys_order_and_values(
    tree, toy_index, motivation_index
):
    if tree == "toy":
        index = toy_index
    elif tree == "motivation":
        index = motivation_index
    else:
        files = corpusgen.generate(tree).files
        index = build_index(Repository(f"seed{tree}", tuple(
            SourceUnit.make(p, t) for p, t in sorted(files.items()))))
    for rec in index.symbols:
        got, want = rec.to_dict(), _explicit_dict(rec)
        assert list(got.items()) == list(want.items())
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


# one request per tool, each answered on the toy index
_TOOL_CALLS = (
    ("FindClass", {"name": "Calculator"}),
    ("FindFunction", {"name": "add"}),
    ("GetInheritanceChain", {"name": "calc::SciCalculator"}),
    ("GetFunctionCalls", {"name": "calc::Calculator::add", "direction": "in"}),
    ("QueryCodeIntent", {"text": "add two numbers", "k": 5}),
    ("GrepBaseline", {"pattern": "Calculator", "regex": False}),
    ("DefectSubgraph", {"seeds": ["Calculator::add", 3], "hops": 3}),
)


def _paths(node, path=()):
    """The path of every list and every scalar under ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
        return
    yield path
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, (*path, i))


def _mutated(value, rng):
    if isinstance(value, list):
        if not value:
            return [0]
        return rng.choice([value[:-1], value + value[:1], value[::-1], []])
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return rng.choice([-1, 0, 1, 2, value - 1, value + 1, 31, 32, 10**6])
    if isinstance(value, str):
        return rng.choice(["", "x", "::", f"{value}::x", f"x::{value}",
                           value[:-1], "Calculator", "\n"])
    return rng.choice([0, "", None])


def test_every_mutated_file_that_loads_answers_every_tool(
    toy_index, toy_intent, tmp_path
):
    """An index file is a trust boundary, and a loaded index derives its
    tables at query time: whatever a damaged file that loads holds, each
    tool answers or raises an ``EngineError``, never anything else."""
    path = tmp_path / "toy.caidx"
    persist_index(IndexContainer(toy_index, toy_intent), path)
    text = path.read_text(encoding="utf-8")
    paths = [p for p in _paths(json.loads(text)) if p and p[0] in (
        "structural", "intent")]
    ctx = ToolContext(toy_index, toy_intent)
    for tool, arguments in _TOOL_CALLS:  # each request finds its answer
        dispatch_tool(ctx, tool, arguments)
    rng = random.Random(2210)
    loaded = 0
    for _ in range(200):
        payload = json.loads(text)
        *parents, last = rng.choice(paths)
        node = payload
        for key in parents:
            node = node[key]
        node[last] = _mutated(node[last], rng)
        path.write_text(json.dumps(payload), encoding="utf-8")
        try:
            container = load_index(path)
        except CorruptIndex:
            continue
        loaded += 1
        ctx = ToolContext(container.structural, container.intent)
        for tool, arguments in _TOOL_CALLS:
            try:
                assert isinstance(dispatch_tool(ctx, tool, arguments), dict)
            except EngineError:
                pass
    assert loaded >= 50
