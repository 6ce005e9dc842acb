import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cppatlas.errors import (
    AmbiguousName,
    BadRequest,
    NoSeedsResolved,
    NotFound,
    UnknownClass,
)
from cppatlas.index import build_index
from cppatlas.model import CLASS_KINDS, FUNCTION_KINDS, EdgeKind, SymbolKind
from cppatlas.queries import (
    defect_subgraph,
    find_class,
    find_function,
    get_function_calls,
    get_inheritance_chain,
    grep_baseline,
    resolve_seed,
    snippet_for,
)
from cppatlas.repo import load_repository

import corpusgen


class TestFindClass:
    def test_bare_name_resolves_to_definition(self, toy_index):
        rec = find_class(toy_index, "Calculator")
        assert rec.qualified_name == "calc::Calculator"
        assert rec.kind is SymbolKind.CLASS
        assert rec.is_definition

    def test_qualified_name(self, toy_index):
        rec = find_class(toy_index, "calc::SciCalculator")
        assert rec.qualified_name == "calc::SciCalculator"

    def test_definition_preferred_over_forward_declaration(
        self, motivation_index
    ):
        rec = find_class(motivation_index, "Search")
        assert rec.is_definition
        assert rec.location.file.endswith("search_class.h")

    def test_unknown_name(self, toy_index):
        with pytest.raises(NotFound):
            find_class(toy_index, "Nonexistent")

    def test_ambiguous_bare_name(self, tmp_path):
        (tmp_path / "a.h").write_text(
            "namespace x {\nclass Twin {\n};\n}\n"
            "namespace y {\nclass Twin {\n};\n}\n"
        )
        index = build_index(load_repository(tmp_path))
        with pytest.raises(AmbiguousName) as err:
            find_class(index, "Twin")
        assert set(err.value.candidates) == {"x::Twin", "y::Twin"}


class TestFindFunction:
    def test_overload_set_comes_back_together(self, toy_index):
        recs = find_function(toy_index, "clamp")
        assert len(recs) == 2
        assert {r.signature for r in recs} == {
            "(int, int)",
            "(int, int, int)",
        }

    def test_signature_narrows(self, toy_index):
        recs = find_function(toy_index, "clamp", signature="(int, int)")
        assert len(recs) == 1

    def test_declaration_and_definition_sorted(self, toy_index):
        recs = find_function(toy_index, "calc::Calculator::subtract")
        assert [r.is_definition for r in recs] == [True, False]

    def test_unknown_signature(self, toy_index):
        with pytest.raises(NotFound):
            find_function(toy_index, "clamp", signature="(double)")

    @pytest.mark.parametrize(
        "spelling", ["(int,int)", "( int , int )", "(int a, int b)", "int,int"]
    )
    def test_signature_spelled_like_a_declaration(self, toy_index, spelling):
        recs = find_function(toy_index, "add", signature=spelling)
        assert recs == find_function(toy_index, "add", signature="(int, int)")
        assert {r.qualified_name for r in recs} == {"calc::Calculator::add"}

    def test_stored_signatures_match_verbatim(self, toy_index):
        functions = [r for r in toy_index.symbols
                     if r.kind in FUNCTION_KINDS and not r.is_synthetic]
        assert functions
        for rec in functions:
            everything = find_function(toy_index, rec.qualified_name)
            want = [r for r in everything if r.signature == rec.signature]
            assert find_function(
                toy_index, rec.qualified_name, signature=rec.signature
            ) == want

    def test_verbatim_match_wins_over_normalization(self, tmp_path):
        # the stored "(const Widget)" matches verbatim; "(const)", which
        # normalization once made of it, names no record
        (tmp_path / "w.h").write_text(
            "struct Widget {};\nvoid take(const Widget w);\n"
        )
        index = build_index(load_repository(tmp_path))
        [rec] = find_function(index, "take", signature="(const Widget)")
        assert rec.signature == "(const Widget)"
        with pytest.raises(NotFound):
            find_function(index, "take", signature="(const)")


class TestInheritanceChain:
    def test_bases_and_derived_on_toyrepo(self, toy_index):
        chain = get_inheritance_chain(toy_index, "SciCalculator", "both")
        base_names = [
            [toy_index.symbols[i].qualified_name for i in level]
            for level in chain["bases"]
        ]
        assert base_names == [["calc::Calculator"]]
        up = get_inheritance_chain(toy_index, "Calculator", "derived")
        derived_names = [
            [toy_index.symbols[i].qualified_name for i in level]
            for level in up["derived"]
        ]
        assert derived_names == [["calc::SciCalculator"]]
        assert "bases" not in up

    def test_diamond_is_deduplicated(self, tmp_path):
        (tmp_path / "d.h").write_text(
            "class A {\n};\n"
            "class B : public A {\n};\n"
            "class C : public A {\n};\n"
            "class D : public B, public C {\n};\n"
        )
        index = build_index(load_repository(tmp_path))
        chain = get_inheritance_chain(index, "D", "bases")
        names = [
            sorted(index.symbols[i].qualified_name for i in level)
            for level in chain["bases"]
        ]
        assert names == [["B", "C"], ["A"]]

    def test_unknown_class(self, toy_index):
        with pytest.raises(UnknownClass):
            get_inheritance_chain(toy_index, "Ghost")

    def test_bad_direction(self, toy_index):
        with pytest.raises(BadRequest):
            get_inheritance_chain(toy_index, "Calculator", "sideways")


class TestFunctionCalls:
    def test_outgoing_resolved_call(self, toy_index):
        calls = get_function_calls(toy_index, "calc::Calculator::multiply")
        others = {(s["other"], s["resolved"]) for s in calls["sites"]}
        assert ("calc::Calculator::add", True) in others

    def test_incoming_direction(self, toy_index):
        calls = get_function_calls(
            toy_index, "calc::Calculator::add", direction="in"
        )
        callers = {
            toy_index.symbols[s["caller"]].qualified_name
            for s in calls["sites"]
        }
        assert "calc::Calculator::multiply" in callers

    def test_decl_def_pair_is_one_function(self, toy_index):
        # subtract has a declaration and a definition; sites aggregate both
        calls = get_function_calls(toy_index, "calc::Calculator::subtract")
        assert calls["function"] == "calc::Calculator::subtract"

    def test_overloads_need_signature(self, toy_index):
        with pytest.raises(AmbiguousName):
            get_function_calls(toy_index, "clamp")
        calls = get_function_calls(toy_index, "clamp", signature="(int, int)")
        assert any(s["other"] == "clamp" for s in calls["sites"])

    def test_bad_direction(self, toy_index):
        with pytest.raises(BadRequest):
            get_function_calls(
                toy_index, "calc::Calculator::add", direction="up"
            )


class TestSeedsAndSubgraph:
    def test_resolve_seed_forms(self, toy_index):
        sub_ids = toy_index.by_qualified["calc::Calculator::subtract"]
        assert resolve_seed(toy_index, sub_ids[0]) == [sub_ids[0]]
        assert resolve_seed(toy_index, str(sub_ids[0])) == [sub_ids[0]]
        assert resolve_seed(toy_index, "calc::Calculator::subtract") == list(
            sub_ids
        )
        # partially qualified mentions match as a trailing scope path
        assert resolve_seed(toy_index, "Calculator::subtract") == list(sub_ids)
        # bare names fan out to every record named that way, including
        # unresolved-call sentinels
        fanned = set(resolve_seed(toy_index, "subtract"))
        assert set(sub_ids) <= fanned
        for extra in fanned - set(sub_ids):
            assert toy_index.symbols[extra].qualified_name.startswith("unresolved:")
        assert resolve_seed(toy_index, "no_such_symbol") == []
        assert resolve_seed(toy_index, 10_000) == []
        # str.isdigit() holds for these, yet int() cannot read them: "²",
        # "①", and more digits than int() converts
        for seed in ("\u00b2", "\u2460", "1" * 5000):
            assert resolve_seed(toy_index, seed) == []
        # ARABIC-INDIC DIGIT THREE is decimal, and int() reads it as 3
        assert resolve_seed(toy_index, "\u0663") == [3]

    def test_zero_hops_keeps_only_seeds(self, toy_index):
        sub = defect_subgraph(toy_index, ["calc::Calculator::subtract"], hops=0)
        assert sub["nodes"] == sub["seeds"]

    def test_hops_grow_monotonically(self, toy_index):
        n1 = set(defect_subgraph(toy_index, ["subtract"], hops=1)["nodes"])
        n2 = set(defect_subgraph(toy_index, ["subtract"], hops=2)["nodes"])
        assert n1 <= n2

    def test_unresolvable_seeds_raise(self, toy_index):
        with pytest.raises(NoSeedsResolved):
            defect_subgraph(toy_index, ["zzz", "qqq"], hops=1)
        with pytest.raises(BadRequest):
            defect_subgraph(toy_index, ["subtract"], hops=-1)

    def test_overload_edges_do_not_leak_into_subgraph(self, tmp_path):
        (tmp_path / "o.h").write_text(
            "int pick(int a);\n"
            "int pick(int a, int b);\n"
            "void driver() {\n"
            "    pick(1);\n"
            "}\n"
        )
        index = build_index(load_repository(tmp_path))
        one = index.by_qualified["pick"]
        narrow = next(i for i in one if index.symbols[i].signature == "(int)")
        wide = next(
            i for i in one if index.symbols[i].signature == "(int, int)"
        )
        nodes = set(defect_subgraph(index, [narrow], hops=1)["nodes"])
        driver = index.by_qualified["driver"][0]
        assert driver in nodes  # linked by the call edge
        assert wide not in nodes  # overload grouping alone is not proximity


class TestGrep:
    def test_matches_ordered_and_counted(self, motivation_index):
        got = grep_baseline(motivation_index, "Search")
        files = {m["path"] for m in got["matches"]}
        assert len(files) == 3
        assert len(got["matches"]) >= 5
        ordered = [(m["path"], m["line"]) for m in got["matches"]]
        assert ordered == sorted(ordered)

    def test_truncation_flag(self, motivation_index):
        got = grep_baseline(motivation_index, "Search", max_results=2)
        assert got["truncated"] and len(got["matches"]) == 2

    def test_fixed_string_mode(self, toy_index):
        got = grep_baseline(toy_index, "a - b", regex=False)
        assert got["matches"]

    def test_bad_inputs(self, toy_index):
        with pytest.raises(BadRequest):
            grep_baseline(toy_index, "(unclosed")
        with pytest.raises(BadRequest):
            grep_baseline(toy_index, "x", max_results=0)


def test_snippet_truncates_long_bodies(toy_index):
    rec = find_class(toy_index, "Calculator")
    snippet = snippet_for(toy_index, rec)
    assert snippet.endswith("...")
    assert len(snippet.split("\n")) <= 13
    short = find_function(toy_index, "clamp", signature="(int, int)")[0]
    assert not snippet_for(toy_index, short).endswith("...")


# ----------------------------------------------------------------------
# Differential check: the graph walks against brute-force scans of
# ``index.edges`` and ``index.call_sites``, the way the queries computed
# them before the index carried a graph.

_REF_SUBGRAPH_KINDS = {
    EdgeKind.CONTAINS, EdgeKind.INHERITS_FROM, EdgeKind.CALLS, EdgeKind.OVERRIDES
}


def _ref_defect_subgraph(index, seeds, hops):
    (seed_id,) = seeds
    adj = {}
    for e in index.edges:
        if e.kind in _REF_SUBGRAPH_KINDS:
            adj.setdefault(e.src, set()).add(e.dst)
            adj.setdefault(e.dst, set()).add(e.src)
    nodes = {seed_id}
    frontier = {seed_id}
    for _ in range(hops):
        nxt = set()
        for node in frontier:
            nxt |= adj.get(node, set()) - nodes
        if not nxt:
            break
        nodes |= nxt
        frontier = nxt
    return {
        "seeds": [seed_id],
        "hops": hops,
        "nodes": sorted(nodes),
        "edges": [
            e.to_dict()
            for e in index.edges
            if e.kind in _REF_SUBGRAPH_KINDS and e.src in nodes and e.dst in nodes
        ],
    }


def _ref_inheritance_chain(index, name, direction):
    record = find_class(index, name)
    up, down = {}, {}
    for e in index.edges:
        if e.kind is EdgeKind.INHERITS_FROM:
            up.setdefault(e.src, set()).add(e.dst)
            down.setdefault(e.dst, set()).add(e.src)

    def levels(adj):
        seen = {record.symbol_id}
        frontier = {record.symbol_id}
        out = []
        while frontier:
            nxt = set()
            for node in frontier:
                nxt |= adj.get(node, set()) - seen
            if not nxt:
                break
            seen |= nxt
            out.append(sorted(nxt))
            frontier = nxt
        return out

    result = {"class": record.qualified_name, "symbol_id": record.symbol_id}
    if direction in ("bases", "both"):
        result["bases"] = levels(up)
    if direction in ("derived", "both"):
        result["derived"] = levels(down)
    return result


def _ref_function_calls(index, name, signature, direction):
    matches = find_function(index, name, signature)
    matches = [r for r in matches if r.is_definition] or matches
    distinct = sorted({(r.qualified_name, r.signature) for r in matches})
    if len(distinct) > 1:
        raise AmbiguousName(name, [f"{q} {s}" for q, s in distinct])
    record = matches[0]
    same = {
        i
        for i in index.by_qualified[record.qualified_name]
        if index.symbols[i].signature == record.signature
        and index.symbols[i].kind in FUNCTION_KINDS
    }
    sites = []
    for cs in index.call_sites:
        anchor, other_id = (
            (cs.caller, cs.callee) if direction == "out" else (cs.callee, cs.caller)
        )
        if anchor in same:
            other = index.symbols[other_id]
            sites.append({
                "caller": cs.caller,
                "callee": cs.callee,
                "other": other.qualified_name,
                "resolved": not other.is_synthetic,
                "file": cs.location.file,
                "line": cs.location.start_line,
            })
    return {
        "function": record.qualified_name,
        "symbol_id": record.symbol_id,
        "direction": direction,
        "sites": sites,
    }


def _assert_same(query, reference, *args):
    """Equal results, or the same name-resolution failure. A global-scope
    name has no "::" and is looked up as a bare name, so it can be
    ambiguous; resolution happens before any graph walk."""
    try:
        want = reference(*args)
    except AmbiguousName:
        with pytest.raises(AmbiguousName):
            query(*args)
        return
    assert query(*args) == want


def _assert_walks_match_brute_force(index):
    for rec in index.symbols:
        if rec.kind in CLASS_KINDS or rec.kind in FUNCTION_KINDS:
            for hops in range(4):
                _assert_same(defect_subgraph, _ref_defect_subgraph,
                             index, [rec.symbol_id], hops)
        if rec.kind in CLASS_KINDS:
            for direction in ("bases", "derived", "both"):
                _assert_same(get_inheritance_chain, _ref_inheritance_chain,
                             index, rec.qualified_name, direction)
        if rec.kind in FUNCTION_KINDS and not rec.is_synthetic:
            for direction in ("in", "out"):
                _assert_same(get_function_calls, _ref_function_calls,
                             index, rec.qualified_name, rec.signature, direction)


def _corpus_index(root: pathlib.Path, seed: int):
    for rel, content in corpusgen.generate(seed).files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    return build_index(load_repository(root))


@pytest.mark.parametrize("seed", [0, 3, 7, 17, 101])
def test_graph_walks_match_brute_force(seed, tmp_path):
    _assert_walks_match_brute_force(_corpus_index(tmp_path, seed))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=10_000_000))
def test_graph_walks_match_brute_force_fuzz(seed, tmp_path):
    # tmp_path is shared across examples; keep each corpus isolated
    _assert_walks_match_brute_force(_corpus_index(tmp_path / f"s{seed}", seed))


def test_graph_walks_match_brute_force_on_toyrepo(toy_index):
    _assert_walks_match_brute_force(toy_index)


def test_graph_walks_match_brute_force_across_duplicate_definitions(tmp_path):
    # one function defined in two units: its call sites come from two
    # records and must merge in site order
    (tmp_path / "a.cpp").write_text(
        "int leaf(int x) { return x; }\n"
        "int helper(int x) {\n"
        "    return leaf(x);\n"
        "}\n"
    )
    (tmp_path / "b.cpp").write_text(
        "int leaf(int x);\n"
        "int helper(int x) {\n"
        "    return leaf(x) + leaf(x);\n"
        "}\n"
    )
    index = build_index(load_repository(tmp_path))
    assert len(index.by_qualified["helper"]) == 2
    sites = get_function_calls(index, "helper", "(int)")["sites"]
    assert [s["file"] for s in sites] == ["a.cpp", "b.cpp", "b.cpp"]
    _assert_walks_match_brute_force(index)


# --- resolve_seed's suffix map against the scan it replaced -------------


def _ref_resolve_seed(index, seed: str) -> list[int]:
    # the string branch of resolve_seed before the index kept ``by_suffix``:
    # an exact qualified name, else a scan of every qualified name
    if "::" in seed:
        ids = list(index.by_qualified.get(seed, []))
        if ids:
            return ids
        suffix = "::" + seed
        return sorted(
            i
            for name, pool in index.by_qualified.items()
            if name.endswith(suffix)
            for i in pool
        )
    return list(index.by_name.get(seed, []))


def _assert_seeds_match_scan(index):
    seeds = set()
    for name in index.by_qualified:
        parts = name.split("::")
        for i in range(len(parts)):
            tail = "::".join(parts[i:])
            seeds.update({tail, "::" + tail, tail + "::", "nowhere::" + tail})
    for seed in sorted(seeds):
        assert resolve_seed(index, seed) == _ref_resolve_seed(index, seed), seed


@pytest.mark.parametrize("seed", [0, 7, 42, 101])
def test_seed_suffixes_match_the_scan(seed, tmp_path):
    _assert_seeds_match_scan(_corpus_index(tmp_path, seed))


def test_seed_suffixes_match_the_scan_on_toyrepo(toy_index):
    _assert_seeds_match_scan(toy_index)


def test_seed_suffix_shared_by_two_scopes(tmp_path):
    (tmp_path / "a.h").write_text(
        "namespace a { namespace b { class C {}; } }\n"
        "namespace x { namespace b { class C {}; } }\n"
        "namespace b { class C {}; }\n"
    )
    index = build_index(load_repository(tmp_path))
    two = sorted(index.by_qualified["a::b::C"] + index.by_qualified["x::b::C"])
    assert resolve_seed(index, "b::C") == index.by_qualified["b::C"]
    assert resolve_seed(index, "a::b::C") == index.by_qualified["a::b::C"]
    index.by_qualified.pop("b::C")  # no exact match: the suffix fallback
    assert resolve_seed(index, "b::C") == two
    _assert_seeds_match_scan(index)


# --- differential: grep_baseline against its line-by-line scan before the
# whole-file check for fixed strings


def _ref_grep_baseline(index, pattern, max_results=50, regex=True):
    if regex:
        hit = re.compile(pattern).search
    else:
        hit = lambda line: pattern in line  # noqa: E731
    matches = []
    truncated = False
    for path in sorted(index.sources):
        for lineno, line in enumerate(index.sources[path].split("\n"), start=1):
            if not hit(line):
                continue
            if len(matches) >= max_results:
                truncated = True
                break
            matches.append({"path": path, "line": lineno, "text": line})
        if truncated:
            break
    return {"pattern": pattern, "matches": matches, "truncated": truncated}


def _assert_grep_matches_scan(index):
    words = sorted({w for text in index.sources.values()
                    for w in re.findall(r"\w+", text)})
    patterns = ["", "\n", "};\n", "{\n    ", ";", "(", "::", "return ",
                "no such text anywhere", *words[::7]]
    for pattern in patterns:
        for regex in (False, True):
            if regex and pattern not in ("", ";", "::"):
                continue
            full = _ref_grep_baseline(index, pattern, 10**9, regex)
            hits = len(full["matches"])
            for max_results in sorted({1, 2, 50, max(hits - 1, 1), hits or 1,
                                       hits + 1}):
                want = _ref_grep_baseline(index, pattern, max_results, regex)
                got = grep_baseline(index, pattern, max_results, regex)
                assert got == want, (pattern, regex, max_results)


@pytest.mark.parametrize("seed", [0, 7, 42, 101])
def test_fixed_string_grep_matches_the_scan(seed, tmp_path):
    _assert_grep_matches_scan(_corpus_index(tmp_path, seed))


def test_fixed_string_grep_matches_the_scan_on_fixtures(
    toy_index, motivation_index
):
    _assert_grep_matches_scan(toy_index)
    _assert_grep_matches_scan(motivation_index)
    got = grep_baseline(toy_index, "a - b\n", regex=False)
    assert got == {"pattern": "a - b\n", "matches": [], "truncated": False}
