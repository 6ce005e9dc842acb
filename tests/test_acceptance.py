"""Acceptance gate: ten checks, one per guarantee the engine ships
with. Each check prints a single PASS/FAIL line with its wall time and
enforces a hard time limit."""

from __future__ import annotations

import collections
import contextlib
import io
import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from cppatlas import queries
from cppatlas.backends import ScriptedBackend
from cppatlas.diffs import apply_patch, make_diff, parse_unified_diff
from cppatlas.errors import GenerationFailed, ReproductionFailed
from cppatlas.evaluation import EvalInstance, evaluate_localization
from cppatlas.intent import (
    HashEmbeddingProvider,
    build_intent_index,
    query_code_intent,
)
from cppatlas.index import build_index
from cppatlas.pipeline import (
    CandidateReport,
    PipelineConfig,
    complexity,
    generate_candidates,
    prune,
    reproduce,
    run_pipeline,
    select,
)
from cppatlas.repo import IssueDescription, load_repository
from cppatlas.runner import TestCase, run_test
from cppatlas.server import handle_request, serve
from cppatlas.tools import ToolContext, dispatch_tool

import corpusgen
import refquery
import test_oracle_equivalence as oracle_eq

PY = sys.executable

FIX_OLD = "last_result_ = a - b;\n    return a + b;"
FIX_NEW = "last_result_ = a - b;\n    return a - b;"

ISSUE = IssueDescription.from_text(
    "Calculator::subtract returns the sum",
    "Calling `Calculator::subtract` adds its arguments instead of "
    "subtracting them.",
)


@contextlib.contextmanager
def gate(capsys, label, limit):
    """One verdict line per check, plus a hard wall-clock ceiling."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit else "FAIL"
    with capsys.disabled():
        print(
            f"[acceptance] {label}: {verdict} "
            f"({elapsed:.2f}s, limit {limit:g}s)"
        )
    assert elapsed < limit, f"{label} blew its {limit:g}s budget"


@pytest.fixture(scope="module")
def toy_repo(toyrepo_root):
    return load_repository(toyrepo_root)


def edit(repo, path, old_sub, new_sub):
    old = repo.unit(path).content
    assert old.count(old_sub) == 1, f"ambiguous edit anchor {old_sub!r}"
    diff = make_diff(old, old.replace(old_sub, new_sub), path)
    return parse_unified_diff(diff)


def content_test(test_id, needle):
    code = (
        "import pathlib, sys; "
        "text = pathlib.Path('src/calc.cpp').read_text(); "
        f"sys.exit(0 if {needle!r} in text else 1)"
    )
    return TestCase(test_id=test_id, command=(PY, "-c", code))


def subtract_test():
    return content_test("t-subtract-fixed", "return a - b;")


def flavor_test():
    return content_test("t-flavor", 'return "basic";')


def emit_test(tc):
    return {"turn": "emit", "kind": "test", "test": tc.to_dict()}


def emit_patch(candidate):
    return {"turn": "emit", "kind": "patch", "diff": candidate.diff}


def test_a01_name_lookup_beats_grep(motivation_index, capsys):
    """Name search over the indexed corpus: the text scan drowns the one
    real class definition in unrelated hits, the structural query does
    not."""
    with gate(capsys, "A01 motivation lookup", 1.0):
        scan = queries.grep_baseline(motivation_index, "Search")
        hit_files = {m["path"] for m in scan["matches"]}
        assert hit_files == {
            "src/main.cpp",
            "src/search_class.h",
            "src/search_utils.h",
        }
        assert len(scan["matches"]) >= 5

        rec = queries.find_class(motivation_index, "Search")
        assert rec.location.file == "src/search_class.h"
        assert rec.kind.value == "class"
        assert rec.is_definition


def _class_names(corpus):
    names = {
        s.qualified for s in corpus.symbols if s.kind in corpusgen.CLASS_KINDS
    }
    names |= {
        s.name for s in corpus.symbols if s.kind in corpusgen.CLASS_KINDS
    }
    return sorted(names)


def _function_signatures(corpus):
    sigs = {}
    for s in corpus.symbols:
        if s.kind in corpusgen.FUNC_KINDS:
            sigs.setdefault(s.qualified, set()).add(s.signature)
    return sigs


def _norm_call_sites(result, index):
    """Call sites in a representation the reference can also produce:
    resolved callees by id, placeholder callees by their target text."""
    out = dict(result)
    sites = []
    for site in result["sites"]:
        rec = index.symbols[site["callee"]]
        callee = (
            ("u", rec.qualified_name)
            if rec.is_synthetic
            else ("r", site["callee"])
        )
        sites.append({**site, "callee": callee})
    sites.sort(key=lambda s: (s["file"], s["line"], s["caller"], str(s["callee"])))
    out["sites"] = sites
    return out


def _check_queries_against_reference(corpus, index, idmap):
    for name in _class_names(corpus) + ["NoSuchClass", "zz::Qq"]:
        got = refquery.outcome(queries.find_class, index, name)
        if got[0] == "ok":
            got = ("ok", got[1].symbol_id)
        want = refquery.outcome(refquery.ref_find_class, corpus, idmap, name)
        assert got == want, f"find_class({name!r})"
        for direction in ("bases", "derived", "both"):
            got = refquery.outcome(
                queries.get_inheritance_chain, index, name, direction
            )
            want = refquery.outcome(
                refquery.ref_inheritance, corpus, idmap, name, direction
            )
            assert got == want, f"chain({name!r}, {direction})"

    sigs = _function_signatures(corpus)
    names = set(sigs) | {
        s.name for s in corpus.symbols if s.kind in corpusgen.FUNC_KINDS
    }
    for name in sorted(names) + ["no_such_fn"]:
        for sig in [None] + sorted(sigs.get(name, ())):
            got = refquery.outcome(queries.find_function, index, name, sig)
            if got[0] == "ok":
                got = ("ok", [r.symbol_id for r in got[1]])
            want = refquery.outcome(
                refquery.ref_find_function, corpus, idmap, name, sig
            )
            assert got == want, f"find_function({name!r}, {sig!r})"

    for name, sig_set in sorted(sigs.items()):
        for sig in sorted(sig_set):
            for direction in ("out", "in"):
                got = refquery.outcome(
                    queries.get_function_calls, index, name, sig, direction
                )
                if got[0] == "ok":
                    got = ("ok", _norm_call_sites(got[1], index))
                want = refquery.outcome(
                    refquery.ref_calls, corpus, idmap, name, sig, direction
                )
                assert got == want, f"calls({name!r}, {sig!r}, {direction})"


def _corpus_features(corpus):
    out = set()
    if any(s.kind == "namespace" for s in corpus.symbols):
        out.add("namespaces")
    if corpusgen.expected_overload_pairs(corpus):
        out.add("overloads")
    if corpusgen.expected_inherits(corpus):
        out.add("inheritance")
    if any(s.kind.startswith("template") for s in corpus.symbols):
        out.add("templates")
    if any(s.kind == "forward_declaration" for s in corpus.symbols):
        out.add("forward_decls")
    return out


def test_a02_structural_oracle_equivalence(tmp_path, capsys):
    """Index contents and all four structural queries agree with the
    brute-force reference on 200 generated corpora."""
    with gate(capsys, "A02 structural oracle equivalence", 60.0):
        features = collections.Counter()
        checked = 0
        seed = 0
        while checked < 200:
            corpus = corpusgen.generate(seed)
            seed += 1
            if len(corpus.symbols) > 100:
                continue
            checked += 1
            index = oracle_eq._index_for(tmp_path / f"c{seed}", corpus)
            oracle_eq._compare(corpus, index)
            idmap = refquery.build_id_map(corpus, index)
            _check_queries_against_reference(corpus, index, idmap)
            features.update(_corpus_features(corpus))
        assert checked == 200
        for feature in (
            "namespaces",
            "overloads",
            "inheritance",
            "templates",
            "forward_decls",
        ):
            assert features[feature] >= 40, dict(features)


def _hierarchy_source(rng):
    """Random class DAG; edges only point at earlier declarations."""
    n = rng.randint(2, 20)
    bases = {
        i: [j for j in range(i) if rng.random() < 0.18] for i in range(n)
    }
    lines = []
    for i in range(n):
        clause = ""
        if bases[i]:
            clause = " : " + ", ".join(f"public K{j}" for j in bases[i])
        lines.append(f"struct K{i}{clause} {{ }};")
    return bases, "\n".join(lines) + "\n"


def _level_sets(adj, start):
    """Nodes grouped by BFS distance from start, distance 1 upward."""
    seen = {start}
    frontier = [start]
    levels = []
    while True:
        step = {m for node in frontier for m in adj.get(node, ()) if m not in seen}
        if not step:
            return levels
        seen |= step
        frontier = sorted(step)
        levels.append(set(step))


def _reachable(adj, start):
    out = set()
    stack = list(adj.get(start, ()))
    while stack:
        node = stack.pop()
        if node in out:
            continue
        out.add(node)
        stack.extend(adj.get(node, ()))
    return out


def test_a03_inheritance_chains(tmp_path, capsys):
    """Chain levels equal BFS distance groups and their union equals the
    transitive closure, on 100 random class DAGs plus a fixed diamond."""
    with gate(capsys, "A03 inheritance chains", 10.0):
        for trial in range(100):
            rng = random.Random(3000 + trial)
            bases, source = _hierarchy_source(rng)
            root = tmp_path / f"d{trial}" / "src"
            root.mkdir(parents=True)
            (root / "hier.h").write_text(source, encoding="utf-8")
            index = build_index(load_repository(root.parent))

            derived = collections.defaultdict(list)
            for node, parents in bases.items():
                for parent in parents:
                    derived[parent].append(node)

            def names(level):
                return {
                    int(index.symbols[sid].qualified_name[1:]) for sid in level
                }

            for i in range(len(bases)):
                chain = queries.get_inheritance_chain(index, f"K{i}", "both")
                got_bases = [names(level) for level in chain["bases"]]
                got_derived = [names(level) for level in chain["derived"]]
                assert got_bases == _level_sets(bases, i)
                assert got_derived == _level_sets(derived, i)
                flat = [n for level in got_bases for n in level]
                assert len(flat) == len(set(flat))
                assert set(flat) == _reachable(bases, i)
                flat = [n for level in got_derived for n in level]
                assert len(flat) == len(set(flat))
                assert set(flat) == _reachable(derived, i)

        diamond = (
            "struct Base { };\n"
            "struct Left : public Base { };\n"
            "struct Right : public Base { };\n"
            "struct Bottom : public Left, public Right { };\n"
        )
        root = tmp_path / "diamond" / "src"
        root.mkdir(parents=True)
        (root / "hier.h").write_text(diamond, encoding="utf-8")
        index = build_index(load_repository(root.parent))
        chain = queries.get_inheritance_chain(index, "Bottom", "bases")
        by_level = [
            sorted(index.symbols[sid].qualified_name for sid in level)
            for level in chain["bases"]
        ]
        # the shared root shows up once, at its shortest distance
        assert by_level == [["Left", "Right"], ["Base"]]


def test_a04_intent_retrieval_oracle(tmp_path, capsys):
    """Top-k intent answers equal an exhaustive similarity scan, and a
    document used as its own query scores 1."""
    with gate(capsys, "A04 intent retrieval oracle", 10.0):
        provider = HashEmbeddingProvider()
        intents = []
        for seed in range(10):
            corpus = corpusgen.generate(seed)
            sindex = oracle_eq._index_for(tmp_path / f"i{seed}", corpus)
            intents.append(build_intent_index(sindex, provider))

        rng = random.Random(404)
        words = [
            "vector", "rotate", "cache", "parse", "flush",
            "token", "merge", "score", "buffer", "clamp",
        ]
        for trial in range(50):
            intent = intents[trial % len(intents)]
            text = " ".join(
                rng.choice(words) for _ in range(rng.randint(1, 5))
            )
            n = len(intent.symbol_ids)
            k = rng.randint(1, n + 3)
            got = query_code_intent(intent, text, k=k, provider=provider)

            query_vec = np.asarray(provider.embed(text), dtype=np.float64)
            matrix = np.array(intent.matrix, dtype=np.float64)
            scores = matrix @ query_vec
            order = sorted(
                range(n),
                key=lambda i: (
                    -scores[i],
                    intent.qualified_names[i],
                    intent.symbol_ids[i],
                ),
            )[:k]
            want = [
                {
                    "symbol_id": intent.symbol_ids[i],
                    "qualified_name": intent.qualified_names[i],
                    "kind": intent.kinds[i],
                    "score": float(scores[i]),
                }
                for i in order
            ]
            assert got == want

        for intent in intents:
            text = intent.texts[len(intent.texts) // 2]
            top = query_code_intent(intent, text, k=1, provider=provider)
            assert abs(top[0]["score"] - 1.0) <= 1e-6


def test_a05_selection_contract(toy_repo, capsys):
    """The selector's promises on the toy defect: no invalid winner,
    FAILURE on an empty valid set, min_complexity is the argmin, and
    cosmetic candidates never survive pruning."""
    with gate(capsys, "A05 selection contract", 30.0):
        fix = edit(toy_repo, "src/calc.cpp", FIX_OLD, FIX_NEW)
        break_flavor = edit(
            toy_repo, "src/calc.cpp", 'return "basic";', 'return "fancy";'
        )
        old = toy_repo.unit("src/calc.cpp").content
        fix_and_break = parse_unified_diff(make_diff(
            old,
            old.replace(FIX_OLD, FIX_NEW).replace(
                'return "basic";', 'return "odd";'
            ),
            "src/calc.cpp",
        ))
        comment = edit(
            toy_repo,
            "src/calc.h",
            "// Returns the product of a and b.",
            "// Computes the product of a and b.",
        )

        result = run_pipeline(
            toy_repo,
            ISSUE,
            ScriptedBackend([emit_test(subtract_test())]),
            ScriptedBackend(
                [emit_patch(c) for c in (comment, break_flavor, fix_and_break, fix)]
            ),
            regression_tests=[flavor_test()],
        )
        assert result.status == "SUCCESS"
        selected = result.selected
        assert selected.candidate.id == fix.id

        # re-verify the winner outside the pipeline: the reproducer must
        # pass and baseline-passing regressions must keep passing
        patched = apply_patch(
            toy_repo, parse_unified_diff(selected.candidate.diff)
        )
        assert run_test(patched, subtract_test()).status == "pass"
        assert run_test(toy_repo, flavor_test()).status == "pass"
        assert run_test(patched, flavor_test()).status == "pass"

        by_id = {r.candidate.id: r for r in result.reports}
        assert not by_id[break_flavor.id].valid
        assert by_id[break_flavor.id].reason == "repro_still_failing:t-subtract-fixed"
        assert not by_id[fix_and_break.id].valid
        assert by_id[fix_and_break.id].reason == "regression:t-flavor"
        assert result.prune_report[comment.id]["reason"] == "non_behavioral"

        # an empty valid set is a FAILURE verdict, not an exception
        result = run_pipeline(
            toy_repo,
            ISSUE,
            ScriptedBackend([emit_test(subtract_test())]),
            ScriptedBackend([emit_patch(break_flavor)]),
            regression_tests=[flavor_test()],
        )
        assert result.status == "FAILURE"
        assert result.selected is None

        # min_complexity picks the argmin over hand-counted costs
        fix_commented = parse_unified_diff(make_diff(
            old,
            old.replace(FIX_OLD, FIX_NEW).replace(
                "int Calculator::subtract",
                "// difference, not sum\nint Calculator::subtract",
            ),
            "src/calc.cpp",
        ))
        hand_counted = [(fix, 12), (fix_commented, 13), (fix_and_break, 14)]
        for cand, want in hand_counted:
            assert complexity(cand) == want

        def report(cand, valid=True):
            return CandidateReport(
                candidate=cand,
                valid=valid,
                reason=None if valid else "regression:t-flavor",
                align=0.5,
                complexity=complexity(cand),
                locality=0.0,
                vote=0.0,
            )

        comment_insert = edit(
            toy_repo,
            "src/calc.cpp",
            "int Calculator::subtract",
            "// difference, not sum\nint Calculator::subtract",
        )
        reports = [report(c) for c, _ in hand_counted]
        assert select(reports, "min_complexity").candidate.id == fix.id
        # a cheaper but invalid candidate must not win
        cheaper = report(comment_insert, valid=False)
        assert complexity(comment_insert) == 11
        assert (
            select(reports + [cheaper], "min_complexity").candidate.id
            == fix.id
        )

        # cosmetic rewrites are always pruned
        whitespace = edit(
            toy_repo,
            "src/calc.cpp",
            "    last_result_ = total;",
            "      last_result_  =   total;",
        )
        blank_insert = edit(
            toy_repo,
            "src/calc.cpp",
            "int Calculator::multiply",
            "\nint Calculator::multiply",
        )
        for cosmetic in (comment, whitespace, comment_insert, blank_insert):
            kept, report_map = prune(toy_repo, [cosmetic, fix])
            assert [c.id for c in kept] == [fix.id]
            assert report_map[cosmetic.id]["reason"] == "non_behavioral"


def test_a06_prune_laws(toy_repo, capsys):
    """Pruning is idempotent and insensitive to candidate order."""
    with gate(capsys, "A06 prune laws", 10.0):
        fix = edit(toy_repo, "src/calc.cpp", FIX_OLD, FIX_NEW)
        old = toy_repo.unit("src/calc.cpp").content
        twin = parse_unified_diff(make_diff(
            old,
            old.replace(FIX_OLD, FIX_NEW).replace(
                "int Calculator::subtract",
                "// fixed\nint Calculator::subtract",
            ),
            "src/calc.cpp",
        ))
        stale_base = old.replace("last_result_ = a - b;", "last_result_ = b - a + 2 * a;")
        pool = [
            fix,
            parse_unified_diff(fix.diff),  # same id on purpose
            twin,
            edit(toy_repo, "src/calc.cpp", 'return "basic";', 'return "fancy";'),
            edit(
                toy_repo,
                "src/calc.h",
                "// Returns the product of a and b.",
                "// Computes the product of a and b.",
            ),
            edit(
                toy_repo,
                "src/calc.cpp",
                "    last_result_ = total;",
                "      last_result_  =   total;",
            ),
            parse_unified_diff(make_diff("a\n", "b\n", "src/ghost.cpp")),
            parse_unified_diff(make_diff(
                stale_base,
                stale_base.replace(
                    "last_result_ = b - a + 2 * a;\n    return a + b;",
                    "last_result_ = b - a + 2 * a;\n    return a - b;",
                ),
                "src/calc.cpp",
            )),
        ]
        for trial in range(100):
            rng = random.Random(7000 + trial)
            sample = rng.sample(pool, rng.randint(0, len(pool)))
            shuffled = sample[:]
            rng.shuffle(shuffled)

            kept, report = prune(toy_repo, sample)
            kept_again, report_again = prune(toy_repo, shuffled)
            assert [c.id for c in kept] == [c.id for c in kept_again]
            assert report == report_again

            rerun, rerun_report = prune(toy_repo, kept)
            assert [c.id for c in rerun] == [c.id for c in kept]
            assert all(
                entry["status"] == "kept" for entry in rerun_report.values()
            )


def _pipeline_inputs(tmp_path, repo):
    old = repo.unit("src/calc.cpp").content
    fix = make_diff(old, old.replace(FIX_OLD, FIX_NEW), "src/calc.cpp")
    twin = make_diff(
        old,
        old.replace(FIX_OLD, FIX_NEW).replace(
            "int Calculator::subtract",
            "// fixed\nint Calculator::subtract",
        ),
        "src/calc.cpp",
    )
    breaker = make_diff(
        old, old.replace('return "basic";', 'return "fancy";'), "src/calc.cpp"
    )

    issue = tmp_path / "issue.json"
    issue.write_text(json.dumps({
        "title": ISSUE.title,
        "body": ISSUE.body,
    }), encoding="utf-8")
    repro = tmp_path / "repro.jsonl"
    repro.write_text(
        json.dumps(emit_test(subtract_test())) + "\n", encoding="utf-8"
    )
    gen = tmp_path / "gen.jsonl"
    gen.write_text(
        "\n".join(
            json.dumps({"turn": "emit", "kind": "patch", "diff": d})
            for d in (twin, breaker, fix)
        ) + "\n",
        encoding="utf-8",
    )
    tests = tmp_path / "tests.json"
    tests.write_text(
        json.dumps({"tests": [flavor_test().to_dict()]}), encoding="utf-8"
    )
    return issue, repro, gen, tests


def test_a07_end_to_end_determinism(toyrepo_root, toy_repo, tmp_path, capsys):
    """Three cold CLI runs of the same pipeline agree byte for byte on
    the chosen diff and on the exit code."""
    with gate(capsys, "A07 end-to-end determinism", 30.0):
        issue, repro, gen, tests = _pipeline_inputs(tmp_path, toy_repo)
        runs = []
        for i in range(3):
            out = tmp_path / f"report{i}.json"
            proc = subprocess.run(
                [
                    PY, "-m", "cppatlas", "pipeline",
                    "--root", str(toyrepo_root),
                    "--issue", str(issue),
                    "--repro-transcript", str(repro),
                    "--gen-transcript", str(gen),
                    "--tests", str(tests),
                    "--out", str(out),
                ],
                capture_output=True,
                text=True,
            )
            runs.append((proc.returncode, json.loads(out.read_text())))

        codes = [code for code, _ in runs]
        assert codes == [0, 0, 0]
        diffs = [report["selected_diff"].encode("utf-8") for _, report in runs]
        assert diffs[0] == diffs[1] == diffs[2]
        picks = {report["selected_candidate"] for _, report in runs}
        statuses = {report["status"] for _, report in runs}
        assert len(picks) == 1
        assert statuses == {"SUCCESS"}


def test_a08_localization_scoring(capsys):
    """File and function success rates match hand-computed values on a
    ten-instance fixture; a perfect fixture scores (1.0, 1.0)."""
    with gate(capsys, "A08 localization scoring", 10.0):
        instances = []
        for i in range(10):
            file_guess = f"src/a{i}.cpp" if i < 7 else f"src/miss{i}.cpp"
            fn_guess = f"ns::f{i}" if i < 4 else f"ns::miss{i}"
            instances.append(EvalInstance(
                instance_id=f"i{i:02d}",
                predicted_files=frozenset({file_guess, "src/extra.cpp"}),
                predicted_functions=frozenset({fn_guess}),
                truth_files=frozenset({f"src/a{i}.cpp"}),
                truth_functions=frozenset({f"ns::f{i}", f"ns::g{i}"}),
            ))
        file_rate, fn_rate, reports = evaluate_localization(instances)
        assert file_rate == 7 / 10
        assert fn_rate == 4 / 10
        flags = [
            (r.file_hit, r.function_hit)
            for r in sorted(reports, key=lambda r: r.instance_id)
        ]
        assert flags == [(i < 7, i < 4) for i in range(10)]

        perfect = [
            EvalInstance(
                instance_id=f"p{i}",
                predicted_files=frozenset({f"src/a{i}.cpp"}),
                predicted_functions=frozenset({f"ns::f{i}"}),
                truth_files=frozenset({f"src/a{i}.cpp"}),
                truth_functions=frozenset({f"ns::f{i}"}),
            )
            for i in range(10)
        ]
        file_rate, fn_rate, _ = evaluate_localization(perfect)
        assert (file_rate, fn_rate) == (1.0, 1.0)


def test_a09_budget_enforcement(toy_repo, capsys):
    """Loop budgets cut off at exactly their configured turn counts."""
    with gate(capsys, "A09 budget enforcement", 30.0):
        config = PipelineConfig()
        assert config.reproduce_budget == 20
        assert config.generate_budget == 50
        assert config.candidate_count == 10

        probe = {
            "turn": "call",
            "tool": "GrepBaseline",
            "arguments": {"pattern": "subtract"},
        }
        backend = ScriptedBackend([probe] * 25)
        with pytest.raises(ReproductionFailed) as err:
            reproduce(toy_repo, ISSUE, backend)
        assert err.value.reason == "budget_exhausted"
        assert len(backend.observations) == 20

        backend = ScriptedBackend([probe] * 60)
        with pytest.raises(GenerationFailed):
            generate_candidates(toy_repo, ISSUE, backend)
        assert len(backend.observations) == 50

        variants = [
            edit(toy_repo, "src/calc.cpp", 'return "basic";', f'return "v{i}";')
            for i in range(15)
        ]
        backend = ScriptedBackend([emit_patch(c) for c in variants])
        result = generate_candidates(toy_repo, ISSUE, backend)
        assert [c.id for c in result.candidates] == [
            c.id for c in variants[:10]
        ]
        assert result.turns_used == 10


def _random_request(rng, i, names):
    tool = rng.choice([
        "FindClass",
        "FindFunction",
        "GetInheritanceChain",
        "GetFunctionCalls",
        "QueryCodeIntent",
        "GrepBaseline",
        "DefectSubgraph",
    ])
    if tool == "FindClass":
        arguments = {"name": rng.choice(names)}
    elif tool == "FindFunction":
        arguments = {"name": rng.choice(names)}
        if rng.random() < 0.3:
            arguments["signature"] = "(int, int)"
    elif tool == "GetInheritanceChain":
        arguments = {
            "name": rng.choice(names),
            "direction": rng.choice(["bases", "derived", "both", "sideways"]),
        }
    elif tool == "GetFunctionCalls":
        arguments = {
            "name": rng.choice(names),
            "direction": rng.choice(["in", "out", "around"]),
        }
    elif tool == "QueryCodeIntent":
        arguments = {
            "query": " ".join(
                rng.choice(["subtract", "difference", "flavor", "power"])
                for _ in range(rng.randint(1, 4))
            ),
            "k": rng.randint(1, 6),
        }
    elif tool == "GrepBaseline":
        arguments = {
            "pattern": rng.choice(["add", "Calc", "flavor", "["]),
            "max_results": rng.randint(1, 8),
        }
    else:
        arguments = {
            "seeds": rng.sample(names, rng.randint(1, 2)),
            "hops": rng.randint(0, 2),
        }
    request = {"tool": tool, "arguments": arguments}
    if rng.random() < 0.9:
        request["request_id"] = i
    return request


def test_a10_server_conformance(toy_index, toy_intent, capsys):
    """1000 randomized wire requests: responses equal direct in-process
    calls, arrive in order, and malformed lines never kill the loop."""
    with gate(capsys, "A10 server conformance", 30.0):
        ctx = ToolContext(structural=toy_index, intent=toy_intent)
        rng = random.Random(2024)
        names = [
            "Calculator", "SciCalculator", "calc::Calculator",
            "calc::SciCalculator", "add", "subtract",
            "calc::Calculator::multiply", "flavor", "power", "Widget",
        ]
        garbage = ['{"tool": "FindClass', "[1, 2, 3]", '"just a string"',
                   "17", "nonsense"]
        lines = []
        requests = []  # parsed request, or None for a malformed line
        for i in range(1000):
            if rng.random() < 0.05:
                lines.append(rng.choice(garbage))
                requests.append(None)
            else:
                request = _random_request(rng, i, names)
                lines.append(json.dumps(request))
                requests.append(request)

        stdout = io.StringIO()
        handled = serve(ctx, io.StringIO("\n".join(lines) + "\n"), stdout)
        responses = stdout.getvalue().splitlines()
        assert handled == 1000
        assert len(responses) == 1000

        for request, raw in zip(requests, responses):
            response = json.loads(raw)
            if request is None:
                assert response["ok"] is False
                assert response["error_kind"] == "BadRequest"
                assert response["request_id"] is None
                continue
            assert response == handle_request(ctx, request)
            assert response["request_id"] == request.get("request_id")
            if response["ok"]:
                assert response["result"] == dispatch_tool(
                    ctx, request["tool"], request["arguments"]
                )
