"""Command line frontend: exit codes, output shapes and the console-script
entry point.

The entry point is checked from the checkout: the `cppatlas` script that
`pyproject.toml` declares is run the way an installer's wrapper runs it,
with this checkout's `src` first on the child's import path. The installed
script itself is checked only where a `cppatlas` script is on `PATH`.
"""

import contextlib
import inspect
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from cppatlas.cli import QUERY_TOOLS, main
from cppatlas.config import AppConfig, ProviderConfig
from cppatlas.diffs import make_diff
from cppatlas.index import build_index, load_index
from cppatlas.intent import (
    DEFAULT_DIM, DEFAULT_K, HashEmbeddingProvider, localize, query_code_intent)
from cppatlas.queries import DEFAULT_HOPS, defect_subgraph, find_class
from cppatlas.repo import load_repository
from cppatlas.pipeline import PipelineConfig
from cppatlas.runner import RunnerConfig, TestCase
from cppatlas.server import handle_request
from cppatlas.tools import TOOL_REGISTRY, ToolContext, dispatch_tool

import packed

PY = sys.executable
ROOT = pathlib.Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("index", "query", "serve", "pipeline", "eval-loc")
TWIN_HEADER = "namespace x { class Twin {}; }\nnamespace y { class Twin {}; }\n"

# What an installer's console-script wrapper does with a `module:attr` entry
# point, given as the first argument; the remaining arguments go to the script.
WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
func = importlib.import_module(module)
for part in attr.split("."):
    func = getattr(func, part)
sys.argv[:] = ["cppatlas"] + sys.argv[2:]
sys.exit(func())
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, stdout, stderr):
    """Exit 2 with one ``error:`` line on stderr and nothing on stdout."""
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


# a JSON file nested deeper than the parser recurses
TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.fixture(scope="module")
def index_file(toyrepo_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("idx") / "toy.caidx"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["index", "--root", str(toyrepo_root), "--out", str(out)])
    assert code == 0
    return out


class TestIndexCommand:
    def test_reports_counts_and_persists(self, toyrepo_root, toy_index,
                                         tmp_path, capsys):
        out = tmp_path / "toy.caidx"
        code, stdout, _ = run_cli(capsys, "index", "--root", str(toyrepo_root),
                                  "--out", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["symbols"] == len(toy_index.symbols)
        assert payload["edges"] == len(toy_index.edges)
        assert payload["parse_errors"] == 0
        assert payload["intent_docs"] > 0
        container = load_index(out)
        assert container.structural == toy_index

    def test_no_intent_leaves_docs_out(self, toyrepo_root, tmp_path, capsys):
        out = tmp_path / "bare.caidx"
        code, stdout, _ = run_cli(capsys, "index", "--root", str(toyrepo_root),
                                  "--out", str(out), "--no-intent")
        assert code == 0
        assert json.loads(stdout)["intent_docs"] == 0
        assert load_index(out).intent is None

    def test_missing_root_is_input_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "index", "--root",
                                  str(tmp_path / "nope"), "--out",
                                  str(tmp_path / "x.caidx"))
        assert code == 2
        assert json.loads(stderr)["error_kind"] == "RootNotFound"


class TestQueryCommand:
    def test_find_class_from_index_file(self, index_file, toy_index, capsys):
        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  "find-class", "Calculator")
        assert code == 0
        payload = json.loads(stdout)
        expected = find_class(toy_index, "Calculator")
        assert payload["record"] == expected.to_dict()
        assert payload["snippet"].startswith("class Calculator")

    def test_find_class_from_root(self, toyrepo_root, capsys):
        code, stdout, _ = run_cli(capsys, "query", "--root", str(toyrepo_root),
                                  "find-class", "SciCalculator")
        assert code == 0
        record = json.loads(stdout)["record"]
        assert record["qualified_name"] == "calc::SciCalculator"

    def test_unknown_name_exits_two(self, index_file, capsys):
        code, _, stderr = run_cli(capsys, "query", "--index", str(index_file),
                                  "find-class", "Nonesuch")
        assert code == 2
        assert json.loads(stderr)["error_kind"] == "NotFound"

    def test_ambiguous_name_lists_candidates(self, tmp_path, capsys):
        (tmp_path / "twin.h").write_text(TWIN_HEADER, encoding="utf-8")
        code, _, stderr = run_cli(capsys, "query", "--root", str(tmp_path),
                                  "find-class", "Twin")
        assert code == 2
        payload = json.loads(stderr)
        assert payload["error_kind"] == "AmbiguousName"
        assert sorted(payload["candidates"]) == ["x::Twin", "y::Twin"]

    def test_other_query_subcommands(self, index_file, capsys):
        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  "inheritance", "SciCalculator",
                                  "--direction", "bases")
        assert code == 0
        assert json.loads(stdout)["bases"]

        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  "calls", "calc::Calculator::multiply")
        assert code == 0
        assert any(s["other"] == "calc::Calculator::add"
                   for s in json.loads(stdout)["sites"])

        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  "intent", "subtract two integers", "-k", "3")
        assert code == 0
        assert len(json.loads(stdout)["hits"]) == 3

        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  "grep", "power", "--max-results", "10")
        assert code == 0
        assert json.loads(stdout)["matches"]

        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  "subgraph", "calc::Calculator", "--hops", "1")
        assert code == 0
        assert json.loads(stdout)["nodes"]

    def test_corrupt_index_exits_two(self, index_file, tmp_path, capsys):
        payload = packed.read_file(index_file)

        def dangling_call(structural):
            calls = structural["edges"]["calls"]
            calls["from"].append(1)
            calls["to"].append(99999)

        packed.edited(payload["structural"], dangling_call)
        corrupt = tmp_path / "corrupt.caidx"
        packed.write_file(corrupt, payload)
        for argv in (["query", "--index", str(corrupt), "subgraph", "1",
                      "--hops", "1"],
                     ["serve", "--index", str(corrupt)]):
            code, stdout, stderr = run_cli(capsys, *argv)
            assert code == 2
            assert stdout == ""
            assert json.loads(stderr)["error_kind"] == "CorruptIndex"

    @pytest.mark.parametrize("where", ["header", "sources", "texts"])
    def test_index_file_that_is_not_utf8_exits_two(self, index_file, tmp_path,
                                                   capsys, where):
        data = bytearray(index_file.read_bytes())
        at = {"header": 2, "sources": data.index(b"\n") + 1, "texts": -1}[where]
        data[at] = 0xFF
        corrupt = tmp_path / "corrupt.caidx"
        corrupt.write_bytes(bytes(data))
        for argv in (["query", "--index", str(corrupt), "find-class", "Calculator"],
                     ["serve", "--index", str(corrupt)]):
            code, stdout, stderr = run_cli(capsys, *argv)
            assert (code, stdout) == (2, "")
            assert json.loads(stderr)["error_kind"] == "CorruptIndex"

    def test_nonpositive_k_exits_two(self, index_file, tmp_path, capsys):
        issue = tmp_path / "issue.json"
        issue.write_text(json.dumps({"title": "subtract broken", "body": ""}),
                         encoding="utf-8")
        for k in ("0", "-1"):
            for argv in (["intent", "subtract two integers"],
                         ["localize", str(issue)]):
                code, _, stderr = run_cli(capsys, "query", "--index",
                                          str(index_file), *argv, "-k", k)
                assert code == 2
                assert json.loads(stderr)["error_kind"] == "BadRequest"

    def test_localize_reads_issue_file(self, index_file, tmp_path, capsys):
        issue = tmp_path / "issue.json"
        issue.write_text(json.dumps({
            "title": "subtract broken",
            "body": "`Calculator::subtract` adds instead of subtracting",
        }), encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  "localize", str(issue))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["candidates"]
        assert payload["mode"] in ("intersection", "intent_only")

    @pytest.mark.parametrize("text", [
        "[1]", TOO_DEEP, '{"title": 5}', '{"body": ["x"]}',
    ], ids=["list", "too-deep", "title-a-number", "body-a-list"])
    def test_malformed_issue_file_exits_two(self, text, index_file, tmp_path,
                                            capsys):
        issue = tmp_path / "issue.json"
        issue.write_text(text, encoding="utf-8")
        assert_input_error(*run_cli(capsys, "query", "--index", str(index_file),
                                    "localize", str(issue)))

    def test_query_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "find-class", "Calculator"])
        assert exc.value.code == 2


# (query argv, tool, tool arguments): every subcommand but `localize`, with
# defaults and with explicit options
QUERY_CASES = [
    (["find-class", "Calculator"], "FindClass", {"name": "Calculator"}),
    (["find-function", "add"], "FindFunction", {"name": "add"}),
    (["find-function", "add", "--signature", "(int, int)"], "FindFunction",
     {"name": "add", "signature": "(int, int)"}),
    (["inheritance", "SciCalculator"], "GetInheritanceChain",
     {"name": "SciCalculator"}),
    (["inheritance", "Calculator", "--direction", "derived"],
     "GetInheritanceChain", {"name": "Calculator", "direction": "derived"}),
    (["calls", "calc::Calculator::multiply"], "GetFunctionCalls",
     {"name": "calc::Calculator::multiply"}),
    (["calls", "add", "--signature", "(int, int)", "--direction", "in"],
     "GetFunctionCalls",
     {"name": "add", "signature": "(int, int)", "direction": "in"}),
    (["intent", "subtract two integers"], "QueryCodeIntent",
     {"text": "subtract two integers"}),
    (["intent", "subtract two integers", "-k", "3"], "QueryCodeIntent",
     {"text": "subtract two integers", "k": 3}),
    (["grep", "return"], "GrepBaseline", {"pattern": "return"}),
    (["grep", "add(", "--fixed", "--max-results", "2"], "GrepBaseline",
     {"pattern": "add(", "regex": False, "max_results": 2}),
    (["subgraph", "calc::Calculator"], "DefectSubgraph",
     {"seeds": ["calc::Calculator"]}),
    (["subgraph", "Calculator", "subtract", "--hops", "1"], "DefectSubgraph",
     {"seeds": ["Calculator", "subtract"], "hops": 1}),
]


def query_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["query", "--help"])
    usage = capsys.readouterr().out
    return set(re.search(r"\{([^}]*)\}", usage).group(1).split(","))


def server_error(ctx, tool, arguments):
    """A server error response without its request framing."""
    response = handle_request(ctx, {"tool": tool, "arguments": arguments})
    assert response.pop("ok") is False
    del response["request_id"]
    return response


class TestQueryGoesThroughTheTools:
    @pytest.fixture(scope="class")
    def ctx(self, index_file):
        container = load_index(index_file)
        return ToolContext(container.structural, container.intent)

    @pytest.mark.parametrize("argv,tool,arguments", QUERY_CASES,
                             ids=[" ".join(c[0]) for c in QUERY_CASES])
    def test_stdout_is_the_tool_result(self, index_file, ctx, capsys, argv,
                                       tool, arguments):
        assert QUERY_TOOLS[argv[0]] == tool
        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  *argv)
        assert code == 0
        expected = json.loads(json.dumps(dispatch_tool(ctx, tool, arguments)))
        assert json.loads(stdout) == expected

    def test_every_tool_is_reachable(self, capsys):
        subcommands = query_subcommands(capsys)
        assert subcommands == set(QUERY_TOOLS) | {"localize"}
        assert {QUERY_TOOLS[c] for c in subcommands - {"localize"}} \
            == set(TOOL_REGISTRY)
        assert {argv[0] for argv, _, _ in QUERY_CASES} == set(QUERY_TOOLS)

    def test_find_function_matches_carry_snippets(self, index_file, capsys):
        code, stdout, _ = run_cli(capsys, "query", "--index", str(index_file),
                                  "find-function", "calc::Calculator::add")
        assert code == 0
        matches = json.loads(stdout)["matches"]
        assert matches and all(m["snippet"] for m in matches)

    def test_find_function_pairs_unnamed_declaration_with_definition(
        self, tmp_path, capsys
    ):
        (tmp_path / "take.cpp").write_text(
            "struct Widget {};\n"
            "void take(const Widget);\n"
            "void take(const Widget w) {}\n",
            encoding="utf-8",
        )
        for signature in ([], ["--signature", "(const Widget)"],
                          ["--signature", "(const Widget w)"]):
            code, stdout, _ = run_cli(capsys, "query", "--root", str(tmp_path),
                                      "find-function", "take", *signature)
            assert code == 0
            records = [m["record"] for m in json.loads(stdout)["matches"]]
            assert [(r["signature"], r["is_definition"]) for r in records] == [
                ("(const Widget)", True), ("(const Widget)", False)]

    def test_errors_match_the_server(self, index_file, ctx, toyrepo_root,
                                     tmp_path, capsys):
        (tmp_path / "twin").mkdir()
        (tmp_path / "twin" / "twin.h").write_text(TWIN_HEADER,
                                                  encoding="utf-8")
        twin = ToolContext(build_index(load_repository(tmp_path / "twin")))
        bare = tmp_path / "bare.caidx"
        run_cli(capsys, "index", "--root", str(toyrepo_root), "--out",
                str(bare), "--no-intent")
        bare_ctx = ToolContext(load_index(bare).structural)
        cases = [
            (["--index", str(index_file), "find-class", "Nonesuch"],
             ctx, "FindClass", {"name": "Nonesuch"}, "NotFound"),
            (["--root", str(tmp_path / "twin"), "find-class", "Twin"],
             twin, "FindClass", {"name": "Twin"}, "AmbiguousName"),
            (["--index", str(index_file), "intent", "sum", "-k", "0"],
             ctx, "QueryCodeIntent", {"text": "sum", "k": 0}, "BadRequest"),
            (["--index", str(bare), "intent", "sum"],
             bare_ctx, "QueryCodeIntent", {"text": "sum"}, "EmptyIndex"),
        ]
        for argv, server_ctx, tool, arguments, kind in cases:
            code, stdout, stderr = run_cli(capsys, "query", *argv)
            assert (code, stdout) == (2, "")
            envelope = json.loads(stderr)
            assert envelope["error_kind"] == kind
            assert envelope == server_error(server_ctx, tool, arguments)
        code, _, stderr = run_cli(capsys, "query", "--root",
                                  str(tmp_path / "twin"), "find-class", "Twin")
        assert json.loads(stderr)["candidates"] == ["x::Twin", "y::Twin"]

    @pytest.mark.parametrize("seed", ["\u00b2", "\u2460", "7" * 5000],
                             ids=["superscript-two", "circled-one",
                                  "5000-digits"])
    def test_digit_seed_that_is_no_id_is_a_json_envelope(
            self, index_file, ctx, capsys, seed):
        code, stdout, stderr = run_cli(capsys, "query", "--index",
                                       str(index_file), "subgraph", seed)
        assert (code, stdout) == (2, "")
        assert "Traceback" not in stderr
        envelope = json.loads(stderr)
        assert envelope["error_kind"] == "NoSeedsResolved"
        assert envelope == server_error(ctx, "DefectSubgraph",
                                        {"seeds": [seed]})

    @pytest.mark.parametrize("argv,tool", [
        (["inheritance", "Calculator"], "GetInheritanceChain"),
        (["calls", "calc::Calculator::add"], "GetFunctionCalls"),
    ], ids=["inheritance", "calls"])
    def test_bad_direction_is_a_json_envelope(self, index_file, ctx, capsys,
                                              argv, tool):
        code, stdout, stderr = run_cli(capsys, "query", "--index",
                                       str(index_file), *argv,
                                       "--direction", "up")
        assert (code, stdout) == (2, "")
        envelope = json.loads(stderr)
        assert envelope == {"error_kind": "BadRequest",
                            "message": "bad direction 'up'"}
        assert envelope == server_error(
            ctx, tool, {"name": argv[1], "direction": "up"})

    @pytest.mark.parametrize("spelling",
                             ["(int,int)", "( int , int )", "(int a, int b)"])
    def test_signature_spellings_find_add(self, index_file, ctx, capsys,
                                          spelling):
        for subcommand, tool in [("find-function", "FindFunction"),
                                 ("calls", "GetFunctionCalls")]:
            want = dispatch_tool(ctx, tool,
                                 {"name": "add", "signature": "(int, int)"})
            got = dispatch_tool(ctx, tool,
                                {"name": "add", "signature": spelling})
            assert got == want
            code, stdout, _ = run_cli(capsys, "query", "--index",
                                      str(index_file), subcommand, "add",
                                      "--signature", spelling)
            assert code == 0
            assert json.loads(stdout) == json.loads(json.dumps(want))


def write_pipeline_inputs(tmp_path, repo_root):
    """Issue, transcripts and a regression manifest for the toy defect."""
    repo = load_repository(repo_root)
    old = repo.unit("src/calc.cpp").content
    fix = make_diff(
        old,
        old.replace("last_result_ = a - b;\n    return a + b;",
                    "last_result_ = a - b;\n    return a - b;"),
        "src/calc.cpp",
    )
    check = (
        "import pathlib, sys; "
        "text = pathlib.Path('src/calc.cpp').read_text(); "
        "sys.exit(0 if 'return a - b;' in text else 1)"
    )
    repro_test = TestCase(test_id="t-subtract", command=(PY, "-c", check))

    issue = tmp_path / "issue.json"
    issue.write_text(json.dumps({
        "title": "Calculator::subtract returns the sum",
        "body": "`Calculator::subtract` adds its arguments.",
    }), encoding="utf-8")

    repro = tmp_path / "repro.jsonl"
    repro.write_text(json.dumps(
        {"turn": "emit", "kind": "test", "test": repro_test.to_dict()}
    ) + "\n", encoding="utf-8")

    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps(
        {"turn": "emit", "kind": "patch", "diff": fix}
    ) + "\n", encoding="utf-8")

    flavor = TestCase(test_id="t-flavor", command=(
        PY, "-c",
        "import pathlib, sys; "
        "sys.exit(0 if 'return \"basic\";' in "
        "pathlib.Path('src/calc.cpp').read_text() else 1)",
    ))
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps({"tests": [flavor.to_dict()]}),
                     encoding="utf-8")
    return issue, repro, gen, tests, fix


class TestPipelineCommand:
    def test_success_writes_selected_diff(self, toyrepo_root, tmp_path, capsys):
        issue, repro, gen, tests, fix = write_pipeline_inputs(
            tmp_path, toyrepo_root)
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "pipeline", "--root", str(toyrepo_root),
            "--issue", str(issue), "--repro-transcript", str(repro),
            "--gen-transcript", str(gen), "--tests", str(tests),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["status"] == "SUCCESS"
        assert payload["selected_diff"] == fix
        assert json.loads(out.read_text())["selected_diff"] == fix

    def test_all_pruned_exits_five(self, toyrepo_root, tmp_path, capsys):
        issue, repro, _, _, _ = write_pipeline_inputs(tmp_path, toyrepo_root)
        repo = load_repository(toyrepo_root)
        old = repo.unit("src/calc.h").content
        comment_diff = make_diff(
            old,
            old.replace("// Returns the sum of a and b.",
                        "// Adds a and b together."),
            "src/calc.h",
        )
        gen = tmp_path / "gen_comment.jsonl"
        gen.write_text(json.dumps(
            {"turn": "emit", "kind": "patch", "diff": comment_diff}
        ) + "\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "pipeline", "--root", str(toyrepo_root),
            "--issue", str(issue), "--repro-transcript", str(repro),
            "--gen-transcript", str(gen),
        )
        assert code == 5
        assert json.loads(stdout)["status"] == "FAILURE"

    def test_reproduction_failure_exits_three(self, toyrepo_root, tmp_path,
                                              capsys):
        issue, _, gen, _, _ = write_pipeline_inputs(tmp_path, toyrepo_root)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "pipeline", "--root", str(toyrepo_root),
            "--issue", str(issue), "--repro-transcript", str(empty),
            "--gen-transcript", str(gen),
        )
        assert code == 3
        assert json.loads(stdout)["status"] == "REPRODUCTION_FAILED"

    def test_generation_failure_exits_four(self, toyrepo_root, tmp_path,
                                           capsys):
        issue, repro, _, _, _ = write_pipeline_inputs(tmp_path, toyrepo_root)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "pipeline", "--root", str(toyrepo_root),
            "--issue", str(issue), "--repro-transcript", str(repro),
            "--gen-transcript", str(empty),
        )
        assert code == 4
        assert json.loads(stdout)["status"] == "GENERATION_FAILED"

    def test_strategy_flag_threads_through(self, toyrepo_root, tmp_path,
                                           capsys):
        issue, repro, gen, tests, _ = write_pipeline_inputs(
            tmp_path, toyrepo_root)
        code, stdout, _ = run_cli(
            capsys, "pipeline", "--root", str(toyrepo_root),
            "--issue", str(issue), "--repro-transcript", str(repro),
            "--gen-transcript", str(gen), "--tests", str(tests),
            "--strategy", "min_complexity",
        )
        assert code == 0
        assert json.loads(stdout)["strategy"] == "min_complexity"


    @pytest.mark.parametrize("raw", [[1], {"tests": {"t": 1}}, {"tests": [5]}],
                             ids=json.dumps)
    def test_malformed_tests_file_exits_two(self, raw, toyrepo_root, tmp_path,
                                            capsys):
        issue, repro, gen, tests, _ = write_pipeline_inputs(
            tmp_path, toyrepo_root)
        tests.write_text(json.dumps(raw), encoding="utf-8")
        code, stdout, stderr = run_cli(
            capsys, "pipeline", "--root", str(toyrepo_root),
            "--issue", str(issue), "--repro-transcript", str(repro),
            "--gen-transcript", str(gen), "--tests", str(tests),
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestEvalLocCommand:
    def test_rates_from_instances_file(self, tmp_path, capsys):
        instances = tmp_path / "instances.json"
        instances.write_text(json.dumps({"instances": [
            {"instance_id": "i0", "predicted_files": ["a.cpp"],
             "predicted_functions": ["f"], "truth_files": ["a.cpp"],
             "truth_functions": ["g"]},
            {"instance_id": "i1", "predicted_files": ["b.cpp"],
             "predicted_functions": ["h"], "truth_files": ["c.cpp"],
             "truth_functions": ["h"]},
        ]}), encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "eval-loc", "--instances",
                                  str(instances))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["file_rate"] == 0.5
        assert payload["function_rate"] == 0.5
        assert len(payload["per_instance"]) == 2

    def test_duplicate_ids_exit_two(self, tmp_path, capsys):
        instances = tmp_path / "dup.json"
        instances.write_text(json.dumps({"instances": [
            {"instance_id": "same"}, {"instance_id": "same"},
        ]}), encoding="utf-8")
        code, _, stderr = run_cli(capsys, "eval-loc", "--instances",
                                  str(instances))
        assert code == 2
        assert json.loads(stderr)["error_kind"] == "IdMismatch"

    @pytest.mark.parametrize("value", [5, "src/a.cpp"], ids=["number", "string"])
    def test_name_field_of_the_wrong_type_exits_two(self, value, tmp_path,
                                                    capsys):
        # "src/a.cpp" scored file_rate 1.0 against ["a"], as a set of letters
        instances = tmp_path / "instances.json"
        instances.write_text(json.dumps({"instances": [
            {"instance_id": "i0", "predicted_files": value,
             "truth_files": ["a"]},
        ]}), encoding="utf-8")
        assert_input_error(*run_cli(capsys, "eval-loc", "--instances",
                                    str(instances)))

    @pytest.mark.parametrize("text", [
        "[1]", '{"instances": [5]}', '{"instances": 5}', TOO_DEEP, "{}",
    ], ids=["list", "instance-a-number", "instances-a-number", "too-deep",
            "no-instances"])
    def test_malformed_instances_file_exits_two(self, text, tmp_path, capsys):
        instances = tmp_path / "instances.json"
        instances.write_text(text, encoding="utf-8")
        assert_input_error(*run_cli(capsys, "eval-loc", "--instances",
                                    str(instances)))


class TestConfigFile:
    def test_unknown_keys_fail_loudly(self, toyrepo_root, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"providor": {"type": "hash"}}),
                          encoding="utf-8")
        code, _, stderr = run_cli(capsys, "index", "--root", str(toyrepo_root),
                                  "--out", str(tmp_path / "x.caidx"),
                                  "--config", str(config))
        assert code == 2
        assert "providor" in stderr

    def test_provider_dim_applies(self, toyrepo_root, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"provider": {"type": "hash", "dim": 32}}),
                          encoding="utf-8")
        out = tmp_path / "small.caidx"
        code, _, _ = run_cli(capsys, "index", "--root", str(toyrepo_root),
                             "--out", str(out), "--config", str(config))
        assert code == 0
        assert load_index(out).intent.dim == 32

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    def test_path_it_cannot_open_is_a_plain_error_line(self, flag, toyrepo_root,
                                                       tmp_path, capsys):
        missing = str(tmp_path / "missing" / "x")
        args = ["--out", str(tmp_path / "x.caidx"), flag, missing]
        code, stdout, stderr = run_cli(capsys, "index", "--root",
                                       str(toyrepo_root), *args)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: [Errno 2] ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")

    def test_config_nested_too_deep_exits_two(self, toyrepo_root, tmp_path,
                                              capsys):
        config = tmp_path / "config.json"
        config.write_text(TOO_DEEP, encoding="utf-8")
        assert_input_error(*run_cli(capsys, "index", "--root", str(toyrepo_root),
                                    "--out", str(tmp_path / "x.caidx"),
                                    "--config", str(config)))

    @pytest.mark.parametrize("raw", [
        {"provider": 5},
        {"pipeline": {"vote_weights": 3}},
        [],
        {"runner": []},
        {"include_globs": 7},
        {"provider": {"type": "command", "command": 5}},
        {"runner": {"timeout_seconds": "x"}},
        {"include_globs": ["**/*.h", 3]},
        {"pipeline": {"vote_weights": [1, True, 0]}},
        {"pipeline": {"intent_k": True}},
        {"pipeline": {"selection_strategy": 1}},
        {"runner": {"scratch_root": 3}},
    ], ids=json.dumps)
    def test_malformed_config_exits_two(self, raw, toyrepo_root, tmp_path,
                                        capsys):
        with pytest.raises(ValueError):
            AppConfig.from_dict(raw)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "index", "--root",
                                       str(toyrepo_root), "--out",
                                       str(tmp_path / "x.caidx"),
                                       "--config", str(config))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ")

    @pytest.mark.parametrize("pattern", ["", "/abs/*.h", "../*.h", "src/../../*.h"])
    def test_include_glob_leaving_the_root_exits_two(self, pattern, toyrepo_root,
                                                      tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"include_globs": [pattern]}), encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "index", "--root", str(toyrepo_root),
                                       "--out", str(tmp_path / "x.caidx"),
                                       "--config", str(config))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: include_globs entry ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")

    def test_defaults_come_from_the_dataclasses(self):
        assert AppConfig.from_dict({}) == AppConfig()
        partial = AppConfig.from_dict({
            "provider": {"dim": 32},
            "runner": {"timeout_seconds": 5, "scratch_root": None},
            "pipeline": {"intent_k": 3, "vote_weights": [1, 0, 0]},
        })
        # the file's "runner" section is the pipeline's runner
        assert partial == AppConfig(
            provider=ProviderConfig(dim=32),
            pipeline=PipelineConfig(intent_k=3, vote_weights=(1.0, 0.0, 0.0),
                                    runner=RunnerConfig(timeout_seconds=5.0)),
        )
        with pytest.raises(ValueError, match="vote_weights must have 3 entries"):
            AppConfig.from_dict({"pipeline": {"vote_weights": [1, 0]}})

    def test_shared_defaults_keep_their_values(self):
        def default(function, name):
            return inspect.signature(function).parameters[name].default

        assert (DEFAULT_K, DEFAULT_HOPS, DEFAULT_DIM) == (10, 2, 256)
        assert default(query_code_intent, "k") == default(localize, "k") == (
            PipelineConfig().intent_k) == DEFAULT_K
        assert default(defect_subgraph, "hops") == default(localize, "hops") == (
            PipelineConfig().subgraph_hops) == DEFAULT_HOPS
        assert HashEmbeddingProvider().dim == ProviderConfig().dim == DEFAULT_DIM


def checkout_env():
    """The caller's environment with this checkout's `src` first on
    PYTHONPATH, so a child imports this checkout, not an installed copy."""
    src = str(ROOT / "src")
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + rest if rest else src)


def declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"].get("scripts", {})


def assert_lists_subcommands(help_text):
    assert help_text.startswith("usage: cppatlas")
    # the subcommand choices, not the description, which also says
    # "pipeline"
    choices = re.search(r"\{([^}]*)\}", help_text)
    assert choices, help_text
    assert set(SUBCOMMANDS) <= set(choices.group(1).split(","))


class TestQuickStartScripts:
    @pytest.mark.parametrize("script", ["run_motivation.py",
                                        "run_toy_pipeline.py"])
    def test_script_runs_from_the_checkout(self, script):
        proc = subprocess.run(
            [PY, str(ROOT / "scripts" / script)],
            capture_output=True, text=True, timeout=120, env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        if script == "run_toy_pipeline.py":
            assert '"status": "SUCCESS"' in proc.stdout

    def test_readme_library_imports(self):
        import cppatlas

        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"from cppatlas import \(.*?\)", readme, re.S)
        exec(block.group(0), {})
        assert cppatlas.__all__ == sorted(cppatlas.__all__)
        for name in cppatlas.__all__:
            assert f"`{name}`" in readme or name in block.group(0), name
            assert getattr(cppatlas, name)


class TestInstalledEntryPoint:
    def test_serve_round_trip_over_stdio(self, index_file):
        requests = [
            json.dumps({"request_id": i, "tool": "FindFunction",
                        "arguments": {"name": name}})
            for i, name in enumerate(["add", "multiply"])
        ] + ["not json"]
        proc = subprocess.run(
            [PY, "-m", "cppatlas", "serve", "--index", str(index_file)],
            input="\n".join(requests) + "\n",
            capture_output=True, text=True, timeout=120, env=checkout_env(),
        )
        assert proc.returncode == 0
        responses = [json.loads(l) for l in proc.stdout.splitlines()]
        assert [r["ok"] for r in responses] == [True, True, False]
        assert responses[2]["error_kind"] == "BadRequest"

    def test_console_script_help(self):
        scripts = declared_scripts()
        assert "cppatlas" in scripts
        proc = subprocess.run(
            [PY, "-c", WRAPPER, scripts["cppatlas"], "--help"],
            capture_output=True, text=True, timeout=60, env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert_lists_subcommands(proc.stdout)

    @pytest.mark.skipif(shutil.which("cppatlas") is None,
                        reason="no cppatlas console script on PATH")
    def test_installed_console_script_help(self):
        proc = subprocess.run(["cppatlas", "--help"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
        assert_lists_subcommands(proc.stdout)
