"""JSON-lines tool server: request framing, error surfacing and loop
resilience."""

import io
import json
import sys

import pytest

from cppatlas.errors import NoSeedsResolved
from cppatlas.intent import CommandEmbeddingProvider, build_intent_index
from cppatlas.server import handle_line, handle_request, serve
from cppatlas.tools import ToolContext, dispatch_tool


@pytest.fixture(scope="module")
def ctx(toy_index, toy_intent):
    return ToolContext(structural=toy_index, intent=toy_intent)


def roundtrip(ctx, request):
    return json.loads(handle_line(ctx, json.dumps(request)))


# digit strings that int() cannot read: "²", "①" and more digits than
# int() converts
NOT_AN_ID = ["\u00b2", "\u2460", "9" * 5000]


@pytest.mark.parametrize("seed", NOT_AN_ID,
                         ids=["superscript-two", "circled-one", "5000-digits"])
def test_digit_seed_that_is_no_id_resolves_nothing(ctx, seed):
    with pytest.raises(NoSeedsResolved):
        dispatch_tool(ctx, "DefectSubgraph", {"seeds": [seed]})


class TestHandleRequest:
    def test_ok_response_echoes_request_id(self, ctx):
        req = {"request_id": 7, "tool": "FindClass",
               "arguments": {"name": "Calculator"}}
        resp = handle_request(ctx, req)
        assert resp["request_id"] == 7
        assert resp["ok"] is True
        assert resp["result"]["record"]["qualified_name"] == "calc::Calculator"

    def test_result_matches_in_process_dispatch(self, ctx):
        args = {"name": "Calculator", "direction": "derived"}
        resp = handle_request(
            ctx, {"request_id": "a", "tool": "GetInheritanceChain",
                  "arguments": args}
        )
        assert resp["result"] == dispatch_tool(ctx, "GetInheritanceChain", args)

    def test_engine_errors_become_error_kind(self, ctx):
        resp = handle_request(ctx, {"request_id": 3, "tool": "FindClass",
                                    "arguments": {"name": "Nonesuch"}})
        assert resp == {
            "request_id": 3,
            "ok": False,
            "error_kind": "NotFound",
            "message": resp["message"],
        }

    def test_unknown_tool_and_bad_arguments(self, ctx):
        resp = handle_request(ctx, {"request_id": 1, "tool": "Imagine",
                                    "arguments": {}})
        assert resp["error_kind"] == "UnknownTool"

        resp = handle_request(ctx, {"request_id": 2, "tool": "FindClass",
                                    "arguments": {}})
        assert resp["error_kind"] == "BadRequest"
        assert "name" in resp["message"]

        resp = handle_request(ctx, {"request_id": 4, "tool": 9})
        assert resp["error_kind"] == "BadRequest"

        resp = handle_request(ctx, {"request_id": 5, "tool": "FindClass",
                                    "arguments": [1]})
        assert resp["error_kind"] == "BadRequest"

        for k in (0, -1):
            resp = handle_request(ctx, {"request_id": 6, "tool": "QueryCodeIntent",
                                        "arguments": {"text": "calc", "k": k}})
            assert resp["error_kind"] == "BadRequest"
            assert "k must be >= 1" in resp["message"]

    def test_ambiguous_name_carries_candidates(self, toy_intent, tmp_path):
        from cppatlas.index import build_index
        from cppatlas.repo import load_repository

        (tmp_path / "twin.h").write_text(
            "namespace x { class Twin {}; }\n"
            "namespace y { class Twin {}; }\n",
            encoding="utf-8",
        )
        local = ToolContext(structural=build_index(load_repository(tmp_path)))
        resp = handle_request(local, {"request_id": 0, "tool": "FindClass",
                                      "arguments": {"name": "Twin"}})
        assert resp["error_kind"] == "AmbiguousName"
        assert set(resp["candidates"]) == {"x::Twin", "y::Twin"}

    def test_missing_request_id_is_echoed_as_null(self, ctx):
        resp = handle_request(ctx, {"tool": "GrepBaseline",
                                    "arguments": {"pattern": "Calculator"}})
        assert resp["request_id"] is None
        assert resp["ok"] is True


class TestHandleLine:
    def test_unparseable_line_is_bad_request_with_null_id(self, ctx):
        resp = json.loads(handle_line(ctx, "{this is not json"))
        assert resp["ok"] is False
        assert resp["error_kind"] == "BadRequest"
        assert resp["request_id"] is None

    def test_non_object_request_rejected(self, ctx):
        for line in ["[1, 2]", '"hello"', "42"]:
            resp = json.loads(handle_line(ctx, line))
            assert resp["error_kind"] == "BadRequest"

    def test_output_is_compact_single_line_json(self, ctx):
        raw = handle_line(ctx, json.dumps({"request_id": 1, "tool": "FindClass",
                                           "arguments": {"name": "Calculator"}}))
        assert "\n" not in raw
        assert ": " not in raw  # compact separators
        assert json.loads(raw)["ok"] is True


class TestServeLoop:
    def run(self, ctx, lines):
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        handled = serve(ctx, stdin=stdin, stdout=stdout)
        out = [json.loads(l) for l in stdout.getvalue().splitlines()]
        return handled, out

    def test_responses_preserve_request_order(self, ctx):
        requests = [
            {"request_id": i, "tool": "FindFunction",
             "arguments": {"name": name}}
            for i, name in enumerate(["add", "subtract", "multiply", "power"])
        ]
        handled, out = self.run(ctx, [json.dumps(r) for r in requests])
        assert handled == 4
        assert [r["request_id"] for r in out] == [0, 1, 2, 3]
        assert all(r["ok"] for r in out)

    def test_blank_lines_are_skipped(self, ctx):
        req = json.dumps({"request_id": 1, "tool": "GrepBaseline",
                          "arguments": {"pattern": "add"}})
        handled, out = self.run(ctx, ["", "   ", req, ""])
        assert handled == 1
        assert len(out) == 1

    def test_malformed_line_does_not_kill_the_loop(self, ctx):
        good = json.dumps({"request_id": 2, "tool": "FindClass",
                           "arguments": {"name": "SciCalculator"}})
        handled, out = self.run(ctx, ["garbage", good, "{", good])
        assert handled == 4
        assert [r["ok"] for r in out] == [False, True, False, True]
        assert out[0]["error_kind"] == "BadRequest"
        assert out[2]["request_id"] is None

    def test_server_responses_equal_in_process_calls(self, ctx):
        requests = [
            {"request_id": 0, "tool": "QueryCodeIntent",
             "arguments": {"text": "subtract two integers", "k": 3}},
            {"request_id": 1, "tool": "DefectSubgraph",
             "arguments": {"seeds": ["calc::Calculator"], "hops": 1}},
            {"request_id": 2, "tool": "GetFunctionCalls",
             "arguments": {"name": "calc::Calculator::multiply"}},
        ]
        _, out = self.run(ctx, [json.dumps(r) for r in requests])
        for req, resp in zip(requests, out):
            assert resp["result"] == dispatch_tool(ctx, req["tool"],
                                                   req["arguments"])

    def test_seed_that_is_no_id_does_not_end_the_loop(self, ctx):
        lines = [
            json.dumps({"request_id": i, "tool": "DefectSubgraph",
                        "arguments": {"seeds": [seed]}})
            for i, seed in enumerate(NOT_AN_ID)
        ]
        lines.append(json.dumps({"request_id": 9, "tool": "FindClass",
                                 "arguments": {"name": "Calculator"}}))
        handled, out = self.run(ctx, lines)
        assert handled == 4
        assert [r["request_id"] for r in out] == [0, 1, 2, 9]
        assert [r.get("error_kind") for r in out] == ["NoSeedsResolved"] * 3 + [
            None]
        assert out[3]["result"]["record"]["qualified_name"] == "calc::Calculator"

    def test_line_nested_past_the_parser_depth_does_not_end_the_loop(self, ctx):
        good = json.dumps({"request_id": 1, "tool": "FindClass",
                           "arguments": {"name": "Calculator"}})
        handled, out = self.run(ctx, ["[" * 100000 + "]" * 100000, good])
        assert handled == 2
        assert out[0]["error_kind"] == "BadRequest"
        assert out[0]["request_id"] is None
        assert out[1]["result"]["record"]["qualified_name"] == "calc::Calculator"

    def test_grep_limit_past_the_largest_slice_does_not_end_the_loop(self, ctx):
        lines = [
            json.dumps({"request_id": i, "tool": "GrepBaseline",
                        "arguments": {"pattern": "Calculator",
                                      "max_results": limit}})
            for i, limit in enumerate([2**63 - 1, 2**64, 3])
        ]
        handled, out = self.run(ctx, lines)
        assert handled == 3
        assert [r["request_id"] for r in out] == [0, 1, 2]
        assert all(r["ok"] for r in out)
        everything = dispatch_tool(ctx, "GrepBaseline",
                                   {"pattern": "Calculator", "max_results": 1000})
        assert not everything["truncated"]
        assert out[0]["result"] == out[1]["result"] == everything
        assert out[2]["result"]["matches"] == everything["matches"][:3]
        assert out[2]["result"]["truncated"]

    def test_eof_returns_request_count(self, ctx):
        handled, out = self.run(ctx, [])
        assert handled == 0
        assert out == []

    def test_malformed_embedding_reply_does_not_end_the_loop(
        self, toy_index, tmp_path
    ):
        script = ("import json,sys;n=len(json.load(sys.stdin)['texts']);"
                  "print(json.dumps({'vectors': [[1.0, 0.0]] * n}))")
        good = CommandEmbeddingProvider(
            (sys.executable, "-c", script), name="scripted", dim=2)
        (tmp_path / "reply").write_text('{"vectors": [[[1, 2], [3, 4]]]}')
        bad = CommandEmbeddingProvider(
            (sys.executable, "-c",
             "import sys;sys.stdin.read();sys.stdout.write(open(sys.argv[1]).read())",
             str(tmp_path / "reply")), name="scripted", dim=2)
        ctx = ToolContext(structural=toy_index,
                          intent=build_intent_index(toy_index, good), provider=bad)
        handled, out = self.run(ctx, [
            json.dumps({"request_id": 1, "tool": "QueryCodeIntent",
                        "arguments": {"text": "add"}}),
            json.dumps({"request_id": 2, "tool": "FindClass",
                        "arguments": {"name": "Calculator"}}),
        ])
        assert handled == 2
        assert out[0]["error_kind"] == "ProviderUnavailable"
        assert out[1]["ok"] is True
