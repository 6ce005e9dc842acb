"""Command line interface.

Exit codes: 0 success, 2 bad input or failed query, 3 reproduction
failure, 4 generation failure, 5 pipeline finished with no valid
candidate.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .backends import ScriptedBackend
from .config import AppConfig
from .errors import EngineError, GenerationFailed, ReproductionFailed
from .evaluation import EvalInstance, evaluate_localization
from .index import IndexContainer, build_index, load_index, persist_index
from .intent import build_intent_index, localize
from .pipeline import run_pipeline
from .repo import IssueDescription, load_repository
from .runner import TestCase
from .server import serve
from .tools import ToolContext, dispatch_tool

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REPRODUCE = 3
EXIT_GENERATE = 4
EXIT_SELECT = 5

# `query` subcommand -> registry tool; each subcommand's argument dests are
# the tool's argument names. `localize` is not a tool and is run directly.
QUERY_TOOLS = {
    "find-class": "FindClass",
    "find-function": "FindFunction",
    "inheritance": "GetInheritanceChain",
    "calls": "GetFunctionCalls",
    "intent": "QueryCodeIntent",
    "grep": "GrepBaseline",
    "subgraph": "DefectSubgraph",
}
# namespace entries that belong to `cppatlas` and `query`, not to the tool
_QUERY_OWN = ("cmd", "func", "index", "root", "config", "query_cmd")


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _fail(exc: EngineError) -> int:
    json.dump(exc.to_dict(), sys.stderr, indent=2, sort_keys=True)
    sys.stderr.write("\n")
    return EXIT_INPUT


def _read_json(path: str, **defaults) -> dict:
    """The JSON object in file ``path``, with each key of ``defaults`` set
    to its default when absent. ``ValueError`` when the file holds no
    object, is nested too deep to read, or holds a key of ``defaults``
    whose value has another type than its default (a list: one whose
    entries are not all objects)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deep") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    data = {**defaults, **data}
    for key, default in defaults.items():
        value = data[key]
        if type(value) is not type(default) or (
                type(value) is list and {type(v) for v in value} - {dict}):
            raise ValueError(f"{path}: {key} has the wrong shape")
    return data


def _config(args) -> AppConfig:
    if getattr(args, "config", None):
        return AppConfig.from_dict(_read_json(args.config))
    return AppConfig()


def _load_indexes(args, config: AppConfig) -> ToolContext:
    if args.index:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            container = load_index(args.index)
        for w in caught:
            sys.stderr.write(f"warning: {w.message}\n")
        return ToolContext(container.structural, container.intent,
                           config.provider.make())
    repo = load_repository(args.root, include_globs=config.include_globs)
    structural = build_index(repo)
    provider = config.provider.make()
    return ToolContext(structural, build_intent_index(structural, provider),
                       provider)


def _cmd_index(args) -> int:
    config = _config(args)
    repo = load_repository(args.root, include_globs=config.include_globs)
    structural = build_index(repo)
    intent = None
    if not args.no_intent:
        intent = build_intent_index(structural, config.provider.make())
    persist_index(IndexContainer(structural, intent), args.out)
    _emit(
        {
            "out": str(args.out),
            "symbols": len(structural.symbols),
            "edges": len(structural.edges),
            "parse_errors": structural.parse_error_count,
            "snapshot": structural.repo_snapshot,
            "intent_docs": len(intent.symbol_ids) if intent else 0,
        }
    )
    return EXIT_OK


def _cmd_query(args) -> int:
    ctx = _load_indexes(args, _config(args))
    arguments = {k: v for k, v in vars(args).items() if k not in _QUERY_OWN}
    if args.query_cmd == "localize":
        intent = ctx.intent_index()
        issue = _read_issue(arguments.pop("issue"))
        _emit(localize(ctx.structural, intent, issue, provider=ctx.provider,
                       **arguments))
    else:
        _emit(dispatch_tool(ctx, QUERY_TOOLS[args.query_cmd], arguments))
    return EXIT_OK


def _cmd_serve(args) -> int:
    serve(_load_indexes(args, _config(args)))
    return EXIT_OK


def _read_issue(path: str) -> IssueDescription:
    data = _read_json(path, title="", body="")
    return IssueDescription.from_text(data["title"], data["body"])


def _read_tests(path: str | None) -> list[TestCase]:
    if not path:
        return []
    tests = _read_json(path, tests=[])["tests"]
    return [TestCase.from_dict(t) for t in tests]


def _cmd_pipeline(args) -> int:
    config = _config(args)
    pipeline_config = config.pipeline
    if args.strategy:
        from dataclasses import replace

        pipeline_config = replace(pipeline_config,
                                  selection_strategy=args.strategy)
    repo = load_repository(args.root, include_globs=config.include_globs)
    issue = _read_issue(args.issue)
    repro_backend = ScriptedBackend.from_file(args.repro_transcript)
    gen_backend = ScriptedBackend.from_file(args.gen_transcript)
    regression = _read_tests(args.tests)
    try:
        result = run_pipeline(
            repo,
            issue,
            repro_backend,
            gen_backend,
            regression_tests=regression,
            config=pipeline_config,
        )
    except ReproductionFailed as exc:
        json.dump({"status": "REPRODUCTION_FAILED", "reason": exc.reason},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_REPRODUCE
    except GenerationFailed as exc:
        json.dump({"status": "GENERATION_FAILED", "message": str(exc)},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_GENERATE
    report = result.to_dict()
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    _emit(report)
    return EXIT_OK if result.status == "SUCCESS" else EXIT_SELECT


def _cmd_eval_loc(args) -> int:
    instances = [EvalInstance.from_dict(i) for i in
                 _read_json(args.instances, instances=[])["instances"]]
    file_rate, function_rate, reports = evaluate_localization(instances)
    _emit(
        {
            "count": len(reports),
            "file_rate": file_rate,
            "function_rate": function_rate,
            "per_instance": [r.to_dict() for r in reports],
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cppatlas",
        description="Structural and intent analysis for C++ repositories, "
                    "plus a patch selection pipeline.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_index = sub.add_parser("index", help="build and persist an index")
    p_index.add_argument("--root", required=True)
    p_index.add_argument("--out", required=True)
    p_index.add_argument("--config")
    p_index.add_argument("--no-intent", action="store_true")
    p_index.set_defaults(func=_cmd_index)

    p_query = sub.add_parser("query", help="run one structural or intent query")
    p_query.add_argument("--index")
    p_query.add_argument("--root")
    p_query.add_argument("--config")
    qsub = p_query.add_subparsers(dest="query_cmd", required=True)

    # options left unset stay out of the namespace, so the query function's
    # own defaults apply
    def query_parser(name):
        return qsub.add_parser(name, argument_default=argparse.SUPPRESS)

    q = query_parser("find-class")
    q.add_argument("name")
    q = query_parser("find-function")
    q.add_argument("name")
    q.add_argument("--signature")
    q = query_parser("inheritance")
    q.add_argument("name")
    q.add_argument("--direction", help="bases, derived or both")
    q = query_parser("calls")
    q.add_argument("name")
    q.add_argument("--signature")
    q.add_argument("--direction", help="out or in")
    q = query_parser("intent")
    q.add_argument("text")
    q.add_argument("-k", type=int)
    q = query_parser("grep")
    q.add_argument("pattern")
    q.add_argument("--max-results", type=int)
    q.add_argument("--fixed", dest="regex", action="store_false",
                   help="treat the pattern as a literal string")
    q = query_parser("subgraph")
    q.add_argument("seeds", nargs="+")
    q.add_argument("--hops", type=int)
    q = query_parser("localize")
    q.add_argument("issue", help="path to an issue JSON file")
    q.add_argument("-k", type=int)
    q.add_argument("--hops", type=int)
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser("serve", help="serve tools over stdio")
    p_serve.add_argument("--index")
    p_serve.add_argument("--root")
    p_serve.add_argument("--config")
    p_serve.set_defaults(func=_cmd_serve)

    p_pipe = sub.add_parser("pipeline", help="run the patch selection pipeline")
    p_pipe.add_argument("--root", required=True)
    p_pipe.add_argument("--issue", required=True)
    p_pipe.add_argument("--repro-transcript", required=True)
    p_pipe.add_argument("--gen-transcript", required=True)
    p_pipe.add_argument("--tests")
    p_pipe.add_argument("--config")
    p_pipe.add_argument("--strategy", choices=["vote", "min_complexity"])
    p_pipe.add_argument("--out")
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_eval = sub.add_parser("eval-loc", help="score localization predictions")
    p_eval.add_argument("--instances", required=True)
    p_eval.set_defaults(func=_cmd_eval_loc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "query" and not (args.index or args.root):
        parser.error("query needs --index or --root")
    if args.cmd == "serve" and not (args.index or args.root):
        parser.error("serve needs --index or --root")
    try:
        return args.func(args)
    except EngineError as exc:
        return _fail(exc)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
