"""Tool registry shared by ``cppatlas query``, the stdio server and the
pipeline loops.

Each tool takes a JSON-compatible argument object and returns a
JSON-compatible result. Argument validation errors raise ``BadRequest``;
domain failures raise their specific ``EngineError`` subclass, and the
caller decides how to surface the ``kind``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadRequest, EmptyIndex, UnknownTool
from .index import StructuralIndex
from .intent import HashEmbeddingProvider, IntentIndex, query_code_intent
from .queries import (
    defect_subgraph,
    find_class,
    find_function,
    get_function_calls,
    get_inheritance_chain,
    grep_baseline,
    snippet_for,
)


@dataclass
class ToolContext:
    structural: StructuralIndex
    intent: IntentIndex | None = None
    provider: object | None = None

    def __post_init__(self):
        if self.provider is None:
            self.provider = HashEmbeddingProvider()

    def intent_index(self) -> IntentIndex:
        if self.intent is None:
            raise EmptyIndex("index was built without intent documents")
        return self.intent


def _require(args: dict, key: str, typ=str):
    if key not in args:
        raise BadRequest(f"missing argument {key!r}")
    value = args[key]
    # bool is an int subclass, but true/false is never a count
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise BadRequest(f"argument {key!r} must be {typ.__name__}")
    return value


def _optional(args: dict, **types) -> dict:
    """The optional arguments present (and not null) in ``args``, checked
    against ``types``. Absent ones are left out, so each default is the
    query function's own."""
    return {
        key: _require(args, key, typ)
        for key, typ in types.items()
        if args.get(key) is not None
    }


def _tool_find_class(ctx: ToolContext, args: dict) -> dict:
    record = find_class(ctx.structural, _require(args, "name"))
    return {
        "record": record.to_dict(),
        "snippet": snippet_for(ctx.structural, record),
    }


def _tool_find_function(ctx: ToolContext, args: dict) -> dict:
    records = find_function(
        ctx.structural, _require(args, "name"), **_optional(args, signature=str)
    )
    return {
        "matches": [
            {
                "record": r.to_dict(),
                "snippet": snippet_for(ctx.structural, r),
            }
            for r in records
        ]
    }


def _tool_inheritance(ctx: ToolContext, args: dict) -> dict:
    return get_inheritance_chain(
        ctx.structural, _require(args, "name"), **_optional(args, direction=str)
    )


def _tool_calls(ctx: ToolContext, args: dict) -> dict:
    return get_function_calls(
        ctx.structural,
        _require(args, "name"),
        **_optional(args, signature=str, direction=str),
    )


def _tool_intent(ctx: ToolContext, args: dict) -> dict:
    hits = query_code_intent(
        ctx.intent_index(),
        _require(args, "text"),
        provider=ctx.provider,
        **_optional(args, k=int),
    )
    return {"hits": hits}


def _tool_grep(ctx: ToolContext, args: dict) -> dict:
    return grep_baseline(
        ctx.structural,
        _require(args, "pattern"),
        **_optional(args, max_results=int, regex=bool),
    )


def _tool_subgraph(ctx: ToolContext, args: dict) -> dict:
    seeds = _require(args, "seeds", list)
    for seed in seeds:
        if not isinstance(seed, (str, int)) or isinstance(seed, bool):
            raise BadRequest("seeds must be names or symbol ids")
    return defect_subgraph(ctx.structural, seeds, **_optional(args, hops=int))


TOOL_REGISTRY = {
    "FindClass": _tool_find_class,
    "FindFunction": _tool_find_function,
    "GetInheritanceChain": _tool_inheritance,
    "GetFunctionCalls": _tool_calls,
    "QueryCodeIntent": _tool_intent,
    "GrepBaseline": _tool_grep,
    "DefectSubgraph": _tool_subgraph,
}


def dispatch_tool(ctx: ToolContext, tool: str, arguments: dict) -> dict:
    handler = TOOL_REGISTRY.get(tool)
    if handler is None:
        raise UnknownTool(f"no tool named {tool!r}")
    if not isinstance(arguments, dict):
        raise BadRequest("arguments must be an object")
    return handler(ctx, arguments)
