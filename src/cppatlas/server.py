"""Line-oriented stdio tool server.

One JSON request per line in, one JSON response per line out. A request
looks like ``{"request_id": 1, "tool": "FindClass", "arguments":
{"name": "Search"}}``. Responses echo ``request_id`` and carry either
``"ok": true`` with a result or ``"ok": false`` with an ``error_kind``
matching the engine exception name. Malformed lines produce a
``BadRequest`` response; the loop never exits on bad input, only on EOF.
"""

from __future__ import annotations

import json
import sys

from .errors import BadRequest, EngineError
from .tools import ToolContext, dispatch_tool


def _encode(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _error_response(request_id, exc: EngineError) -> dict:
    return {"request_id": request_id, "ok": False, **exc.to_dict()}


def handle_request(ctx: ToolContext, request: dict) -> dict:
    request_id = request.get("request_id")
    tool = request.get("tool")
    try:
        if not isinstance(tool, str):
            raise BadRequest("request needs a string 'tool' field")
        result = dispatch_tool(ctx, tool, request.get("arguments", {}))
        return {"request_id": request_id, "ok": True, "result": result}
    except EngineError as exc:
        return _error_response(request_id, exc)


def handle_line(ctx: ToolContext, line: str) -> str:
    try:
        request = json.loads(line)
    except (ValueError, RecursionError) as exc:  # or nested too deep
        return _encode(
            _error_response(None, BadRequest(f"not valid JSON: {exc}"))
        )
    if not isinstance(request, dict):
        return _encode(
            _error_response(None, BadRequest("request must be a JSON object"))
        )
    return _encode(handle_request(ctx, request))


def serve(ctx: ToolContext, stdin=None, stdout=None) -> int:
    """Serve until EOF. Returns the number of requests handled."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    handled = 0
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        stdout.write(handle_line(ctx, line) + "\n")
        stdout.flush()
        handled += 1
    return handled
