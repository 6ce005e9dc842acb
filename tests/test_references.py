"""The frozen references (``tests/ref*.py``) stay apart from the code
they check: none imports a private name of cppatlas, and the frozen build
imports nothing of ``cppatlas.index``, so reworking those internals can
neither break a reference nor silently change what it answers."""

import ast
import pathlib

import pytest

REFERENCES = sorted(pathlib.Path(__file__).parent.glob("ref*.py"))


def _imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """(module, name) of each cppatlas import in ``path``; ``name`` is ""
    for a plain ``import`` of the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.module or "", a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, "") for a in node.names]
    return [(m, n) for m, n in found if m.split(".")[0] == "cppatlas"]


def test_there_are_references():
    assert {"refindex.py", "refformat.py"} <= {p.name for p in REFERENCES}


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.name)
def test_reference_imports_no_private_name(path):
    private = [
        f"{module}.{name}" if name else module
        for module, name in _imports(path)
        if any(part.startswith("_") for part in (*module.split("."), name) if part)
    ]
    assert private == []


def test_frozen_build_imports_nothing_of_the_index():
    imports = _imports(pathlib.Path(__file__).with_name("refindex.py"))
    assert [i for i in imports
            if i[0] == "cppatlas.index" or i == ("cppatlas", "index")] == []
