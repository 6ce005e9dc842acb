"""Hostile source trees: each shape is built, persisted and loaded, and must
give an index that says what the parser made of it, in bounded time.

The bounds are generous, about ten times what each shape takes on a
2-CPU machine, so that they catch work that grows with the input's
square, not a slow machine. The 1,000-overload header is checked for its
outcome only: its overload pairs grow with the square of the group, and
their bound waits for the index format that derives them."""

from __future__ import annotations

import time

import pytest

from cppatlas.index import IndexContainer, build_index, load_index, persist_index
from cppatlas.intent import build_intent_index
from cppatlas.model import SymbolKind
from cppatlas.repo import Repository, SourceUnit

SECONDS = 5.0

SHAPES = {
    "nested-namespaces": "".join(f"namespace n{i} {{ " for i in range(150))
    + "int x;" + "}" * 150 + "\n",
    "long-line": "int " + ", ".join(f"v{i}" for i in range(4000)) + ";\n",
    "angles": "template " + "<" * 200_000 + "\n",
    "unclosed-comment": "".join(f"int a{i};\n" for i in range(20_000))
    + "/* never closed\nint b;\n",
    "parens": "void f(" + "(" * 50_000 + ");\n",
    "braces": "void f() " + "{" * 50_000 + "}" * 50_000 + "\n",
    "unresolved-namespace": "namespace unresolved { class Foo {}; }\n",
    "overloads": "".join(f"struct T{i} {{}};\nvoid f(T{i});\n" for i in range(1000)),
}


def outcome(shape, tmp_path):
    """Build, persist and load a tree of one header holding the shape's
    text, within ``SECONDS`` but for the overload header, and check that
    the load gives back what was built. Returns the built index, its
    intent index and the index file's size in bytes."""
    started = time.perf_counter()
    repo = Repository("mem", (SourceUnit.make("h.h", SHAPES[shape]),))
    structural = build_index(repo)
    intent = build_intent_index(structural)
    intent.matrix  # the hash embedder's vectors are made on first read
    path = tmp_path / "atlas.caidx"
    persist_index(IndexContainer(structural, intent), path)
    loaded = load_index(path)
    if shape != "overloads":
        assert time.perf_counter() - started < SECONDS
    assert (loaded.structural, loaded.intent) == (structural, intent)
    return structural, intent, path.stat().st_size


def qualified(index, kind):
    return [s.qualified_name for s in index.symbols if s.kind is kind]


def test_scopes_nested_past_the_limit_are_an_error_not_a_crash(tmp_path):
    structural, *_ = outcome("nested-namespaces", tmp_path)
    namespaces = qualified(structural, SymbolKind.NAMESPACE)
    # the namespace at the limit is recorded and its body skipped
    assert namespaces == ["::".join(f"n{i}" for i in range(d + 1))
                          for d in range(101)]
    assert structural.parse_error_count >= 1


def test_a_long_line_gives_each_record_a_clipped_snippet(tmp_path):
    # every declarator of the line gets the line as its snippet, so an
    # unclipped snippet would make the summaries grow with the line squared
    structural, intent, size = outcome("long-line", tmp_path)
    assert len(qualified(structural, SymbolKind.VARIABLE)) == 4000
    assert max(map(len, intent.texts)) < 1000
    assert size < 100 * len(SHAPES["long-line"])


@pytest.mark.parametrize("shape, functions, errors", [
    ("angles", [], 0),  # a template head that never ends declares nothing
    ("parens", [("f", False)], 1),  # an unclosed parameter list is an error
    ("braces", [("f", True)], 0),  # a deep body is skipped, not recursed into
])
def test_deep_brackets_are_walked_without_recursion(shape, functions, errors,
                                                    tmp_path):
    structural, *_ = outcome(shape, tmp_path)
    assert [(s.qualified_name, s.is_definition)
            for s in structural.symbols[1:]] == functions
    assert structural.parse_error_count == errors


def test_an_unclosed_comment_keeps_what_precedes_it(tmp_path):
    structural, *_ = outcome("unclosed-comment", tmp_path)
    variables = qualified(structural, SymbolKind.VARIABLE)
    assert variables == [f"a{i}" for i in range(20_000)]
    assert structural.parse_error_count >= 1


def test_a_namespace_named_unresolved_holds_real_symbols(tmp_path):
    structural, intent, *_ = outcome("unresolved-namespace", tmp_path)
    assert intent.qualified_names == ("unresolved", "unresolved::Foo")
    assert qualified(structural, SymbolKind.CLASS) == ["unresolved::Foo"]


def test_an_overload_header_indexes_every_overload(tmp_path):
    structural, *_ = outcome("overloads", tmp_path)
    assert len(qualified(structural, SymbolKind.FREE_FUNCTION)) == 1000
    assert len(qualified(structural, SymbolKind.STRUCT)) == 1000
