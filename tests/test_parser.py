"""Hand-written sources pinning single parser behaviors."""

import textwrap

from cppatlas.index import build_index
from cppatlas.model import EdgeKind, SymbolKind
from cppatlas.repo import load_repository


def index_source(tmp_path, **files):
    for name, text in files.items():
        path = tmp_path / name.replace("__", "/").replace("_dot_", ".")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return build_index(load_repository(tmp_path))


def records(index, qualified):
    return [
        index.symbols[i]
        for i in index.by_qualified.get(qualified, [])
    ]


def only(index, qualified):
    recs = records(index, qualified)
    assert len(recs) == 1, f"{qualified}: {len(recs)} records"
    return recs[0]


class TestDocComments:
    def test_adjacent_line_comment_attaches(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            // counts retries
            int retries();
            """,
        )
        assert only(idx, "retries").doc_comment == "counts retries"

    def test_blank_line_breaks_attachment(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            // stale note

            int retries();
            """,
        )
        assert only(idx, "retries").doc_comment == ""

    def test_consecutive_lines_merge(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            // first line
            // second line
            int retries();
            """,
        )
        assert only(idx, "retries").doc_comment == "first line\nsecond line"

    def test_block_comment_attaches(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            /* whole block */
            int retries();
            """,
        )
        assert only(idx, "retries").doc_comment == "whole block"


class TestNamespaces:
    def test_chain_yields_one_record_per_segment(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            namespace outer::inner {
            int x = 1;
            }
            """,
        )
        outer = only(idx, "outer")
        inner = only(idx, "outer::inner")
        assert outer.kind is SymbolKind.NAMESPACE
        assert inner.kind is SymbolKind.NAMESPACE
        assert outer.location.start_line == inner.location.start_line
        assert outer.location.end_line == inner.location.end_line
        assert idx.parent(inner.symbol_id) == outer.symbol_id
        assert idx.parent(only(idx, "outer::inner::x").symbol_id) == inner.symbol_id

    def test_anonymous_namespace_gets_file_scoped_name(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            namespace {
            int hidden = 1;
            }
            """,
        )
        assert only(idx, "(anon@a.h)").kind is SymbolKind.NAMESPACE
        assert only(idx, "(anon@a.h)::hidden").kind is SymbolKind.VARIABLE


class TestEnums:
    def test_named_enum_without_enumerator_records(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            enum Color {
                RED,
                BLUE,
            };
            """,
        )
        rec = only(idx, "Color")
        assert rec.kind is SymbolKind.ENUM
        assert rec.is_definition
        assert records(idx, "RED") == []
        assert records(idx, "Color::RED") == []

    def test_opaque_enum_is_declaration(self, tmp_path):
        idx = index_source(tmp_path, a_dot_h="enum Mode : int;\n")
        rec = only(idx, "Mode")
        assert rec.kind is SymbolKind.ENUM
        assert not rec.is_definition


class TestClasses:
    def test_forward_declaration_kind(self, tmp_path):
        idx = index_source(tmp_path, a_dot_h="class Later;\n")
        rec = only(idx, "Later")
        assert rec.kind is SymbolKind.FORWARD_DECLARATION
        assert not rec.is_definition

    def test_base_list_strips_access_virtual_and_template_args(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            template <typename T>
            class Box {
            };
            namespace core {
            class Gamma {
            };
            }
            class Omega : public virtual core::Gamma, private Box<int> {
            };
            """,
        )
        omega = only(idx, "Omega")
        bases = {
            idx.symbols[e.dst].qualified_name
            for e in idx.edges
            if e.kind is EdgeKind.INHERITS_FROM and e.src == omega.symbol_id
        }
        assert bases == {"core::Gamma", "Box"}

    def test_unresolved_base_is_dropped(self, tmp_path):
        idx = index_source(tmp_path, a_dot_h="class A : public NotHere {\n};\n")
        a = only(idx, "A")
        assert not [
            e
            for e in idx.edges
            if e.kind is EdgeKind.INHERITS_FROM and e.src == a.symbol_id
        ]

    def test_destructor_is_member_function(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            class Holder {
            public:
                virtual ~Holder();
            };
            """,
        )
        rec = only(idx, "Holder::~Holder")
        assert rec.kind is SymbolKind.MEMBER_FUNCTION
        assert rec.is_virtual

    def test_out_of_line_definition_pairs_with_declaration(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            class Holder {
            public:
                int take() const;
            };
            int Holder::take() const { return 1; }
            """,
        )
        recs = records(idx, "Holder::take")
        assert sorted(r.is_definition for r in recs) == [False, True]
        pair = {
            frozenset({e.src, e.dst})
            for e in idx.edges
            if e.kind is EdgeKind.OVERLOAD_OF
        }
        assert pair == {frozenset({recs[0].symbol_id, recs[1].symbol_id})}


class TestSignatures:
    def test_unnamed_parameter_keeps_its_type(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            struct Widget {};
            struct Foo {};
            void take(const Widget);
            void take(const Widget w) {}
            void f(struct Foo);
            void g(volatile Foo, enum Color, const Widget = Widget());
            void h(const Widget[], Widget items[4], int[2]);
            void k(int const n, unsigned u, Widget *p, Foo);
            """,
        )
        take = records(idx, "take")
        assert [r.signature for r in take] == ["(const Widget)"] * 2
        assert sorted(r.is_definition for r in take) == [False, True]
        assert only(idx, "f").signature == "(struct Foo)"
        assert only(idx, "g").signature == (
            "(volatile Foo, enum Color, const Widget)"
        )
        assert only(idx, "h").signature == (
            "(const Widget [ ], Widget [ 4 ], int [ 2 ])"
        )
        assert only(idx, "k").signature == "(int const, unsigned, Widget *, Foo)"


class TestTemplates:
    def test_template_records_start_at_template_line(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            template <typename T>
            class Box {
            };
            template <typename T>
            T ident(T a0);
            """,
        )
        box = only(idx, "Box")
        ident = only(idx, "ident")
        assert box.kind is SymbolKind.TEMPLATE_CLASS
        assert box.location.start_line == 1
        assert box.template_params == "<typename T>"
        assert ident.kind is SymbolKind.TEMPLATE_FUNCTION
        assert ident.signature == "(T)"
        assert not ident.is_definition


class TestOverrides:
    def test_virtual_method_override_edge(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            class Base {
            public:
                virtual int size();
            };
            class Mid : public Base {
            };
            class Leaf : public Mid {
            public:
                int size() override;
            };
            """,
        )
        leaf_size = [r for r in records(idx, "Leaf::size")][0]
        base_size = [r for r in records(idx, "Base::size")][0]
        overrides = [
            (e.src, e.dst) for e in idx.edges if e.kind is EdgeKind.OVERRIDES
        ]
        assert (leaf_size.symbol_id, base_size.symbol_id) in overrides

    def test_signature_mismatch_is_not_an_override(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_h="""\
            class Base {
            public:
                virtual int size();
            };
            class Leaf : public Base {
            public:
                int size(int grow);
            };
            """,
        )
        assert not [e for e in idx.edges if e.kind is EdgeKind.OVERRIDES]


class TestResilience:
    def test_malformed_unit_counts_one_error_and_keeps_others(self, tmp_path):
        idx = index_source(
            tmp_path,
            good_dot_h="class Fine {\n};\n",
            bad_dot_cpp="class ) openbrace {{{ ;;; namespace\n",
        )
        assert idx.parse_error_count == 1
        assert only(idx, "Fine").kind is SymbolKind.CLASS

    def test_directives_and_includes_recorded(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_cpp="""\
            #include "dep.h"
            #include <vector>
            int x = 1;
            """,
        )
        assert idx.includes["a.cpp"] == ["dep.h", "vector"]
        assert only(idx, "x").kind is SymbolKind.VARIABLE
