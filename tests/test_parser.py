"""The parser against the frozen copy of the parser it replaced, and
hand-written sources pinning single parser behaviors.

`refparser.py` is the parser before one bracket walker, one qualified-name
reader and one declarator scan replaced its separate loops. Both must give
the same `ParsedUnit` (symbols, containment, pending bases and calls,
includes, error count) on the corpus, the fixtures, a catalogue of
constructs and token soup. Five differences are declared, and the
differential tests read the reference their way:

1. ``>>`` is two ``>`` everywhere, so it closes two template levels. The
   reference is given the text with each ``>>`` respelled ``> >``; on
   arbitrary text, where a ``>>`` may sit in a comment or literal, inputs
   holding one are skipped.
2. The file record ends at the lexer's last line, counted at ``\\n`` only.
   On text with another line break that ``str.splitlines`` knows, the
   reference's file record is given that end line.
3. Declarators after a variable's initializer are recorded: ``int a = 1,
   b;`` names ``b`` too. The reference skipped the rest of the statement.
4. After a top-level '=' in a parameter, '<' and '>' are comparisons, so
   ``void f(int x = a < b, int y)`` has two parameters, not one.
5. A parenthesised declarator's name is dropped from the signature:
   ``void f(int (*fn)(int))`` has signature ``(int ( * ) ( int ))``. The
   reference kept ``fn``, as it is not the parameter's last token.

For 3 to 5 the reference is compared with this parser run with those
three switched off (``reference_reading``): later declarators are still
read, but not recorded, parameters are split the reference's way, and no
name is looked for inside parentheses. On the corpus and the fixtures
none fires, so there the parser itself is compared too.
"""

import contextlib
import pathlib
import textwrap

from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import corpusgen
import refparser
import tokenrows
from cppatlas.cxx import parser
from cppatlas.cxx.lexer import lex
from cppatlas.index import IndexContainer, build_index, persist_index
from cppatlas.intent import build_intent_index
from cppatlas.model import EdgeKind, SymbolKind
from cppatlas.repo import Repository, SourceUnit, load_repository

DATA = pathlib.Path(__file__).parent / "data"
# line breaks of str.splitlines other than "\n" ("\r\n" counts once)
OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def flat(parsed) -> tuple:
    """A ParsedUnit as plain values: the two modules' dataclasses never
    compare equal, the model records inside them do."""
    return (
        parsed.path,
        parsed.symbols,
        parsed.contains,
        [(b.derived, b.base_text) for b in parsed.pending_bases],
        [(c.caller, c.callee_text, c.ctor_style, c.line) for c in parsed.pending_calls],
        parsed.includes,
        parsed.error_count,
    )


def lexer_lines(text: str) -> int:
    return text.count("\n") + (0 if text.endswith("\n") else 1)


def respell(text: str) -> str:
    """Each ``>>`` token as ``> >``, for text with no ``>>=`` and no ``>``
    in a comment or literal."""
    while ">>" in text:
        text = text.replace(">>", "> >")
    return text


def parse(text: str, path: str = "a.h"):
    return parser.parse_unit(SourceUnit.make(path, text))


def reference_split(texts: list[str], sep: str) -> list[tuple[int, int]]:
    """The reference's ``_split_top_level`` in the parser's form: it splits
    token rows into groups, the parser's splits texts into index ranges."""
    ranges, start = [], 0
    # the reference reads only the texts
    rows = tokenrows.rows(texts, [""] * len(texts))
    for group in refparser._split_top_level(rows, sep):
        ranges.append((start, start + len(group)))
        start += len(group) + 1
    return ranges


def columns(text: str) -> tuple[list[str], list[str]]:
    lexed = lex(text)
    return lexed.tokens, lexed.kinds


@contextlib.contextmanager
def reference_reading():
    """This parser with declared differences 3 to 5 switched off."""
    read = parser._Parser._declarators_after_initializer

    def read_unrecorded(self, scope, start_line):
        self.add_symbol = lambda *args, **fields: 0
        try:
            read(self, scope, start_line)
        finally:
            del self.add_symbol

    with mock.patch.object(
        parser._Parser, "_declarators_after_initializer", read_unrecorded
    ), mock.patch.object(parser, "_split_top_level", reference_split), \
            mock.patch.object(parser, "_declarator_name", lambda *_: None):
        yield


def assert_same(text: str, ref_text: str | None = None, path: str = "a.h",
                firing: bool = True):
    """The parser on ``text`` against the reference on ``ref_text``
    (default: the same text), with declared differences 2 to 5 applied;
    without ``firing``, differences 3 to 5 must not change the result."""
    got = parse(text, path)
    with reference_reading():
        read_as_before = parse(text, path)
    want = refparser.parse_unit(SourceUnit.make(path, ref_text or text))
    if any(ch in text for ch in OTHER_BREAKS):
        root = want.symbols[0]
        location = root.location._replace(end_line=lexer_lines(text))
        want.symbols[0] = root._replace(location=location)
    assert flat(read_as_before) == flat(want), repr(text)
    if not firing:
        assert flat(got) == flat(read_as_before), repr(text)


# --- differential: corpus, fixtures, catalogue, soup --------------------


@pytest.mark.parametrize("first", range(0, 200, 20))
def test_parsers_agree_on_corpusgen(first):
    for seed in range(first, first + 20):
        for path, content in corpusgen.generate(seed).files.items():
            if SourceUnit.make(path, content).kind in ("header", "source"):
                assert_same(content, path=path, firing=False)


def test_parsers_agree_on_fixtures():
    paths = [p for p in sorted(DATA.rglob("*")) if p.is_file()]
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        unit = SourceUnit.make(path.relative_to(DATA).as_posix(), text)
        if unit.kind in ("header", "source"):
            assert_same(unit.content, path=unit.path, firing=False)


# one snippet per construct the parser docstring names, then constructs
# corpusgen never writes, then recovery paths
CATALOGUE = {
    "nested_namespaces": "namespace a { namespace b { int x = 1; } }\n"
    "namespace c::d { void f(); }\n",
    "anonymous_namespace": "namespace {\nint hidden = 2;\nvoid helper() {}\n}\n",
    "class_definition": "class Widget {\npublic:\n    int size() const;\n"
    "private:\n    int n_;\n};\n",
    "struct_definition": "struct Point {\n    int x, y;\n};\n",
    "enum_definition": "enum Color { RED, GREEN };\nenum Mode;\n",
    "forward_declarations": "class Later;\nstruct Soon;\n"
    "template <class T> class Box;\n",
    "free_functions": "int add(int a, int b) { return a + b; }\n"
    "void log(const char* msg = \"x\");\n",
    "member_functions": "class Calc {\n"
    "    int add(int a, int b) { return plus(a, b); }\n"
    "    virtual void reset() = 0;\n    int get() const override;\n};\n",
    "constructors": "class Box {\npublic:\n    Box();\n"
    "    explicit Box(int n) : n_(n) {}\n"
    "    Box(const Box& other) : Box(other.n_) {}\n    int n_;\n};\n"
    "Box::Box() : n_(0) {}\n",
    "destructors": "class Box {\npublic:\n    virtual ~Box();\n};\n"
    "Box::~Box() { release(); }\n",
    "inheritance_lists": "class Base {};\nclass Mid : public Base {};\n"
    "class Leaf final : protected virtual Mid, private ns::Other<int> {};\n",
    "template_class": "template <typename T, int N = 4>\n"
    "class Buffer {\n    T data[N];\n};\n",
    "template_functions": "template <typename T>\n"
    "T clamp(T v, T lo, T hi) { return v < lo ? lo : v; }\n"
    "template <class It> void sort(It first, It last);\n",
    "namespace_scope_variables": "namespace cfg {\nint retries = 3;\n"
    "const char* name = \"x\", *alias;\nstatic double ratio{0.5};\n}\n",
    "class_scope_variables": "struct Conf {\n    static const int limit = 10;\n"
    "    int a, b;\n    bool on{true};\n};\n",
    "calls_in_bodies": "void run() {\n    helper();\n    util::log(1);\n"
    "    obj.method(2);\n    ptr->go();\n    auto* w = new Widget(3);\n"
    "    Widget local(4);\n    Widget braced{5};\n    if (check()) { retry(); }\n}\n",
    "out_of_line_definition": "namespace app {\nclass Search { void run(); };\n"
    "void Search::run() { scan(); }\n}\n",
    "friend_with_body": "class Money {\n    friend bool operator==(const Money& a, "
    "const Money& b) { return a.v == b.v; }\n    friend class Bank;\n    int v;\n};\n",
    "default_and_delete": "class Once {\n    Once() = default;\n"
    "    Once(const Once&) = delete;\n    Once& operator=(const Once&) = delete;\n"
    "    ~Once() = default;\n};\n",
    "noexcept_and_throw": "void a() noexcept;\nvoid b() noexcept(true) {}\n"
    "void c() throw();\nvoid d() throw(int) {}\n",
    "requires_clause": "template <typename T>\n"
    "void only(T v) requires (sizeof(T) > 1) { use(v); }\n"
    "template <typename T> requires Small<T> void tiny(T);\n",
    "extern_c_block": "extern \"C\" {\nint c_api(int);\nvoid c_free(void* p);\n}\n"
    "extern \"C\" int single(void);\n",
    "operators": "struct Fn {\n    int operator()(int x) const { return x; }\n"
    "    int& operator[](unsigned i);\n    Fn& operator<<(int v);\n"
    "    bool operator<(const Fn& o) const;\n};\n"
    "std::ostream& operator<<(std::ostream& os, const Fn& f);\n",
    "attributes": "[[nodiscard]] int value();\nclass [[deprecated]] Old {};\n"
    "[[maybe_unused]] static int unused = 0;\n",
    "alignas": "struct alignas(16) Vec { float v[4]; };\nalignas(8) int aligned;\n",
    "union": "union Number { int i; float f; };\nunion { int raw; } anon;\n"
    "int after_union;\n",
    "enum_class_with_base": "enum class Level : int { Low, High };\n"
    "enum struct Kind : unsigned char;\n",
    "typedef_and_using": "typedef unsigned long size_type;\nusing Handle = int*;\n"
    "using namespace std;\ntemplate <typename T> using Vec = std::vector<T>;\n"
    "int after_alias;\n",
    "static_assert": "static_assert(sizeof(int) == 4, \"int\");\n"
    "struct S { static_assert(true); int x; };\n",
    "namespace_alias": "namespace fs = std::filesystem;\n"
    "namespace very::deep { int v; }\nnamespace vd = very::deep;\n",
    "brace_initialised_ctor_initializers": "class Holder {\n"
    "    Holder(int n) : items_{n, 2}, name_{\"x\"}, base_(n) { init(); }\n"
    "    Holder() : Holder{0} {}\n    Holder(char c) : Base<int>{c} {}\n"
    "    std::vector<int> items_;\n};\n",
    "literal_vexing_parse": "Widget w(\"name\");\nWidget v(3);\nWidget c('c');\n"
    "Widget f(int);\nWidget g();\n",
    "unbalanced_open_braces": "void open() {\n    if (x) {\n        call();\n}\n"
    "class Broken {\n",
    "unbalanced_closers": "}\n};\nvoid later();\n)\n]\nint tail;\n",
    "scope_operator_before_no_name": "namespace a:: { int v; }\n"
    "class B:: { int w; };\nclass C : public D:: { };\n"
    "void f() { a :: (1); b::c:: (2); }\n",
    "comparison_read_as_template_arguments": "int a < b;\nT<int c;\nint d;\n"
    "x < y { 1 };\nint e;\n",
    "operator_name_runaway": "bool operator {};\nint operator + ;\nint after;\n",
    "friend_before_a_stray_closer": "friend ) void f();\nint after;\n"
    "friend ( ] ;\nint last;\n",
    "qualified_unnamed_parameters": "void take(std::string, ns::Widget, const ::G&);\n",
    "trailing_return_then_specifier": "struct S {\n    virtual auto f() -> int = 0;\n"
    "    auto g() -> S& = default;\n};\nauto h() -> int = delete;\n",
    "requires_clause_then_delete": "template <class T>\n"
    "void f(T) requires C<T> = delete;\n"
    "int after;\n",
    "template_base_closed_by_shift": "namespace n {\n"
    "class D : public B<std::vector<int>> { void f(); };\nvoid g();\n}\n",
    "trailing_return_closed_by_shift": "auto h() -> std::map<int, std::vector<int>> "
    "{ return {}; }\nvoid k();\n",
    "parameters_closed_by_shift": "void f(std::map<int, std::vector<int>> m, int x);\n",
    "variables_closed_by_shift": "std::map<int, std::vector<int>> a, b;\n",
    "shift_in_a_body": "int shift(int v) { return v >> 2; }\nvoid after();\n",
    "operator_names_then_more_tokens": "struct S {\n"
    "    int operator()<int>(int) const;\n    int operator[] x, operator() y;\n"
    "    S& operator=(const S&);\n};\nX operator+ (X, X);\n",
    "enum_left_open": "int before;\nenum E { A, B\n",
    "parameters_left_open": "void f(int a,\n",
    "parenthesised_declarators": "void on(int (*fn)(int), double scale);\n"
    "void on(int (*)(int), double) {}\nvoid grid(int (&cells)[3], int (*rows)[4]);\n"
    "void member(void (C::*pm)(), std::function<void(int*p)> cb);\n",
}


# the catalogue entries that declared difference 3, 4 or 5 changes
FIRING = {"namespace_scope_variables", "parenthesised_declarators"}


@pytest.mark.parametrize("name", CATALOGUE)
def test_parsers_agree_on_catalogue(name):
    text = CATALOGUE[name]
    assert len(parse(text).symbols) > 1
    assert_same(text, respell(text), firing=name in FIRING)


SOUP = (
    "namespace class struct enum union template typename using typedef "
    "friend virtual override final const static inline explicit operator "
    "public private protected extern int void auto noexcept throw requires "
    "default delete new return alignas static_assert decltype "
    "A B x f std vector 0 1 \"s\" 'c' < > >> :: ( ) { } [ ] ; , = ~ -> & * . :"
).split() + [
    "\n", "// doc\n", "/* doc */", "extern \"C\"", "void f(", "int x", "class A {",
    "struct B : public A", "template <typename T>", "} ;", ") {", "x.y(", "new T(",
    "T v(1);", "= 0 ;", "= default ;", "operator()", "operator<<", "~A()",
    "[[nodiscard]]", ": m(1), n{2}", "-> V<W<int>>",
]


@settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.lists(st.sampled_from(SOUP), max_size=40).map(" ".join))
def test_parsers_agree_on_token_soup(text):
    assert_same(text, respell(text))


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_parsers_agree_on_arbitrary_text(text):
    assume(">>" not in text)
    assert_same(text)


@pytest.mark.parametrize("source", ["toyrepo", "motivation", 0, 7, 42, 101])
def test_index_bytes_do_not_depend_on_the_parser(source, tmp_path, monkeypatch):
    if isinstance(source, str):
        repo = load_repository(DATA / source)
    else:
        files = corpusgen.generate(source).files
        units = tuple(SourceUnit.make(path, text) for path, text in files.items())
        repo = Repository("mem", units)
    written = []
    for parse_unit in (parser.parse_unit,
                       lambda unit, signatures: refparser.parse_unit(unit)):
        monkeypatch.setattr("cppatlas.index.parse_unit", parse_unit)
        index = build_index(repo)
        path = tmp_path / f"{len(written)}.caidx"
        persist_index(IndexContainer(index, build_intent_index(index)), path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_a_build_normalizes_each_parameter_list_once(monkeypatch):
    """Within one build each distinct parameter list, by its token texts
    and kinds, is normalized once, and nothing of the memo outlives the
    build: a second build normalizes each again. A parse given no dict
    memoizes within its unit only, and gives what parses sharing one dict
    give."""
    files = {}
    for seed in (0, 7):  # two trees side by side repeat their lists
        files.update({f"s{seed}/{path}": text
                      for path, text in corpusgen.generate(seed).files.items()})
    units = [SourceUnit.make(path, text) for path, text in sorted(files.items())]
    normalize = parser.normalize_signature
    calls = []

    def counted(texts, kinds):
        calls.append((tuple(texts), tuple(kinds)))
        return normalize(texts, kinds)

    monkeypatch.setattr(parser, "normalize_signature", counted)
    direct = [parser.parse_unit(unit) for unit in units]
    lists = set(calls)
    assert len(calls) > len(lists)
    for _ in range(2):
        calls.clear()
        build_index(Repository("mem", tuple(units)))
        assert len(calls) == len(set(calls)) == len(lists)
    calls.clear()
    signatures = {}
    memoized = [parser.parse_unit(unit, signatures) for unit in units]
    assert len(calls) == len(signatures) == len(lists)
    assert [flat(pu) for pu in memoized] == [flat(pu) for pu in direct]


# --- declared difference 1: ">>" closes two template levels -------------


def both_spellings(text: str):
    """Parse ``text``, which spells closers ``>>``, and check that the
    ``> >`` spelling gives equal records."""
    parsed = parse(text)
    assert flat(parse(respell(text))) == flat(parsed)
    return parsed


def names(parsed) -> list[str]:
    return [s.qualified_name for s in parsed.symbols[1:]]


def test_shift_closes_a_template_base_list():
    parsed = both_spellings(
        "namespace n {\n"
        "class D : public B<std::vector<int>> { void f(); };\n"
        "void g();\n"
        "}\n"
        "struct S : Base<A<int>>, Other { int v; };\n"
        "void after();\n"
    )
    assert names(parsed) == ["n", "n::D", "n::D::f", "n::g", "S", "S::v", "after"]
    assert parsed.symbols[1].location.end_line == 4
    assert [b.base_text for b in parsed.pending_bases] == ["B", "Base", "Other"]
    assert parsed.error_count == 0


def test_shift_closes_a_trailing_return_type():
    parsed = both_spellings(
        "auto h() -> std::map<int, std::vector<int>> { return {}; }\nvoid k();\n"
    )
    assert names(parsed) == ["h", "k"]
    assert parsed.symbols[1].is_definition


def test_shift_closes_a_parameter_type():
    parsed = both_spellings(
        "void f(std::map<int, std::vector<int>> m, int x);\n"
        "void f(std::map<int, std::vector<int>> m, int x) {}\n"
    )
    want = "(std::map < int , std::vector < int > >, int)"
    assert [s.signature for s in parsed.symbols[1:]] == [want, want]
    typed = columns("std::map<int, std::vector<int>> m, int x")
    assert parser.normalize_signature(*typed) == want


def test_shift_closes_template_parameters():
    parsed = both_spellings("template <typename T = std::vector<int>> void t(T);\n")
    assert parsed.symbols[1].template_params == "<typename T = std::vector < int >>"
    assert parsed.symbols[1].kind is SymbolKind.TEMPLATE_FUNCTION


def test_shift_closes_a_variable_type():
    parsed = both_spellings("std::map<int, std::vector<int>> a, b;\n")
    assert names(parsed) == ["a", "b"]
    assert {s.kind for s in parsed.symbols[1:]} == {SymbolKind.VARIABLE}


# --- declared difference 2: lines end at "\n" only -----------------------


@pytest.mark.parametrize(
    "brk", list(OTHER_BREAKS), ids=[hex(ord(c)) for c in OTHER_BREAKS]
)
def test_file_record_counts_lines_like_the_lexer(brk):
    parsed = parse(f"void a();{brk}int x;\nvoid b();\n")
    assert [s.location.start_line for s in parsed.symbols[1:]] == [1, 1, 2]
    assert parsed.symbols[0].location.end_line == 2


@pytest.mark.parametrize(
    "text, lines", [("", 1), ("\n", 1), ("int a;", 1), ("int a;\n\n", 2),
                    ("int a;\nint b;", 2), ("int a;\r\nint b;\r\n", 2)]
)
def test_file_record_line_count(text, lines):
    assert parse(text).symbols[0].location.end_line == lines


# --- declared difference 3: declarators after an initializer -------------


@pytest.mark.parametrize(
    "text, want, reference",
    [
        ("int a = 1, b = 2;\n", ["a", "b"], ["a"]),
        ("int c, d = 3, e;\n", ["c", "d", "e"], ["c", "d"]),
        ("const char* name = \"x\", *alias, &ref = name;\n",
         ["name", "alias", "ref"], ["name"]),
        # an initializer's parens, brackets and braces hold their commas
        ("int x = f(a, b), y = v[g(1, 2)], z = {3, 4}, w;\n",
         ["x", "y", "z", "w"], ["x"]),
        # an array or a call after the name is not read as a declarator;
        # nor is a name after a comma in template arguments
        ("int p = 1, q[3], r(4), s = N<A, B>::v, t;\n",
         ["p", "s", "t"], ["p"]),
        # a bracket the declarator opens holds the ';' as skip_statement does
        ("int a = 1, b[2;\nint c;\n", ["a"], ["a"]),
        ("struct S {\n    static const int lo = 0, hi = 9;\n};\nint after;\n",
         ["S", "S::lo", "S::hi", "after"], ["S", "S::lo", "after"]),
        ("namespace n { int u = 1, v; }\nvoid g();\n",
         ["n", "n::u", "n::v", "g"], ["n", "n::u", "g"]),
    ],
)
def test_declarators_after_an_initializer_are_recorded(text, want, reference):
    parsed = parse(text)
    assert names(parsed) == want
    assert parsed.error_count == 0
    assert names(refparser.parse_unit(SourceUnit.make("a.h", text))) == reference
    assert_same(text)


# --- declared difference 4: '<' in a default argument ---------------------


@pytest.mark.parametrize(
    "params, want, reference",
    [
        ("int x = a < b, int y", "(int, int)", "(int)"),
        ("int x = a < b, int y = c > d, char z", "(int, int, char)",
         "(int, char)"),
        ("bool x = n<3, int y", "(bool, int)", "(bool)"),
        # the next parameter's '<' opens template arguments again
        ("int x = a < b, std::map<int, int> m", "(int, std::map < int , int >)",
         "(int)"),
        # before the '=', a '<' still opens template arguments
        ("std::map<int, int> m = {}, int y", "(std::map < int , int >, int)",
         "(std::map < int , int >, int)"),
        # the reference's '<' also left the parenthesis open
        ("int x = f(a < b, c), int y", "(int, int)", "(int)"),
    ],
)
def test_comparison_in_a_default_argument_keeps_later_parameters(
    params, want, reference
):
    typed = columns(params)
    assert parser.normalize_signature(*typed) == want
    assert refparser.normalize_signature(tokenrows.rows(*typed)) == reference
    text = f"void f({params});\nvoid f({params}) {{}}\n"
    parsed = parse(text)
    assert [s.signature for s in parsed.symbols[1:]] == [want, want]
    assert_same(text)


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

    @pytest.mark.parametrize("opener, closer, levels", [
        ("namespace n {\n", "}\n", 500),
        ("struct s {\n", "};\n", 3000),
        ('extern "C" {\n', "}\n", 1500),
    ])
    def test_scopes_nested_past_the_limit_are_one_error(
            self, tmp_path, opener, closer, levels):
        limit = parser._MAX_DEPTH
        text = opener * levels + "int deepest();\n" + closer * levels
        idx = index_source(tmp_path / "deep", deep_dot_h=text + "class After {};\n")
        assert idx.parse_error_count == 1
        assert only(idx, "After").kind is SymbolKind.CLASS
        assert not any(r.name == "deepest" for r in idx.symbols)
        # the scope past the limit is recorded, but not what it holds
        names = [r.qualified_name.count("::") for r in idx.symbols[1:-1]]
        assert names == list(range(len(names)))
        assert len(names) == (0 if opener.startswith("extern") else limit + 1)
        intent = build_intent_index(idx)
        persist_index(IndexContainer(idx, intent), tmp_path / "deep.caidx")

    def test_scopes_nested_to_the_limit_are_read_whole(self):
        limit = parser._MAX_DEPTH
        parsed = parse("namespace n {\n" * limit + "int deepest();\n" + "}\n" * limit)
        assert parsed.error_count == 0
        assert parsed.symbols[-1].qualified_name == "n::" * limit + "deepest"
        unclosed = parse("namespace n {\n" * (limit + 1))
        assert unclosed.error_count == limit + 1

    def test_directives_and_includes_recorded(self, tmp_path):
        idx = index_source(
            tmp_path,
            a_dot_cpp="""\
            #include "dep.h"
            #include <vector>
            int x = 1;
            """,
        )
        assert idx.includes["a.cpp"] == ("dep.h", "vector")
        assert only(idx, "x").kind is SymbolKind.VARIABLE


# --- declared difference 5: names in parenthesised declarators -----------


@pytest.mark.parametrize(
    "params, want, reference",
    [
        ("int (*fn)(int), double", "(int ( * ) ( int ), double)",
         "(int ( * fn ) ( int ), double)"),
        ("int (&r)[3]", "(int ( & ) [ 3 ])", "(int ( & r ) [ 3 ])"),
        ("int (*a)[3]", "(int ( * ) [ 3 ])", "(int ( * a ) [ 3 ])"),
        ("int (&&r)", "(int ( && ))", "(int ( && r ))"),
        ("void (C::*pm)()", "(void ( C::* ) ( ))", "(void ( C::* pm ) ( ))"),
        ("std::map<int, int> (*f)(int)", "(std::map < int , int > ( * ) ( int ))",
         "(std::map < int , int > ( * f ) ( int ))"),
        # no name, a name after a qualifier, a keyword, a group inside
        # template arguments or inside another group: nothing is dropped
        ("int (*)(int)", "(int ( * ) ( int ))", "(int ( * ) ( int ))"),
        ("int (* const p)", "(int ( * const p ))", "(int ( * const p ))"),
        ("void (*const)(int)", "(void ( * const ) ( int ))",
         "(void ( * const ) ( int ))"),
        ("std::function<void(int*p)> cb", "(std::function < void ( int * p ) >)",
         "(std::function < void ( int * p ) >)"),
        ("(int (*fn)(int))", "(( int ( * fn ) ( int ) ))",
         "(( int ( * fn ) ( int ) ))"),
        ("int a[3], char *p", "(int [ 3 ], char *)", "(int [ 3 ], char *)"),
    ],
)
def test_parenthesised_declarator_names_are_dropped(params, want, reference):
    typed = columns(params)
    assert parser.normalize_signature(*typed) == want
    assert refparser.normalize_signature(tokenrows.rows(*typed)) == reference
    text = f"void f({params});\nvoid f({params}) {{}}\n"
    parsed = parse(text)
    assert [s.signature for s in parsed.symbols[1:]] == [want, want]
    assert_same(text, firing=want != reference)
