import json
import math
import pathlib
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppatlas.errors import (
    BadRequest,
    EmptyIndex,
    ProviderUnavailable,
    SnapshotMismatch,
)
from cppatlas.index import IndexContainer, build_index, load_index, persist_index
from cppatlas.intent import (
    CommandEmbeddingProvider,
    HashEmbeddingProvider,
    IntentDoc,
    IntentIndex,
    build_intent_index,
    localize,
    query_code_intent,
    split_identifier,
    summarize_artifact,
    tokenize,
)
from cppatlas.queries import snippet_for
from cppatlas.repo import IssueDescription, Repository, SourceUnit

import corpusgen
import refintent


class TestTokenizer:
    def test_snake_case_split(self):
        assert split_identifier("last_result_") == ["last", "result"]

    def test_camel_case_split(self):
        assert split_identifier("computeTotalSum") == [
            "compute",
            "total",
            "sum",
        ]

    def test_acronym_boundary(self):
        assert split_identifier("parseHTTPHeader") == [
            "parse",
            "http",
            "header",
        ]

    def test_digits_kept_separate(self):
        assert split_identifier("sha256sum") == ["sha", "256", "sum"]

    def test_tokenize_qualified_text(self):
        assert tokenize("calc::Calculator::add(int, int)") == [
            "calc",
            "calculator",
            "add",
            "int",
            "int",
        ]


class TestHashProvider:
    def test_deterministic_unit_vectors(self):
        provider = HashEmbeddingProvider()
        a = provider.embed("subtract two numbers")
        b = provider.embed("subtract two numbers")
        assert a == b
        assert len(a) == 256
        assert math.isclose(float(np.linalg.norm(a)), 1.0, abs_tol=1e-9)

    def test_empty_text_is_zero_vector(self):
        provider = HashEmbeddingProvider(dim=16)
        assert set(provider.embed("")) == {0.0}

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=40))
    def test_never_exceeds_unit_norm(self, text):
        vec = HashEmbeddingProvider(dim=32).embed(text)
        assert float(np.linalg.norm(vec)) <= 1.0 + 1e-9

    def test_name_encodes_dimension(self):
        assert HashEmbeddingProvider(dim=64).name == "hash-tf-64"


class TestCommandProvider:
    def _provider(self, script: str, dim: int = 4) -> CommandEmbeddingProvider:
        return CommandEmbeddingProvider(
            (sys.executable, "-c", script), name="scripted", dim=dim
        )

    def test_round_trip_and_renormalization(self):
        script = (
            "import json,sys;"
            "texts=json.load(sys.stdin)['texts'];"
            "print(json.dumps({'vectors': [[2.0,0.0,0.0,0.0] for _ in texts]}))"
        )
        provider = self._provider(script)
        vec = provider.embed("anything")
        assert vec == (1.0, 0.0, 0.0, 0.0)

    def test_failure_surfaces_as_provider_unavailable(self):
        bad_exit = self._provider("import sys;sys.exit(9)")
        with pytest.raises(ProviderUnavailable):
            bad_exit.embed("x")
        bad_shape = self._provider(
            "import json,sys;json.load(sys.stdin);"
            "print(json.dumps({'vectors': [[1.0]]}))"
        )
        with pytest.raises(ProviderUnavailable):
            bad_shape.embed("x")
        not_finite = self._provider(
            "import json,sys;json.load(sys.stdin);"
            "print(json.dumps({'vectors': [[1.0, float('nan'), 0.0, 0.0]]}))"
        )
        with pytest.raises(ProviderUnavailable):
            not_finite.embed("x")
        missing = CommandEmbeddingProvider(
            ("/no/such/embedder",), name="gone", dim=4
        )
        with pytest.raises(ProviderUnavailable):
            missing.embed("x")


class TestIntentIndex:
    def test_one_doc_per_real_symbol(self, toy_index, toy_intent):
        real = [r for r in toy_index.symbols if not r.is_synthetic]
        assert len(toy_intent.docs) == len(real)
        assert [d.symbol_id for d in toy_intent.docs] == [
            r.symbol_id for r in real
        ]

    def test_dict_round_trip(self, toy_index, toy_intent):
        clone = IntentIndex.from_dict(toy_intent.to_dict(), toy_index.symbols)
        assert clone.to_dict() == toy_intent.to_dict()

    def test_query_ranks_relevant_symbol_first(self, toy_intent):
        hits = query_code_intent(
            toy_intent, "subtract difference wrong result", k=5
        )
        assert hits[0]["qualified_name"].startswith("calc::Calculator")
        assert any(
            "subtract" in h["qualified_name"] for h in hits[:3]
        )

    def test_scores_descend_with_deterministic_ties(self, toy_intent):
        hits = query_code_intent(toy_intent, "calculator", k=50)
        scores = [h["score"] for h in hits]
        assert scores == sorted(scores, reverse=True)
        for a, b in zip(hits, hits[1:]):
            if a["score"] == b["score"]:
                assert (a["qualified_name"], a["symbol_id"]) < (
                    b["qualified_name"],
                    b["symbol_id"],
                )

    def test_k_bounds_results(self, toy_intent):
        assert len(query_code_intent(toy_intent, "calc", k=3)) == 3
        for k in (0, -1):
            with pytest.raises(BadRequest):
                query_code_intent(toy_intent, "calc", k=k)

    def test_provider_name_must_match(self, toy_intent):
        with pytest.raises(ProviderUnavailable):
            query_code_intent(
                toy_intent, "calc", provider=HashEmbeddingProvider(dim=64)
            )

    def test_empty_index_rejected(self, toy_index):
        empty = IntentIndex(
            provider_name="hash-tf-256",
            dim=256,
            repo_snapshot=toy_index.repo_snapshot,
            docs=(),
        )
        with pytest.raises(EmptyIndex):
            query_code_intent(empty, "anything")


class TestLocalize:
    def issue(self, title, body=""):
        return IssueDescription.from_text(title, body)

    def test_intersection_mode(self, toy_index, toy_intent):
        got = localize(
            toy_index,
            toy_intent,
            self.issue(
                "subtract returns the wrong result",
                "`Calculator::subtract` adds instead of subtracting",
            ),
        )
        assert got["mode"] == "intersection"
        assert got["candidates"][0]["qualified_name"] == (
            "calc::Calculator::subtract"
        )
        assert got["subgraph_nodes"]

    def test_intent_only_fallback_without_mentions(
        self, toy_index, toy_intent
    ):
        got = localize(
            toy_index,
            toy_intent,
            self.issue("something about subtraction results"),
        )
        assert got["mode"] == "intent_only"
        assert got["candidates"]

    def test_snapshot_mismatch_detected(self, toy_index, toy_intent):
        stale = IntentIndex(
            provider_name=toy_intent.provider_name,
            dim=toy_intent.dim,
            repo_snapshot="f" * 64,
            docs=toy_intent.docs,
        )
        with pytest.raises(SnapshotMismatch):
            localize(toy_index, stale, self.issue("anything"))


class TestRetrievalOracle:
    """Top-k must agree with an exhaustive cosine scan."""

    def brute_force(self, intent, text, k):
        # same float64 matrix product as the query path, so exact ties
        # break identically; the scan checks ranking, slicing and packaging
        provider = HashEmbeddingProvider()
        q = np.asarray(provider.embed(text), dtype=np.float64)
        matrix = np.asarray([d.vector for d in intent.docs], dtype=np.float64)
        scores = matrix @ q
        scored = [
            (-float(s), d.qualified_name, d.symbol_id)
            for d, s in zip(intent.docs, scores)
        ]
        scored.sort()
        return [
            {"symbol_id": sid, "qualified_name": name, "score": -neg}
            for neg, name, sid in scored[:k]
        ]

    def test_agrees_with_exhaustive_scan(self, toy_intent):
        queries = [
            "subtract numbers",
            "scientific calculator power",
            "clamp a value between bounds",
            "flavor string",
            "constructor initial value",
        ]
        for k in (1, 3, 10):
            for text in queries:
                got = query_code_intent(toy_intent, text, k=k)
                want = self.brute_force(toy_intent, text, k)
                assert [
                    (g["symbol_id"], round(g["score"], 12)) for g in got
                ] == [(w["symbol_id"], round(w["score"], 12)) for w in want]

    def test_self_query_scores_one(self, toy_intent):
        doc = max(toy_intent.docs, key=lambda d: len(d.text))
        hits = query_code_intent(toy_intent, doc.text, k=len(toy_intent.docs))
        mine = next(h for h in hits if h["symbol_id"] == doc.symbol_id)
        assert abs(mine["score"] - 1.0) <= 1e-6


def test_command_provider_through_index_build(toy_index):
    # an external embedder that just hashes like the built-in one
    script = (
        "import json,sys,hashlib;"
        "data=json.load(sys.stdin);"
        "import re\n"
        "def tok(t):\n"
        "    return [w.lower() for w in re.findall("
        "r'[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+', t)]\n"
        "def emb(t):\n"
        "    v=[0.0]*8\n"
        "    for w in tok(t):\n"
        "        v[int(hashlib.sha1(w.encode()).hexdigest(),16)%8]+=1\n"
        "    return v\n"
        "print(json.dumps({'vectors':[emb(t) for t in data['texts']]}))"
    )
    provider = CommandEmbeddingProvider(
        (sys.executable, "-c", script), name="mini-hash-8", dim=8
    )
    intent = build_intent_index(toy_index, provider)
    assert intent.provider_name == "mini-hash-8"
    assert intent.dim == 8
    hits = query_code_intent(intent, "subtract", k=3, provider=provider)
    assert hits


class _RecordingProvider:
    """A provider that is not the hash embedder, though it embeds like it,
    and records the texts it is asked to embed one at a time."""

    def __init__(self):
        self.inner = HashEmbeddingProvider()
        self.name, self.dim = "recording-hash", self.inner.dim
        self.embedded: list[str] = []

    def embed(self, text):
        self.embedded.append(text)
        return self.inner.embed(text)

    def embed_many(self, texts):
        return self.inner.embed_many(texts)


def test_other_providers_are_queried_through_embed(toy_index, toy_intent):
    provider = _RecordingProvider()
    intent = build_intent_index(toy_index, provider)
    text = "subtract two integers"
    hits = query_code_intent(intent, text, k=7, provider=provider)
    assert provider.embedded == [text]
    assert hits == query_code_intent(toy_intent, text, k=7)


# --- differential: the memoized build and matrix query against the frozen
# tokenizer, summarizer, embedder and full sort in refintent.py


def _bits(vector) -> list[str]:
    return [float(x).hex() for x in vector]


def _repo_index(files: dict[str, str]):
    units = tuple(SourceUnit.make(path, text) for path, text in files.items())
    return build_index(Repository("mem", units))


def _assert_docs_match_reference(index):
    intent = build_intent_index(index)
    provider = refintent.HashEmbeddingProvider()
    real = [r for r in index.symbols if not r.is_synthetic]
    assert [d.symbol_id for d in intent.docs] == [r.symbol_id for r in real]
    assert intent.matrix.shape == (len(real), intent.dim)
    assert intent.matrix.dtype == np.float64
    assert intent.matrix.flags["C_CONTIGUOUS"]
    for row, (doc, rec) in enumerate(zip(intent.docs, real)):
        snippet = refintent.snippet_for(index, rec)
        assert snippet_for(index, rec) == snippet
        text = refintent.summarize_artifact(rec, snippet)
        assert doc.text == text == summarize_artifact(rec, snippet)
        want = _bits(provider.embed(text))
        assert _bits(doc.vector) == want
        assert _bits(intent.matrix[row]) == want
        assert _bits(HashEmbeddingProvider().embed(text)) == want
        assert tokenize(text) == refintent.tokenize(text)
        assert all(type(x) is float for x in doc.vector)
    return intent


def test_docs_match_reference_on_fixtures(toy_index, motivation_index):
    _assert_docs_match_reference(toy_index)
    _assert_docs_match_reference(motivation_index)


@pytest.mark.parametrize("first", range(0, 50, 10))
def test_docs_match_reference_on_corpusgen(first):
    for seed in range(first, first + 10):
        _assert_docs_match_reference(_repo_index(corpusgen.generate(seed).files))


_DIGIT_NAMES = {
    "src/vec.h": (
        "namespace gfx2 {\n"
        "/// adds two vec3 values\n"
        "struct Vec3 { float x1, y2, z3; };\n"
        "Vec3 vec3Add(Vec3 a, Vec3 b);\n"
        "class HTTP2Server {\n"
        "public:\n"
        "    int serve_v2(int port8080);\n"
        "    template <typename T4> T4 sha256sum(T4 x);\n"
        "};\n"
        "}\n"
    ),
    "src/vec.cpp": (
        '#include "vec.h"\n'
        "namespace gfx2 {\n"
        "Vec3 vec3Add(Vec3 a, Vec3 b) {\n"
        "    return Vec3{a.x1 + b.x1, a.y2 + b.y2, a.z3 + b.z3};\n"
        "}\n"
        "int HTTP2Server::serve_v2(int port8080) { return port8080 + 42; }\n"
        "}\n"
    ),
}


def test_identifiers_with_digits_match_reference():
    assert split_identifier("vec3Add") == ["vec", "3", "add"]
    assert split_identifier("HTTP2Server") == ["http", "2", "server"]
    intent = _assert_docs_match_reference(_repo_index(_DIGIT_NAMES))
    # the summary keeps digit runs; the embedder never sees them
    doc = next(d for d in intent.docs if d.qualified_name == "gfx2::vec3Add")
    assert " 3 " in doc.text
    assert tokenize(doc.text) == [w for w in doc.text.split() if not w.isdigit()]
    for text in ("vec3Add", "HTTP2Server serve", "gfx2 sha256sum", "3 2 8080"):
        for k in range(1, len(intent.docs) + 4):
            assert query_code_intent(intent, text, k=k) == (
                refintent.query_code_intent(intent, text, k=k)
            )


@pytest.fixture(scope="module")
def corpus_intent():
    return build_intent_index(_repo_index(corpusgen.generate(101).files))


_QUERY_WORDS = [
    "vector", "rotate", "cache", "parse", "flush", "token", "merge",
    "score", "buffer", "clamp", "compute", "alpha", "engine", "calculator",
    "subtract", "int", "3", "", "::", "add_2", "getValue",
]


@settings(max_examples=150, deadline=None)
@given(
    words=st.lists(st.sampled_from(_QUERY_WORDS), max_size=6),
    noise=st.text(max_size=12),
    k_offset=st.integers(min_value=0, max_value=10_000),
    use_corpus=st.booleans(),
)
def test_top_k_matches_reference(
    toy_intent, corpus_intent, words, noise, k_offset, use_corpus
):
    intent = corpus_intent if use_corpus else toy_intent
    text = " ".join(words) + noise
    k = 1 + k_offset % (len(intent.docs) + 3)
    assert query_code_intent(intent, text, k=k) == (
        refintent.query_code_intent(intent, text, k=k)
    )


def _duplicated(intent, copies: int):
    # every doc repeated, under fresh ids and under the same name, so whole
    # groups tie on score and on qualified name
    n = len(intent.docs)
    docs = tuple(
        IntentDoc(
            symbol_id=d.symbol_id + c * n if c % 2 else d.symbol_id,
            qualified_name=d.qualified_name if c < 2 else d.qualified_name + "_",
            kind=d.kind,
            text=d.text,
            vector=d.vector,
        )
        for c in range(copies)
        for d in intent.docs
    )
    return IntentIndex(intent.provider_name, intent.dim, intent.repo_snapshot, docs)


@pytest.mark.parametrize(
    "text", ["", "123 456", "+-*/ ()", "calculator", "calc add subtract"]
)
def test_heavy_ties_at_the_boundary_match_reference(toy_intent, text):
    for intent in (toy_intent, _duplicated(toy_intent, 4)):
        for k in range(1, len(intent.docs) + 4):
            got = query_code_intent(intent, text, k=k)
            assert got == refintent.query_code_intent(intent, text, k=k)
            assert len(got) == min(k, len(intent.docs))


def test_matrix_is_built_once_and_kept_out_of_repr_and_file(toy_index, toy_intent):
    clone = IntentIndex.from_dict(toy_intent.to_dict(), toy_index.symbols)
    assert clone == toy_intent
    assert "matrix" not in repr(clone)
    assert "matrix" not in json.dumps(clone.to_dict())
    assert _bits(clone.matrix.ravel()) == _bits(toy_intent.matrix.ravel())
    assert clone.matrix.flags["C_CONTIGUOUS"]
    rebuilt = IntentIndex(
        toy_intent.provider_name, toy_intent.dim, toy_intent.repo_snapshot,
        toy_intent.docs,
    )
    assert _bits(rebuilt.matrix.ravel()) == _bits(toy_intent.matrix.ravel())
    assert rebuilt == toy_intent
    empty = IntentIndex("hash-tf-256", 256, "", ())
    assert empty.matrix.shape == (0, 256)


def test_the_matrix_is_the_one_vector_store(toy_intent):
    docs = toy_intent.docs
    assert not any(isinstance(d._vector, tuple) for d in docs)
    for row, doc in enumerate(docs):
        assert _bits(doc.vector) == _bits(toy_intent.matrix[row])
        assert all(type(x) is float for x in doc.vector)
    # equality sees the vectors: a zero cell made 0.5, or only its sign
    zero = np.flatnonzero(toy_intent.matrix[3] == 0.0)[0]
    for value in (0.5, -0.0):
        matrix = toy_intent.matrix.copy()
        matrix[3, zero] = value
        other = IntentIndex(toy_intent.provider_name, toy_intent.dim,
                            toy_intent.repo_snapshot, docs, matrix)
        assert other != toy_intent
        assert other.docs == toy_intent.docs
    given_vectors = _duplicated(toy_intent, 1)
    assert given_vectors == toy_intent
    assert given_vectors.docs[3].vector == docs[3].vector


# --- differential: the stored-word embed path against tokenizing each text


def _word_run(letters: bool):
    return st.from_regex(r"[a-z]{1,5}" if letters else r"[0-9]{1,3}",
                         fullmatch=True)


# the form summarize_artifact writes, and what a hand-edited file may hold:
# uppercase, "_", empty texts, doubled, leading or trailing spaces, tabs,
# non-ASCII letters and digits, a lone surrogate
_STORED_FORM = st.lists(
    st.one_of(_word_run(True), _word_run(False)), min_size=1, max_size=8
).map(" ".join)
_EDITED = st.one_of(
    st.text(alphabet="abz09 _\tAZ\u00e9\u00b2\u212a\ud800", max_size=24),
    _STORED_FORM.map(lambda t: t.replace(" ", "  ", 1)),
    _STORED_FORM.map(" {}".format),
    _STORED_FORM.map("{} ".format),
    _STORED_FORM.map(str.upper),
)


@pytest.fixture(scope="module")
def toy_payload(toy_index, toy_intent):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "toy.caidx"
        persist_index(IndexContainer(toy_index, toy_intent), path)
        return json.loads(path.read_text(encoding="utf-8"))


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(st.one_of(_STORED_FORM, _EDITED), min_size=1, max_size=12),
    dim=st.sampled_from([1, 2, 7, 256]),
)
def test_loaded_matrix_is_the_tokenized_embedding(toy_payload, texts, dim):
    payload = json.loads(json.dumps(toy_payload))
    docs = payload["intent"]["docs"]
    assert len(texts) <= len(docs["text"])
    docs["symbol_id"] = docs["symbol_id"][: len(texts)]
    docs["text"] = texts
    payload["intent"].update(dim=dim, provider_name=f"hash-tf-{dim}")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "edited.caidx"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_index(path).intent
    want = HashEmbeddingProvider(dim).embed_tokens([tokenize(t) for t in texts])
    assert loaded.matrix.tobytes() == want.tobytes()
    reference = refintent.HashEmbeddingProvider(dim)
    for row, (doc, text) in enumerate(zip(loaded.docs, texts)):
        assert _bits(loaded.matrix[row]) == _bits(reference.embed(text))
        assert doc.vector == tuple(want[row].tolist())
    assert HashEmbeddingProvider(dim).embed_many(texts) == [
        tuple(row) for row in want.tolist()
    ]


@pytest.mark.parametrize("seed", [0, 7, 42, 101])
def test_build_matches_reference_matrix_and_bytes(seed, tmp_path):
    index = _repo_index(corpusgen.generate(seed).files)
    intent = build_intent_index(index)
    provider = refintent.HashEmbeddingProvider()
    real = [r for r in index.symbols if not r.is_synthetic]
    texts = [refintent.summarize_artifact(r, refintent.snippet_for(index, r))
             for r in real]
    reference = IntentIndex(
        provider.name, provider.dim, index.repo_snapshot,
        tuple(IntentDoc(r.symbol_id, r.qualified_name, r.kind.value, t,
                        provider.embed(t)) for r, t in zip(real, texts)),
    )
    assert intent.matrix.tobytes() == reference.matrix.tobytes()
    assert intent == reference
    persist_index(IndexContainer(index, intent), tmp_path / "built.caidx")
    persist_index(IndexContainer(index, reference), tmp_path / "reference.caidx")
    built = (tmp_path / "built.caidx").read_bytes()
    assert built == (tmp_path / "reference.caidx").read_bytes()
    loaded = load_index(tmp_path / "built.caidx").intent
    assert loaded.matrix.tobytes() == reference.matrix.tobytes()
