import base64
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppatlas import intent as intent_module
from cppatlas.cli import main
from cppatlas.errors import (
    BadRequest,
    CorruptIndex,
    EmptyIndex,
    EngineError,
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
from cppatlas.server import handle_line
from cppatlas.tools import ToolContext, dispatch_tool

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


# replies of an embedding command, for one text and dim 2, that are not a
# list of one vector of two numbers
MALFORMED_REPLIES = {
    "not-an-object": "[1]",
    "vectors-a-number": '{"vectors": 5}',
    "vector-a-number": '{"vectors": [3]}',
    "cells-not-numbers": '{"vectors": [["a", "b"]]}',
    "cells-are-lists": '{"vectors": [[[1, 2], [3, 4]]]}',
    "ragged": '{"vectors": [[1, 2], [3]]}',
    "cell-too-large": '{"vectors": [[1%s, 2]]}' % ("0" * 400),
    "nested-too-deep": "[" * 100000 + "]" * 100000,
    "vectors-nested-too-deep": '{"vectors": %s}' % ("[" * 100 + "]" * 100),
}


def replying(path, dim: int) -> CommandEmbeddingProvider:
    """A command provider that prints the contents of ``path``."""
    script = "import sys;sys.stdin.read();sys.stdout.write(open(sys.argv[1]).read())"
    return CommandEmbeddingProvider(
        (sys.executable, "-c", script, str(path)), name="scripted", dim=dim)


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

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(),
                             ids=MALFORMED_REPLIES)
    def test_malformed_reply_is_provider_unavailable(self, reply, tmp_path):
        (tmp_path / "reply").write_text(reply)
        with pytest.raises(ProviderUnavailable):
            replying(tmp_path / "reply", dim=2).embed("x")

    def test_valid_reply_keeps_its_bits(self, tmp_path):
        rows = [[0.1, 0.2, 0.3], [3.0, -4.0, 1e-300], [0.0, 0.0, 0.0]]
        (tmp_path / "reply").write_text(json.dumps({"vectors": rows}))
        got = replying(tmp_path / "reply", dim=3).embed_many(["a", "b", "c"])
        want = []
        for row in rows:
            arr = np.asarray(row, dtype=np.float64)
            norm = float(np.linalg.norm(arr))
            want.append(tuple(float(x) for x in (arr / norm if norm else arr)))
        assert got == want


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


# --- differential: the top k from bucket postings and 4-row block products
# against the full product and full sort in refintent.py. refintent sorts
# every doc and then slices, so its answer for k is its answer for n + 3
# cut to k.


def _assert_every_k_matches_reference(intent, texts, ks=None, provider=None):
    n = len(intent.docs)
    for text in texts:
        full = refintent.query_code_intent(intent, text, k=n + 3,
                                           provider=provider)
        for k in ks or range(1, n + 4):
            got = query_code_intent(intent, text, k=k, provider=provider)
            assert got == full[:k]
            assert json.dumps(got) == json.dumps(full[:k])


def _postings_at_any_size(monkeypatch, intent):
    # A matrix of at most _PRODUCT_CELLS cells is multiplied whole; moving
    # the rule to just below this one lets its sparse queries read postings.
    n, dim = intent.matrix.shape
    cells = min(intent_module._PRODUCT_CELLS, n * dim - 1)
    monkeypatch.setattr(intent_module, "_PRODUCT_CELLS", cells)


def _postings_read(intent):
    # what a query kept as ``intent.postings``, or None before any query
    # read them: reading the property itself would derive them
    return vars(intent).get("postings")


def _first(intent, n: int) -> IntentIndex:
    return IntentIndex(intent.provider_name, intent.dim, intent.repo_snapshot,
                       intent.docs[:n], intent.matrix[:n])


def _unused_bucket_word(intent) -> str:
    # a word whose bucket no doc holds, so the query shares none
    used = np.flatnonzero(intent.matrix.any(axis=0))
    provider = HashEmbeddingProvider(intent.dim)
    return next(
        w for w in (f"zz{c}{d}" for c in "abcdefghij" for d in "klmnopqrst")
        if not np.isin(np.flatnonzero(provider.embed_texts([w])[0]), used).any()
    )


def _texts(intent) -> list[str]:
    words = [d.text.split(" ") for d in intent.docs]
    return [
        "",
        _unused_bucket_word(intent),
        words[0][0],
        " ".join(words[len(words) // 2][:3]),
        " ".join(words[-1][:6]),
        "value compute update",
    ]


@pytest.fixture(scope="module")
def wide_index():
    # 80 corpusgen seeds side by side: 1,539 real symbols, with repeated
    # names across seeds
    files = {}
    for seed in range(80):
        files.update({f"s{seed}/{path}": text
                      for path, text in corpusgen.generate(seed).files.items()})
    return _repo_index(files)


@pytest.fixture(scope="module")
def wide_intent(wide_index):
    return build_intent_index(wide_index)


@pytest.mark.parametrize("n", range(1, 8))
def test_tiny_indexes_match_reference_for_every_k(toy_intent, n, monkeypatch):
    intent = _first(toy_intent, n)
    _postings_at_any_size(monkeypatch, intent)
    _assert_every_k_matches_reference(intent, _texts(toy_intent))
    _assert_every_k_matches_reference(_duplicated(intent, 3), _texts(toy_intent))


# n % 4 is 0, 1, 2 and 3: the last block holds 4 to 7 rows
@pytest.mark.parametrize("n", [400, 401, 1498, 1499])
def test_indexes_of_each_tail_length_match_reference(wide_intent, n, monkeypatch):
    intent = _first(wide_intent, n)
    _postings_at_any_size(monkeypatch, intent)  # 400 and 401 need it
    ks = [*range(1, 41), *range(41, n - 3, 97), *range(n - 3, n + 4)]
    _assert_every_k_matches_reference(intent, _texts(intent), ks)
    assert _postings_read(intent)  # the texts took the postings path


def test_heavy_ties_in_a_wide_index_match_reference(wide_intent):
    intent = _duplicated(_first(wide_intent, 375), 4)
    assert len(intent.docs) == 1500
    ks = [*range(1, 41), 374, 375, 376, 749, 750, 751, 1125, 1499, 1500, 1503]
    _assert_every_k_matches_reference(intent, _texts(intent), ks)


class _SignedProvider:
    """Not the hash embedder: its vectors keep the hash embedder's buckets
    with signed weights that are not unit length, so they are as sparse."""

    name, dim = "signed-hash-256", 256

    def __init__(self):
        self.weights = np.random.default_rng(7).normal(0.0, 3.0, self.dim)

    def embed(self, text):
        vector = HashEmbeddingProvider(self.dim).embed_texts([text])[0]
        return tuple((vector * self.weights).tolist())


@pytest.fixture(scope="module")
def signed_intent(wide_index, wide_intent):
    # the wide index's vectors with signed weights of any length
    hashed = wide_intent.matrix
    cells = np.random.default_rng(11).normal(0.0, 5.0, hashed.shape)
    payload = dict(wide_intent.to_dict(), provider_name=_SignedProvider.name)
    raw = (hashed * cells).astype("<f8").tobytes()
    payload["vectors"] = base64.b64encode(raw).decode("ascii")
    return IntentIndex.from_dict(payload, wide_index.symbols)


def test_signed_stored_vectors_match_reference(signed_intent, wide_intent):
    intent = signed_intent
    norms = np.linalg.norm(intent.matrix, axis=1)
    assert (intent.matrix < 0).any() and not np.allclose(norms[norms > 0], 1.0)
    ks = [*range(1, 31), 200, 1000, len(intent.docs) - 1, len(intent.docs)]
    _assert_every_k_matches_reference(intent, _texts(wide_intent), ks,
                                      provider=_SignedProvider())
    assert _postings_read(intent)


class _GivenProvider:
    """Embeds a text of ``dim`` numbers as those numbers."""

    def __init__(self, dim: int):
        self.name, self.dim = f"given-{dim}", dim

    def embed(self, text):
        return tuple(float(x) for x in text.split())


def test_postings_only_when_the_matrix_and_the_query_are_sparse(monkeypatch):
    # one cell in eight nonzero is sparse; one more is not
    rng = np.random.default_rng(5)
    provider = _GivenProvider(8)
    sparse_query, dense_query = "0 0 0 1.5 0 0 0 0", "0 2 0 1.5 0 0 0 0"
    monkeypatch.setattr(intent_module, "_PRODUCT_CELLS", 16 * 8 - 1)
    for nonzero, sparse in ((16, True), (17, False)):
        matrix = np.zeros((16, 8))
        matrix.ravel()[rng.choice(128, nonzero, replace=False)] = rng.normal(
            size=nonzero)
        docs = tuple(IntentDoc(i, f"d{i % 5}", "function", "", tuple(row))
                     for i, row in enumerate(matrix.tolist()))
        intent = IntentIndex(provider.name, 8, "", docs)
        _assert_every_k_matches_reference(intent, [dense_query], provider=provider)
        assert _postings_read(intent) is None
        _assert_every_k_matches_reference(intent, [sparse_query], provider=provider)
        assert bool(_postings_read(intent)) is sparse
        assert _postings_read(intent) is not None


def test_postings_are_derived_by_the_first_query_not_by_build_or_load(
        toy_index, toy_intent, tmp_path, monkeypatch):
    _postings_at_any_size(monkeypatch, toy_intent)
    built = build_intent_index(toy_index)
    persist_index(IndexContainer(toy_index, built), tmp_path / "toy.caidx")
    loaded = load_index(tmp_path / "toy.caidx").intent
    for intent in (built, loaded):
        assert _postings_read(intent) is None
        assert "matrix" not in vars(intent)
        query_code_intent(intent, "subtract numbers", k=3)
        postings = _postings_read(intent)
        assert postings
        query_code_intent(intent, "calculator", k=3)
        assert _postings_read(intent) is postings
        assert intent.postings is postings
    assert loaded == built == toy_intent
    assert "postings" not in repr(loaded)


def test_an_index_of_one_product_never_builds_postings(toy_index, monkeypatch):
    # the toy index (24 docs at dim 256) is far below the size rule
    intent = build_intent_index(toy_index)
    n, dim = intent.matrix.shape
    assert n * dim <= intent_module._PRODUCT_CELLS
    for text in _texts(intent):
        for k in (1, 3, n - 1):
            query_code_intent(intent, text, k=k)
    assert _postings_read(intent) is None
    # the rule's boundary: a matrix of exactly one product is multiplied
    # whole, and one cell more reads postings
    monkeypatch.setattr(intent_module, "_PRODUCT_CELLS", n * dim)
    query_code_intent(intent, "subtract numbers", k=3)
    assert _postings_read(intent) is None
    monkeypatch.setattr(intent_module, "_PRODUCT_CELLS", n * dim - 1)
    query_code_intent(intent, "subtract numbers", k=3)
    assert _postings_read(intent)


def test_matrix_is_read_only(toy_index, toy_intent, monkeypatch):
    clone = IntentIndex.from_dict(toy_intent.to_dict(), toy_index.symbols)
    given = IntentIndex(toy_intent.provider_name, toy_intent.dim,
                        toy_intent.repo_snapshot, toy_intent.docs,
                        toy_intent.matrix.copy())
    for intent in (toy_intent, clone, given, _duplicated(toy_intent, 2),
                   build_intent_index(toy_index, _RecordingProvider())):
        with pytest.raises(ValueError):
            intent.matrix[0, 0] = 0.5
        with pytest.raises(ValueError):
            intent.matrix[1] *= 2.0
    for doc in clone.docs:
        with pytest.raises(ValueError):
            doc._vector[doc._row][0] = 0.5
    # so are the postings that pick the candidate rows
    _postings_at_any_size(monkeypatch, toy_intent)
    for intent in (clone, given):
        query_code_intent(intent, "subtract numbers", k=3)
        offsets, rows, values, _ = _postings_read(intent)
        for array in (offsets, rows, values):
            with pytest.raises(ValueError):
                array[0] = array[-1]
            with pytest.raises(ValueError):
                array[:] = 0


def test_a_row_whose_postings_sum_rounds_low_stays_a_candidate(monkeypatch):
    # Row 0 sums its products in bucket order one unit in the last place
    # below the full product. Row 1 scores exactly that product through a
    # single cell, so with no rounding margin row 1 alone would look like
    # the best, and the tie would go to it instead of to row 0's name.
    provider, buckets = _GivenProvider(64), [3, 10, 17, 24, 31]
    query = np.zeros(64)
    query[buckets] = [1.0, 0.1, 0.7, 0.3, 0.9]
    rng = np.random.default_rng(0)
    for _ in range(1000):
        matrix = np.zeros((8, 64))
        matrix[0, buckets] = np.round(rng.normal(size=5), 3)
        exact = (matrix @ query)[0]
        in_order = 0.0
        for b in buckets:
            in_order += matrix[0, b] * query[b]
        if in_order < exact:
            break
    else:
        pytest.skip("no row rounds low in bucket order here")
    matrix[1, 3] = exact
    docs = tuple(IntentDoc(i, f"n{i}", "function", "", tuple(row))
                 for i, row in enumerate(matrix.tolist()))
    intent = IntentIndex(provider.name, 64, "", docs)
    _postings_at_any_size(monkeypatch, intent)
    text = " ".join(map(repr, query.tolist()))
    assert [h["symbol_id"] for h in query_code_intent(
        intent, text, k=1, provider=provider)] == [0]
    _assert_every_k_matches_reference(intent, [text], provider=provider)
    assert _postings_read(intent)


# --- differential: the candidate rows and the gathered block products
# against the frozen candidate_rows and row_scores in refintent.py, which
# read the k-th best of all n postings sums and multiplied runs of blocks.


def _frozen_top(intent, query, k):
    # the frozen path's top k, as (score, row) pairs
    n = len(intent.docs)
    rows = refintent.candidate_rows(intent.postings, query,
                                    np.flatnonzero(query), n, k)
    rows = np.arange(n) if rows is None else rows
    docs = intent.docs
    return sorted(
        zip(refintent.row_scores(intent.matrix, query, rows).tolist(),
            rows.tolist()),
        key=lambda c: (-c[0], docs[c[1]].qualified_name, docs[c[1]].symbol_id),
    )[:k]


def _assert_candidates_match_frozen(intent, texts, provider=None):
    """For each text's query and each k, among them the boundaries of the
    touched rows (those sharing a bucket with the query): the candidates
    hold the frozen path's top k, and are the frozen path's candidates, as
    the k-th best sum is exact; their scores have the frozen path's bits,
    and so has every answer."""
    n, dim = intent.matrix.shape
    embedder = provider or HashEmbeddingProvider(dim)
    for text in texts:
        query = np.asarray(embedder.embed(text), dtype=np.float64)
        buckets = np.flatnonzero(query)
        if not len(buckets):
            continue  # a query without buckets never reads postings
        shares = intent.matrix[:, buckets].any(axis=1)
        touched = int(np.count_nonzero(shares))
        above = int(np.count_nonzero((intent.matrix @ query)[shares] > 0))
        ks = {1, 2, 10, n - 1, n, *(touched + d for d in (-1, 0, 1)),
              *(n - touched + above + d for d in (-1, 0, 1))}
        for k in sorted(k for k in ks if 1 <= k <= n):
            top = _frozen_top(intent, query, k)
            rows = intent_module._candidate_rows(intent.postings, query,
                                                 buckets, n, k)
            assert (np.diff(rows) > 0).all()
            assert {row for _, row in top} <= set(rows.tolist())
            assert rows.tolist() == refintent.candidate_rows(
                intent.postings, query, buckets, n, k).tolist()
            scores = intent_module._row_scores(intent.matrix, query, rows)
            assert scores.tobytes() == refintent.row_scores(
                intent.matrix, query, rows).tobytes()
            got = query_code_intent(intent, text, k=k, provider=provider)
            assert [(h["score"].hex(), h["symbol_id"]) for h in got] == [
                (score.hex(), intent.docs[row].symbol_id) for score, row in top]


def _rare_word(intent) -> str:
    # a word of the docs whose bucket the fewest docs hold
    counts = np.count_nonzero(intent.matrix, axis=0)
    provider = HashEmbeddingProvider(intent.dim)
    words = sorted({w for d in intent.docs for w in d.text.split(" ") if w.isalpha()})
    return min(words, key=lambda w: counts[
        np.flatnonzero(provider.embed_texts([w])[0])[0]])


# n % 4 is 0, 1, 2 and 3, for one block and for many
@pytest.mark.parametrize("n", [5, 6, 7, 8, 1200, 1201, 1202, 1203])
def test_candidates_and_scores_match_the_frozen_path(wide_intent, n):
    intent = _first(wide_intent, n)
    texts = [*_texts(intent), _rare_word(intent)]
    _assert_candidates_match_frozen(intent, texts)


def test_signed_candidates_and_scores_match_the_frozen_path(signed_intent,
                                                            wide_intent):
    _assert_candidates_match_frozen(signed_intent, _texts(wide_intent),
                                    provider=_SignedProvider())


def test_a_gather_split_over_several_products_matches_the_frozen_path(
        wide_intent, monkeypatch):
    intent = _first(wide_intent, 1203)
    dim = intent.dim
    # products of at most 3 blocks, so a query's candidates need several
    monkeypatch.setattr(intent_module, "_PRODUCT_CELLS", 16 * dim)
    texts = _texts(intent)
    _assert_candidates_match_frozen(intent, texts)
    query = HashEmbeddingProvider(dim).embed_texts([texts[-1]])[0]
    rows = intent_module._candidate_rows(intent.postings, query,
                                         np.flatnonzero(query), 1203, 10)
    assert len(np.unique(np.minimum(rows >> 2, 1203 // 4 - 1))) > 3


# An intent index of 2,002 docs: OpenBLAS splits one product of its whole
# matrix over two threads, and the first thread's leftover rows take other
# kernels than they take on one thread.
_THREADS_CHILD = """
import json, random
import numpy as np
from cppatlas.intent import (HashEmbeddingProvider, IntentDoc, IntentIndex,
                             _candidate_rows, query_code_intent)
rng = random.Random(2002)
vocab = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                 for _ in range(rng.randint(3, 9))) for _ in range(400)]
texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(4, 40)))
         for _ in range(2002)]
matrix = HashEmbeddingProvider().embed_texts(texts)
docs = tuple(IntentDoc(i, f"n{i % 97}::f", "function", t, row)
             for i, (t, row) in enumerate(zip(texts, matrix)))
intent = IntentIndex("hash-tf-256", 256, "", docs, matrix)
queries = [(texts[i], 2002) for i in [*range(985, 1015), *range(1990, 2002)]]
queries += [(" ".join(rng.sample(vocab, 3)), k) for k in (1, 10, 2002) * 10]
answers = [query_code_intent(intent, t, k=k) for t, k in queries]
# the postings the sparse queries read, and the blocks each of them gathers,
# less the last block, which is read on its own
postings = vars(intent)["postings"]
gathered = []
for t, k in queries[42:]:
    query = HashEmbeddingProvider().embed_texts([t])[0]
    if k < 2002:
        rows = _candidate_rows(postings, query, np.flatnonzero(query), 2002, k)
        gathered.append(len(set((rows[rows < 4 * 499] >> 2).tolist())))
print(json.dumps([answers, gathered]))
"""


def test_answers_do_not_depend_on_the_blas_thread_count():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREADS_CHILD], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    # the sparse queries read postings, so at 2 threads too, and gathered
    # more than one block into a product
    answers, gathered = json.loads(outputs[0])
    assert len(gathered) == 20 and max(gathered) > 1


# --- the matrix embedded on first use: against the eager embed, the embed
# count per step, equality and repr, and edited texts in an index file


def _eager(intent) -> np.ndarray:
    return HashEmbeddingProvider(intent.dim).embed_texts(
        [d.text for d in intent.docs])


def _assert_deferred_is_eager(intent, doc_first: bool):
    want = _eager(intent)
    rows = range(len(intent.docs))
    if doc_first:  # a doc's vector makes the matrix the index then reads
        vectors = [_bits(intent.docs[row].vector) for row in rows]
    assert intent.matrix.tobytes() == want.tobytes()
    assert intent.matrix.shape == want.shape
    assert intent.matrix.flags["C_CONTIGUOUS"]
    if not doc_first:
        vectors = [_bits(intent.docs[row].vector) for row in rows]
    assert vectors == [_bits(row) for row in want]


def _loaded(index, intent, path):
    persist_index(IndexContainer(index, intent), path)
    return load_index(path).intent


@pytest.mark.parametrize("source", ["toy", "motivation", 0, 7, 42, 101])
def test_deferred_matrix_and_vectors_equal_the_eager_embed(
        source, toy_index, motivation_index, tmp_path):
    index = {"toy": toy_index, "motivation": motivation_index}.get(source)
    if index is None:
        index = _repo_index(corpusgen.generate(source).files)
    for doc_first in (False, True):
        built = build_intent_index(index)
        _assert_deferred_is_eager(built, doc_first)
        loaded = _loaded(index, build_intent_index(index), tmp_path / "i.caidx")
        _assert_deferred_is_eager(loaded, doc_first)
        assert loaded == built


_ODD_TEXTS = [
    "", "123 456", "\ud800", "add  two", " leading", "trailing ",
    "Calculator::add(int, int)", "café ² \t tab", "x" * 300,
]


def test_odd_texts_in_an_index_file_equal_the_eager_embed(toy_payload, tmp_path):
    payload = json.loads(json.dumps(toy_payload))
    docs = payload["intent"]["docs"]
    docs["symbol_id"] = docs["symbol_id"][: len(_ODD_TEXTS)]
    docs["text"] = _ODD_TEXTS
    path = tmp_path / "odd.caidx"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for doc_first in (False, True):
        loaded = load_index(path).intent
        assert [d.text for d in loaded.docs] == _ODD_TEXTS
        _assert_deferred_is_eager(loaded, doc_first)
    reference = refintent.HashEmbeddingProvider()
    for doc, text in zip(loaded.docs, _ODD_TEXTS):
        assert _bits(doc.vector) == _bits(reference.embed(text))


@pytest.fixture
def embeds(monkeypatch):
    """How many texts each ``embed_texts`` call embedded, in call order."""
    calls = []
    embed_texts = HashEmbeddingProvider.embed_texts

    def counted(self, texts):
        calls.append(len(texts))
        return embed_texts(self, texts)

    monkeypatch.setattr(HashEmbeddingProvider, "embed_texts", counted)
    return calls


def test_the_docs_are_embedded_once_by_the_first_query_that_reads_them(
        toy_index, tmp_path, capsys, embeds):
    built = build_intent_index(toy_index)
    n = len(built.docs)
    assert embeds == []
    path = tmp_path / "toy.caidx"
    persist_index(IndexContainer(toy_index, built), path)
    loaded = load_index(path).intent
    assert embeds == []
    assert main(["query", "--index", str(path), "find-class", "Calculator"]) == 0
    capsys.readouterr()
    assert embeds == []
    ctx = ToolContext(load_index(path).structural, loaded)
    line = json.dumps({"request_id": 1, "tool": "QueryCodeIntent",
                       "arguments": {"text": "subtract numbers", "k": 3}})
    first = handle_line(ctx, line)
    assert embeds == [1, n]  # the query, then the docs
    assert handle_line(ctx, line) == first
    query_code_intent(loaded, "calculator", k=5)
    _ = [d.vector for d in loaded.docs], loaded == built
    assert embeds == [1, n, 1, 1, n]  # the built index, compared
    assert json.loads(first)["result"]["hits"] == query_code_intent(
        built, "subtract numbers", k=3)


def test_equality_and_repr_do_not_depend_on_when_the_matrix_is_made(
        toy_index, toy_intent, tmp_path, embeds):
    built = build_intent_index(toy_index)
    loaded = _loaded(toy_index, build_intent_index(toy_index), tmp_path / "t.caidx")
    clone = IntentIndex.from_dict(built.to_dict(), toy_index.symbols)
    eager = IntentIndex(built.provider_name, built.dim, built.repo_snapshot,
                        built.docs, _eager(built))
    stacked = IntentIndex(built.provider_name, built.dim, built.repo_snapshot,
                          built.docs)
    indexes = (built, loaded, clone, eager, stacked, toy_intent)
    want = (f"IntentIndex(provider_name={built.provider_name!r}, "
            f"dim={built.dim!r}, repo_snapshot={built.repo_snapshot!r}, "
            f"docs={built.docs!r})")
    calls = len(embeds)
    assert all(repr(i) == want for i in indexes)
    assert len(embeds) == calls  # repr embeds nothing
    for a in indexes:
        assert all(a == b for b in indexes)
        assert hash(a) == hash(built)
    other = IntentIndex(built.provider_name, built.dim, built.repo_snapshot,
                        built.docs, np.zeros_like(_eager(built)))
    assert all(other != i for i in indexes)


_MUTATED_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="ab 09_:\té\ud800\U0001f600", max_size=60),
    st.integers(0, 10**30).map(str),
)


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(_MUTATED_TEXT, min_size=1, max_size=10),
       query=st.text(max_size=20), k=st.integers(-2, 30),
       dim=st.sampled_from([256, 256, 7]))
def test_edited_texts_in_an_index_file_answer_or_fail_typed(
        toy_payload, texts, query, k, dim):
    payload = json.loads(json.dumps(toy_payload))
    docs = payload["intent"]["docs"]
    docs["symbol_id"] = docs["symbol_id"][: len(texts)]
    docs["text"] = texts
    payload["intent"].update(dim=dim, provider_name=f"hash-tf-{dim}")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "edited.caidx"
        path.write_text(json.dumps(payload), encoding="utf-8")
        try:
            container = load_index(path)
        except CorruptIndex:
            return
    ctx = ToolContext(container.structural, container.intent)
    try:
        hits = dispatch_tool(ctx, "QueryCodeIntent", {"text": query, "k": k})
    except EngineError:
        return
    assert dim == 256 and k >= 1
    assert len(hits["hits"]) == min(k, len(texts))
