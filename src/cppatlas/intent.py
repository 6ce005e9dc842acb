"""Code intent index: embeds a textual summary of every symbol and
answers natural-language queries by cosine similarity.

The built-in provider is a deterministic hashed term-frequency embedder,
so two builds over identical sources produce identical vectors with no
model weights involved. An external provider can be plugged in through a
subprocess command that reads texts as JSON and writes vectors back.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
import subprocess
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import (
    BadRequest,
    EmptyIndex,
    NoSeedsResolved,
    ProviderUnavailable,
    SnapshotMismatch,
)
from .index import StructuralIndex, read_columns
from .model import SymbolRecord
from .queries import defect_subgraph, snippet_of
from .repo import IssueDescription

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")
# entries kept by each memo below; a 10k-symbol corpus of the benchmark
# holds about 1,200 distinct identifiers and 100 distinct words
_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=_MEMO_SIZE)
def _segments(ident: str) -> tuple[str, ...]:
    return tuple(
        part.lower() for chunk in ident.split("_") for part in _CAMEL_RE.findall(chunk)
    )


_LETTERS_RE = re.compile(r"[a-z]+")
_DIGITS_RE = re.compile(r"[0-9]+")


class _Cells(dict):
    """Memo of each string's cell for one ``dim``: the sha1 bucket of a
    run of lowercase letters, the bucket less ``dim`` for a run of digits
    and less ``2 * dim`` for anything else, so ``% dim`` gives the bucket
    of any string back. Emptied when it reaches ``_MEMO_SIZE`` entries."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, word: str) -> int:
        if len(self) >= _MEMO_SIZE:
            self.clear()
        # a lone surrogate, which JSON can carry, hashes too
        digest = hashlib.sha1(word.encode("utf-8", "surrogatepass")).hexdigest()
        if _LETTERS_RE.fullmatch(word):
            form = 0
        elif _DIGITS_RE.fullmatch(word):
            form = 1
        else:
            form = 2
        cell = self[word] = int(digest, 16) % self.dim - form * self.dim
        return cell


@lru_cache(maxsize=8)
def _cell_memo(dim: int) -> _Cells:
    return _Cells(dim)


def split_identifier(ident: str) -> list[str]:
    """snake_case and camelCase segments, lowercased."""
    return list(_segments(ident))


def tokenize(text: str) -> list[str]:
    return list(chain.from_iterable(map(_segments, _IDENT_RE.findall(text))))


def summarize_artifact(record: SymbolRecord, snippet: str) -> str:
    """Flat text summary of one symbol: kind, name parts, scope parts,
    signature, doc comment and body identifiers, as runs of lowercase
    letters or digits joined by single spaces. Token repetition is
    intentional; it becomes term frequency."""
    # "member_function" gives two parts, so the text still reads
    # "member function"
    parts = record.kind.value.split("_")
    parts.extend(_segments(record.name))
    for segment in record.qualified_name.split("::"):
        parts.extend(_segments(segment))
    for text in (record.signature, record.template_params, record.doc_comment,
                 snippet):
        parts.extend(tokenize(text))
    return " ".join(parts)


class HashEmbeddingProvider:
    """Hashed term-frequency embedding: sha1(token) picks one of ``dim``
    buckets, counts are L2-normalized. Fully deterministic."""

    def __init__(self, dim: int = 256):
        self.dim = dim

    @property
    def name(self) -> str:
        return f"hash-tf-{self.dim}"

    def embed(self, text: str) -> tuple[float, ...]:
        return self.embed_many([text])[0]

    def embed_many(self, texts: list[str]) -> list[tuple[float, ...]]:
        return [tuple(row) for row in self.embed_texts(texts).tolist()]

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        """``embed_tokens`` of each text's ``tokenize`` tokens, shape
        (texts, dim). A text in the form ``summarize_artifact`` writes is
        not tokenized: its runs of letters are its tokens, and its runs of
        digits, which ``tokenize`` drops, have no cell. Any other text,
        such as one edited by hand in an index file, is tokenized."""
        # splitting the joined texts once splits each text on " "
        cells, rows = self._lookup(
            " ".join(texts).split(" "), [t.count(" ") + 1 for t in texts]
        )
        words = cells >= 0
        matrix = self._unit_rows(cells[words], rows[words], len(texts))
        others = sorted(set(rows[cells < -self.dim].tolist()))
        if others:
            matrix[others] = self.embed_tokens([tokenize(texts[i]) for i in others])
        return matrix

    def embed_tokens(self, token_lists: list[list[str]]) -> np.ndarray:
        """One unit row of bucket counts per token list, shape
        (lists, dim)."""
        cells, rows = self._lookup(
            chain.from_iterable(token_lists), list(map(len, token_lists))
        )
        return self._unit_rows(cells % self.dim, rows, len(token_lists))

    def _lookup(self, words, lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The ``_Cells`` cell of each word, and the row it is in: the
        first ``lengths[0]`` words are in row 0, and so on."""
        cells = np.fromiter(
            map(_cell_memo(self.dim).__getitem__, words),
            dtype=np.intp,
            count=sum(lengths),
        )
        return cells, np.repeat(np.arange(len(lengths), dtype=np.intp), lengths)

    def _unit_rows(self, buckets: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
        """``n`` rows of bucket counts, each scaled to unit norm. Counts are
        whole numbers, so every norm is exact."""
        dim = self.dim
        # unit weights make bincount count in float64, except that it
        # returns ints when there is no token at all
        counts = np.bincount(
            rows * dim + buckets, weights=np.ones(len(buckets)), minlength=n * dim
        )
        matrix = counts.astype(np.float64, copy=False).reshape(n, dim)
        # sums of squared whole numbers are exact in any order
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        norms[norms == 0.0] = 1.0
        matrix /= norms[:, None]
        return matrix


class CommandEmbeddingProvider:
    """Embeds through an external command. The command receives
    ``{"texts": [...]}`` on stdin and must print ``{"vectors": [[...]]}``."""

    def __init__(self, command: tuple[str, ...], name: str, dim: int):
        self.command = command
        self._name = name
        self.dim = dim

    @property
    def name(self) -> str:
        return self._name

    def embed_many(self, texts: list[str]) -> list[tuple[float, ...]]:
        payload = json.dumps({"texts": texts})
        try:
            proc = subprocess.run(
                self.command,
                input=payload.encode("utf-8"),
                capture_output=True,
                timeout=120,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise ProviderUnavailable(f"embedding command failed: {exc}") from exc
        if proc.returncode != 0:
            raise ProviderUnavailable(
                f"embedding command exited {proc.returncode}: "
                f"{proc.stderr.decode('utf-8', 'replace')[:200]}"
            )
        try:
            vectors = json.loads(proc.stdout.decode("utf-8"))["vectors"]
        except (ValueError, KeyError) as exc:
            raise ProviderUnavailable(f"bad embedding output: {exc}") from exc
        if len(vectors) != len(texts):
            raise ProviderUnavailable("embedding count mismatch")
        out = []
        for vec in vectors:
            if len(vec) != self.dim:
                raise ProviderUnavailable("embedding dimension mismatch")
            arr = np.asarray(vec, dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ProviderUnavailable("embedding has a non-finite entry")
            norm = float(np.linalg.norm(arr))
            if norm > 0.0:
                arr = arr / norm
            out.append(tuple(float(x) for x in arr))
        return out

    def embed(self, text: str) -> tuple[float, ...]:
        return self.embed_many([text])[0]


class IntentDoc:
    """One symbol's summary ``text`` and its embedding ``vector``, a tuple
    of floats. A doc made with a tuple keeps it. A doc that
    ``build_intent_index`` or ``IntentIndex.from_dict`` made holds only
    its row of the index ``matrix``, and ``vector`` makes the tuple each
    time it is read. Docs compare without their vectors; ``IntentIndex``
    compares its matrix."""

    __slots__ = ("symbol_id", "qualified_name", "kind", "text", "_vector")

    def __init__(self, symbol_id: int, qualified_name: str, kind: str,
                 text: str, vector: "tuple[float, ...] | np.ndarray"):
        self.symbol_id = symbol_id
        self.qualified_name = qualified_name
        self.kind = kind
        self.text = text
        self._vector = vector

    @property
    def vector(self) -> tuple[float, ...]:
        row = self._vector
        if isinstance(row, tuple):
            return row
        # cells with the same bits share one float object: a hashed row
        # holds a few distinct values, most of its cells 0.0
        bits, where = np.unique(row.view(np.int64), return_inverse=True)
        return tuple(map(bits.view(np.float64).tolist().__getitem__, where.tolist()))

    def _key(self) -> tuple:
        return self.symbol_id, self.qualified_name, self.kind, self.text

    def __eq__(self, other):
        if not isinstance(other, IntentDoc):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"IntentDoc{self._key()!r}"


@dataclass(frozen=True)
class IntentIndex:
    """Intent documents plus ``matrix``, their vectors as one C-contiguous
    float64 array of shape (docs, dim) that every query multiplies.

    ``matrix`` is the one store of the vectors of docs built or loaded
    here. It is made once, when the index is built or loaded (or here,
    from the docs' vectors, when it is not given), and two indexes are
    equal only if their matrices are equal bit for bit. ``to_dict``
    writes it out only for providers other than the hash embedder."""

    provider_name: str
    dim: int
    repo_snapshot: str
    docs: tuple[IntentDoc, ...]
    matrix: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.matrix is None:
            matrix = np.array([d.vector for d in self.docs], dtype=np.float64)
            object.__setattr__(
                self, "matrix", matrix.reshape(len(self.docs), self.dim)
            )

    def __eq__(self, other):
        if not isinstance(other, IntentIndex):
            return NotImplemented
        return (
            (self.provider_name, self.dim, self.repo_snapshot, self.docs)
            == (other.provider_name, other.dim, other.repo_snapshot, other.docs)
            and self.matrix.shape == other.matrix.shape
            and self.matrix.tobytes() == other.matrix.tobytes()
        )

    def to_dict(self) -> dict:
        """Docs as ``symbol_id`` and ``text`` columns. The hash provider's
        vectors are left out, since ``from_dict`` rebuilds them from the
        text; any other provider's matrix is one base64 string of
        little-endian float64, row by row."""
        data = {
            "provider_name": self.provider_name,
            "dim": self.dim,
            "repo_snapshot": self.repo_snapshot,
            "docs": {
                "symbol_id": [d.symbol_id for d in self.docs],
                "text": [d.text for d in self.docs],
            },
        }
        if self.provider_name != HashEmbeddingProvider(self.dim).name:
            raw = self.matrix.astype("<f8").tobytes()
            data["vectors"] = base64.b64encode(raw).decode("ascii")
        return data

    @staticmethod
    def from_dict(data: dict, symbols: list[SymbolRecord]) -> "IntentIndex":
        """Rebuild an index from ``to_dict`` output over the ``symbols`` it
        was built from, which give each doc its qualified name and kind.
        Raises ``ValueError`` on a bad ``dim``, a name or snapshot that is
        not a string, a doc that is not a real symbol, or stored vectors
        that are not ``dim`` finite numbers per doc."""
        provider_name, dim, snapshot = (
            data["provider_name"], data["dim"], data["repo_snapshot"]
        )
        if type(dim) is not int or dim < 1:
            raise ValueError(f"intent dim must be a positive int, not {dim!r}")
        if type(provider_name) is not str or type(snapshot) is not str:
            raise ValueError("intent provider_name and repo_snapshot must be strings")
        ids, texts = read_columns(data["docs"], {"symbol_id": int, "text": str})
        if ids and not 0 <= min(ids) <= max(ids) < len(symbols):
            raise ValueError("intent doc symbol_id out of range")
        records = [symbols[i] for i in ids]
        if any(r.is_synthetic for r in records):
            raise ValueError("intent doc names a synthetic symbol")
        provider = HashEmbeddingProvider(dim)
        if provider_name == provider.name:
            matrix = provider.embed_texts(texts)
        else:
            matrix = _decode_matrix(data["vectors"], len(texts), dim)
        return _index(provider_name, dim, snapshot, records, texts, matrix)


def _index(provider_name: str, dim: int, repo_snapshot: str,
           records: list[SymbolRecord], texts: list[str],
           matrix: np.ndarray) -> IntentIndex:
    """One doc per record and text, whose vector is its row of ``matrix``."""
    docs = tuple(
        IntentDoc(r.symbol_id, r.qualified_name, r.kind.value, t, row)
        for r, t, row in zip(records, texts, matrix)
    )
    return IntentIndex(provider_name, dim, repo_snapshot, docs, matrix)


def _decode_matrix(encoded: str, rows: int, dim: int) -> np.ndarray:
    # anything but a str is a TypeError, and any other size a ValueError
    raw = base64.b64decode(encoded, validate=True)
    matrix = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, dim)
    # NaN or infinity would drop docs from every top-k silently
    if not np.isfinite(matrix).all():
        raise ValueError("intent vectors hold a non-finite entry")
    return matrix


def build_intent_index(index: StructuralIndex, provider=None) -> IntentIndex:
    """One intent document per real (non-synthetic) symbol, embedded in
    symbol id order."""
    provider = provider or HashEmbeddingProvider()
    records = [r for r in index.symbols if not r.is_synthetic]
    lines = {path: text.split("\n") for path, text in index.sources.items()}
    texts = [
        summarize_artifact(r, snippet_of(lines.get(r.location.file), r))
        for r in records
    ]
    if isinstance(provider, HashEmbeddingProvider):
        matrix = provider.embed_texts(texts)
    else:
        matrix = np.array(provider.embed_many(texts), dtype=np.float64)
        matrix = matrix.reshape(len(texts), provider.dim)
    return _index(provider.name, provider.dim, index.repo_snapshot, records, texts,
                  matrix)


def query_code_intent(
    intent: IntentIndex, text: str, k: int = 10, provider=None
) -> list[dict]:
    """Top-k symbols by cosine similarity against the query embedding:
    one matrix-vector product, then a partial sort. Ties break
    lexicographically on qualified name, then id."""
    if k < 1:
        raise BadRequest("k must be >= 1")
    if not intent.docs:
        raise EmptyIndex("intent index has no documents")
    provider = provider or HashEmbeddingProvider()
    if provider.name != intent.provider_name:
        raise ProviderUnavailable(
            f"index was built with {intent.provider_name!r}, "
            f"queried with {provider.name!r}"
        )
    if isinstance(provider, HashEmbeddingProvider):
        query = provider.embed_texts([text])[0]
    else:
        query = np.asarray(provider.embed(text), dtype=np.float64)
    # every score comes from the one full product, never from a subset of
    # rows, whose sums may differ in the last bit
    scores = intent.matrix @ query
    n = len(scores)
    if k < n:
        # every doc scoring at least the k-th best, so ties at the
        # boundary are ordered like the rest
        candidates = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    else:
        candidates = np.arange(n)
    docs = intent.docs
    ranked = sorted(
        zip(scores[candidates].tolist(), candidates.tolist()),
        key=lambda c: (-c[0], docs[c[1]].qualified_name, docs[c[1]].symbol_id),
    )
    return [
        {
            "symbol_id": docs[i].symbol_id,
            "qualified_name": docs[i].qualified_name,
            "kind": docs[i].kind,
            "score": score,
        }
        for score, i in ranked[:k]
    ]


def localize(
    structural: StructuralIndex,
    intent: IntentIndex,
    issue: IssueDescription,
    k: int = 10,
    hops: int = 2,
    provider=None,
) -> dict:
    """Defect localization: intersect intent hits with the structural
    neighborhood of symbols the issue mentions. Falls back to intent
    ranking alone when no mention resolves or the intersection is empty."""
    if intent.repo_snapshot != structural.repo_snapshot:
        raise SnapshotMismatch(
            "intent index and structural index cover different snapshots"
        )
    hits = query_code_intent(intent, issue.query_text, k=k, provider=provider)
    subgraph_nodes: list[int] = []
    mode = "intent_only"
    candidates = hits
    if issue.mentioned_symbols:
        try:
            sub = defect_subgraph(
                structural, list(issue.mentioned_symbols), hops=hops
            )
        except NoSeedsResolved:
            sub = None
        if sub is not None:
            subgraph_nodes = sub["nodes"]
            node_set = set(subgraph_nodes)
            narrowed = [h for h in hits if h["symbol_id"] in node_set]
            if narrowed:
                mode = "intersection"
                candidates = narrowed
    return {
        "mode": mode,
        "k": k,
        "hops": hops,
        "candidates": candidates,
        "subgraph_nodes": subgraph_nodes,
    }
