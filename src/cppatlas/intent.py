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


class _Buckets(dict):
    """Memo of each token's sha1 bucket for one ``dim``, emptied when it
    reaches ``_MEMO_SIZE`` entries."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        if len(self) >= _MEMO_SIZE:
            self.clear()
        digest = hashlib.sha1(token.encode("utf-8")).hexdigest()
        bucket = self[token] = int(digest, 16) % self.dim
        return bucket


@lru_cache(maxsize=8)
def _buckets(dim: int) -> _Buckets:
    return _Buckets(dim)


def split_identifier(ident: str) -> list[str]:
    """snake_case and camelCase segments, lowercased."""
    return list(_segments(ident))


def tokenize(text: str) -> list[str]:
    return list(chain.from_iterable(map(_segments, _IDENT_RE.findall(text))))


def _summary_parts(record: SymbolRecord, snippet: str) -> list[str]:
    # "member_function" gives two parts, so the joined text still reads
    # "member function" and each part is one word or one run of digits
    parts = record.kind.value.split("_")
    parts.extend(_segments(record.name))
    for segment in record.qualified_name.split("::"):
        parts.extend(_segments(segment))
    for text in (record.signature, record.template_params, record.doc_comment,
                 snippet):
        parts.extend(tokenize(text))
    return parts


def summarize_artifact(record: SymbolRecord, snippet: str) -> str:
    """Flat text summary of one symbol: kind, name parts, scope parts,
    signature, doc comment and body identifiers. Token repetition is
    intentional; it becomes term frequency."""
    return " ".join(_summary_parts(record, snippet))


class HashEmbeddingProvider:
    """Hashed term-frequency embedding: sha1(token) picks one of ``dim``
    buckets, counts are L2-normalized. Fully deterministic."""

    def __init__(self, dim: int = 256):
        self.dim = dim

    @property
    def name(self) -> str:
        return f"hash-tf-{self.dim}"

    def embed(self, text: str) -> tuple[float, ...]:
        return tuple(self.embed_tokens([tokenize(text)])[0].tolist())

    def embed_many(self, texts: list[str]) -> list[tuple[float, ...]]:
        rows = self.embed_tokens([tokenize(t) for t in texts]).tolist()
        return [tuple(row) for row in rows]

    def embed_tokens(self, token_lists: list[list[str]]) -> np.ndarray:
        """One unit row of bucket counts per token list, shape
        (lists, dim). Counts are whole numbers, so every norm is exact."""
        dim, rows = self.dim, len(token_lists)
        lengths = [len(tokens) for tokens in token_lists]
        cells = np.fromiter(
            map(_buckets(dim).__getitem__, chain.from_iterable(token_lists)),
            dtype=np.intp,
            count=sum(lengths),
        )
        cells += np.repeat(np.arange(rows, dtype=np.intp) * dim, lengths)
        # unit weights make bincount count in float64, except that it
        # returns ints when there is no token at all
        counts = np.bincount(cells, weights=np.ones(len(cells)), minlength=rows * dim)
        matrix = counts.astype(np.float64, copy=False).reshape(rows, dim)
        norms = np.linalg.norm(matrix, axis=1)
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


@dataclass(frozen=True)
class IntentDoc:
    symbol_id: int
    qualified_name: str
    kind: str
    text: str
    vector: tuple[float, ...]


@dataclass(frozen=True)
class IntentIndex:
    """Intent documents plus ``matrix``, their vectors as one C-contiguous
    float64 array of shape (docs, dim) that every query multiplies.

    ``matrix`` holds the same vectors as ``docs``: built once, when the
    index is built or loaded (or here, from the docs, when it is not
    given); it takes no part in equality. ``to_dict`` writes it out only
    for providers other than the hash embedder."""

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
        Raises ``ValueError`` on a bad ``dim``, a doc that is not a real
        symbol, or stored vectors that are not ``dim`` finite numbers per
        doc."""
        dim = data["dim"]
        if type(dim) is not int or dim < 1:
            raise ValueError(f"intent dim must be a positive int, not {dim!r}")
        ids, texts = read_columns(data["docs"], {"symbol_id": int, "text": str})
        if ids and not 0 <= min(ids) <= max(ids) < len(symbols):
            raise ValueError("intent doc symbol_id out of range")
        records = [symbols[i] for i in ids]
        if any(r.is_synthetic for r in records):
            raise ValueError("intent doc names a synthetic symbol")
        provider = HashEmbeddingProvider(dim)
        if data["provider_name"] == provider.name:
            matrix = provider.embed_tokens([tokenize(t) for t in texts])
            vectors = map(_sparse_tuple, matrix)
        else:
            matrix = _decode_matrix(data["vectors"], len(texts), dim)
            vectors = map(tuple, matrix.tolist())
        return IntentIndex(
            provider_name=data["provider_name"],
            dim=dim,
            repo_snapshot=data["repo_snapshot"],
            docs=tuple(
                IntentDoc(r.symbol_id, r.qualified_name, r.kind.value, t, v)
                for r, t, v in zip(records, texts, vectors)
            ),
            matrix=matrix,
        )


def _decode_matrix(encoded: str, rows: int, dim: int) -> np.ndarray:
    # anything but a str is a TypeError, and any other size a ValueError
    raw = base64.b64decode(encoded, validate=True)
    matrix = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, dim)
    # NaN or infinity would drop docs from every top-k silently
    if not np.isfinite(matrix).all():
        raise ValueError("intent vectors hold a non-finite entry")
    return matrix


def _sparse_tuple(row: np.ndarray) -> tuple[float, ...]:
    """``tuple(row.tolist())`` in which every zero is the same ``0.0``
    object: most of a hashed vector is zero, so this saves a float object
    per zero entry."""
    cells = [0.0] * len(row)
    nonzero = np.flatnonzero(row)
    for col, value in zip(nonzero.tolist(), row[nonzero].tolist()):
        cells[col] = value
    return tuple(cells)


def build_intent_index(index: StructuralIndex, provider=None) -> IntentIndex:
    """One intent document per real (non-synthetic) symbol, embedded in
    symbol id order."""
    provider = provider or HashEmbeddingProvider()
    records = [r for r in index.symbols if not r.is_synthetic]
    lines = {path: text.split("\n") for path, text in index.sources.items()}
    parts = [
        _summary_parts(r, snippet_of(lines.get(r.location.file), r))
        for r in records
    ]
    texts = [" ".join(p) for p in parts]
    if isinstance(provider, HashEmbeddingProvider):
        # every part is a lowercase word or a run of digits; tokenizing the
        # joined text again would keep the words and drop the digit runs
        matrix = provider.embed_tokens(
            [[w for w in p if not w.isdigit()] for p in parts]
        )
        vectors = [_sparse_tuple(row) for row in matrix]
    else:
        vectors = provider.embed_many(texts)
        matrix = np.array(vectors, dtype=np.float64)
        matrix = matrix.reshape(len(texts), provider.dim)
    docs = tuple(
        IntentDoc(
            symbol_id=r.symbol_id,
            qualified_name=r.qualified_name,
            kind=r.kind.value,
            text=t,
            vector=v,
        )
        for r, t, v in zip(records, texts, vectors)
    )
    return IntentIndex(
        provider_name=provider.name,
        dim=provider.dim,
        repo_snapshot=index.repo_snapshot,
        docs=docs,
        matrix=matrix,
    )


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
    scores = intent.matrix @ np.asarray(provider.embed(text), dtype=np.float64)
    n = len(scores)
    if k < n:
        # every doc scoring at least the k-th best, so ties at the
        # boundary are ordered like the rest
        kth = scores[np.argpartition(scores, n - k)[n - k]]
        candidates = np.flatnonzero(scores >= kth).tolist()
    else:
        candidates = range(n)
    docs, values = intent.docs, scores.tolist()
    ranked = sorted(
        candidates,
        key=lambda i: (-values[i], docs[i].qualified_name, docs[i].symbol_id),
    )
    return [
        {
            "symbol_id": docs[i].symbol_id,
            "qualified_name": docs[i].qualified_name,
            "kind": docs[i].kind,
            "score": values[i],
        }
        for i in ranked[:k]
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
