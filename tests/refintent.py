"""Frozen copy of the intent tokenizer, summarizer, hash embedder and
top-k query that `cppatlas.intent` replaced with a memoized embedder and
a matrix built once per index, and of `cppatlas.queries.snippet_for`,
which split the file again for every symbol.

It is the reference `test_intent.py` compares the new code against.
Nothing in `src/` imports it; do not edit it to match `cppatlas.intent`.

It also keeps `candidate_rows` and `row_scores`, the postings query's
candidate selection and block products before the candidates' blocks
were gathered into stacks: the k-th best postings sum read by a partition
of all n sums, and one product per run of blocks at most `_GAP` apart.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from cppatlas.errors import BadRequest, EmptyIndex, ProviderUnavailable
from cppatlas.model import SymbolRecord

_SNIPPET_MAX_LINES = 12


def snippet_for(index, record: SymbolRecord) -> str:
    content = index.sources.get(record.location.file)
    if content is None:
        return ""
    lines = content.split("\n")
    start = record.location.start_line
    end = min(record.location.end_line, start + _SNIPPET_MAX_LINES - 1)
    chunk = lines[start - 1 : end]
    if end < record.location.end_line:
        chunk.append("...")
    return "\n".join(chunk)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")


def split_identifier(ident: str) -> list[str]:
    """snake_case and camelCase segments, lowercased."""
    out: list[str] = []
    for chunk in ident.split("_"):
        for part in _CAMEL_RE.findall(chunk):
            out.append(part.lower())
    return out


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for ident in _IDENT_RE.findall(text):
        tokens.extend(split_identifier(ident))
    return tokens


def summarize_artifact(record: SymbolRecord, snippet: str) -> str:
    """Flat text summary of one symbol: kind, name parts, scope parts,
    signature, doc comment and body identifiers. Token repetition is
    intentional; it becomes term frequency."""
    parts: list[str] = [record.kind.value.replace("_", " ")]
    parts.extend(split_identifier(record.name))
    for segment in record.qualified_name.split("::"):
        parts.extend(split_identifier(segment))
    parts.extend(tokenize(record.signature))
    parts.extend(tokenize(record.template_params))
    parts.extend(tokenize(record.doc_comment))
    parts.extend(tokenize(snippet))
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
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in tokenize(text):
            digest = hashlib.sha1(token.encode("utf-8")).hexdigest()
            vec[int(digest, 16) % self.dim] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return tuple(float(x) for x in vec)

    def embed_many(self, texts: list[str]) -> list[tuple[float, ...]]:
        return [self.embed(t) for t in texts]


def query_code_intent(
    intent, text: str, k: int = 10, provider=None
) -> list[dict]:
    """Top-k symbols by cosine similarity against the query embedding.
    Ties break lexicographically on qualified name, then id."""
    if k < 1:
        raise BadRequest("k must be >= 1")
    if not intent.symbol_ids:
        raise EmptyIndex("intent index has no documents")
    provider = provider or HashEmbeddingProvider()
    if provider.name != intent.provider_name:
        raise ProviderUnavailable(
            f"index was built with {intent.provider_name!r}, "
            f"queried with {provider.name!r}"
        )
    query_vec = np.asarray(provider.embed(text), dtype=np.float64)
    matrix = np.array(intent.matrix, dtype=np.float64)
    scores = matrix @ query_vec
    ids, names = intent.symbol_ids, intent.qualified_names
    ranked = sorted(
        range(len(ids)), key=lambda i: (-scores[i], names[i], ids[i])
    )
    return [
        {
            "symbol_id": ids[i],
            "qualified_name": names[i],
            "kind": intent.kinds[i],
            "score": float(scores[i]),
        }
        for i in ranked[:k]
    ]


# ---------------------------------------------------------------------------
# the postings query's candidate rows and block products, as they were

_PRODUCT_CELLS = 1 << 18
_GAP = 8


def candidate_rows(postings: tuple, query: np.ndarray, buckets: np.ndarray,
                   n: int, k: int) -> np.ndarray | None:
    """The rows whose score may be at least the k-th best: those whose
    score summed over the query's ``buckets`` postings is within a rounding
    margin of the k-th best such sum. None when the margin is not finite."""
    offsets, rows, values, top = postings
    weights = query[buckets]
    spans = [slice(offsets[b], offsets[b + 1]) for b in buckets.tolist()]
    approx = np.bincount(
        np.concatenate([rows[s] for s in spans]),
        weights=np.concatenate(
            [values[s] * w for s, w in zip(spans, weights.tolist())]
        ),
        minlength=n,
    )
    kth = np.partition(approx, n - k)[n - k]
    dim = len(query)
    slack = (4 * dim * np.finfo(np.float64).eps * top * float(np.abs(weights).sum())
             + dim * np.finfo(np.float64).tiny)
    if not np.isfinite(kth - slack):
        return None
    return np.flatnonzero(approx >= kth - slack)


def row_scores(matrix: np.ndarray, query: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """``(matrix @ query)[rows]`` for ascending ``rows``, read from products
    over the whole blocks that hold them. Blocks at most ``_GAP`` apart
    share one product, which covers the blocks between them too, and no
    product spans more than ``_PRODUCT_CELLS`` cells."""
    n, dim = matrix.shape
    last = max(n // 4, 1) - 1
    blocks = np.minimum(rows >> 2, last)
    # the last block holds up to 3 more rows than the others
    per_product = max((_PRODUCT_CELLS // dim - 3) // 4, 1)
    runs = blocks // per_product
    cuts = np.flatnonzero(
        (blocks[1:] - blocks[:-1] > _GAP) | (runs[1:] != runs[:-1])
    ) + 1
    firsts = blocks[np.append(0, cuts)].tolist()
    finals = blocks[np.append(cuts, len(blocks)) - 1].tolist()
    scores = np.empty(n)
    for first, final in zip(firsts, finals):
        lo, hi = 4 * first, n if final == last else 4 * final + 4
        scores[lo:hi] = matrix[lo:hi] @ query
    return scores[rows]
