"""Frozen copy of the intent tokenizer, summarizer, hash embedder and
top-k query that `cppatlas.intent` replaced with a memoized embedder and
a matrix built once per index, and of `cppatlas.queries.snippet_for`,
which split the file again for every symbol.

It is the reference `test_intent.py` compares the new code against.
Nothing in `src/` imports it; do not edit it to match `cppatlas.intent`.
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
    if not intent.docs:
        raise EmptyIndex("intent index has no documents")
    provider = provider or HashEmbeddingProvider()
    if provider.name != intent.provider_name:
        raise ProviderUnavailable(
            f"index was built with {intent.provider_name!r}, "
            f"queried with {provider.name!r}"
        )
    query_vec = np.asarray(provider.embed(text), dtype=np.float64)
    matrix = np.asarray([d.vector for d in intent.docs], dtype=np.float64)
    scores = matrix @ query_vec
    ranked = sorted(
        zip(intent.docs, scores),
        key=lambda pair: (-pair[1], pair[0].qualified_name, pair[0].symbol_id),
    )
    return [
        {
            "symbol_id": doc.symbol_id,
            "qualified_name": doc.qualified_name,
            "kind": doc.kind,
            "score": float(score),
        }
        for doc, score in ranked[:k]
    ]
