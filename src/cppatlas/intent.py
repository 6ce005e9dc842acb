"""Code intent index: embeds a textual summary of every symbol and
answers natural-language queries by cosine similarity.

The built-in provider is a deterministic hashed term-frequency embedder,
so two builds over identical sources produce identical vectors with no
model weights involved. An external provider can be plugged in through a
subprocess command that reads texts as JSON and writes vectors back.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRequest,
    EmptyIndex,
    NoSeedsResolved,
    ProviderUnavailable,
    SnapshotMismatch,
)
from .index import StructuralIndex
from .model import SymbolRecord
from .queries import defect_subgraph, snippet_for
from .repo import IssueDescription

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

    def to_dict(self) -> dict:
        return {
            "symbol_id": self.symbol_id,
            "qualified_name": self.qualified_name,
            "kind": self.kind,
            "text": self.text,
            "vector": list(self.vector),
        }

    @staticmethod
    def from_dict(data: dict) -> "IntentDoc":
        return IntentDoc(
            symbol_id=data["symbol_id"],
            qualified_name=data["qualified_name"],
            kind=data["kind"],
            text=data["text"],
            vector=tuple(float(x) for x in data["vector"]),
        )


@dataclass(frozen=True)
class IntentIndex:
    provider_name: str
    dim: int
    repo_snapshot: str
    docs: tuple[IntentDoc, ...]

    def to_dict(self) -> dict:
        return {
            "provider_name": self.provider_name,
            "dim": self.dim,
            "repo_snapshot": self.repo_snapshot,
            "docs": [d.to_dict() for d in self.docs],
        }

    @staticmethod
    def from_dict(data: dict) -> "IntentIndex":
        return IntentIndex(
            provider_name=data["provider_name"],
            dim=data["dim"],
            repo_snapshot=data["repo_snapshot"],
            docs=tuple(IntentDoc.from_dict(d) for d in data["docs"]),
        )


def build_intent_index(index: StructuralIndex, provider=None) -> IntentIndex:
    """One intent document per real (non-synthetic) symbol, embedded in
    symbol id order."""
    provider = provider or HashEmbeddingProvider()
    records = [r for r in index.symbols if not r.is_synthetic]
    texts = [summarize_artifact(r, snippet_for(index, r)) for r in records]
    vectors = provider.embed_many(texts)
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
    )


def query_code_intent(
    intent: IntentIndex, text: str, k: int = 10, provider=None
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
