"""Code intent index: embeds a textual summary of every symbol and
answers natural-language queries by cosine similarity. An index is four
columns, one row per symbol, and one matrix of their vectors. With the hash
embedder, a build or a load keeps the summaries only, and the first query
that reads the matrix embeds them all.

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
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    BadRequest,
    EmptyIndex,
    NoSeedsResolved,
    ProviderUnavailable,
    SnapshotMismatch,
)
from .index import StructuralIndex, read_columns
from .model import Joined, SymbolRecord
from .queries import DEFAULT_HOPS, defect_subgraph, snippet_rows, snippet_window
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
    signature, template parameters, doc comment and body identifiers, as
    runs of lowercase letters or digits joined by single spaces. Token
    repetition is intentional; it becomes term frequency."""
    return _summary(record.kind.value, record.name, _scope_parts(record.qualified_name),
                    (record.signature, record.template_params, record.doc_comment),
                    tokenize, tokenize(snippet))


def _scope_parts(qualified_name: str) -> list[str]:
    return list(chain.from_iterable(map(_segments, qualified_name.split("::"))))


def _summary(kind: str, name: str, scope_parts, fields, field_tokens,
             snippet_tokens) -> str:
    """``summarize_artifact`` given the record's kind value, name and scope
    parts, its signature, template parameters and doc comment
    (``fields``), a function from a field to its tokens, and the snippet's
    tokens."""
    # "member_function" gives two parts, so the text still reads
    # "member function"
    parts = kind.split("_")
    parts.extend(_segments(name))
    parts.extend(scope_parts)
    for text in fields:
        parts.extend(field_tokens(text))
    parts.extend(snippet_tokens)
    return " ".join(parts)


class _Memo(dict):
    """A missing key's value is ``derive(key)``, made once and kept."""

    def __init__(self, derive):
        super().__init__()
        self.derive = derive

    def __missing__(self, key):
        value = self[key] = self.derive(key)
        return value


def _summaries(symbols, ids, lines: dict[str, list[str]]) -> list[str]:
    """``summarize_artifact(r, snippet_of(lines.get(r.location.file), r))``
    of the record ``r`` of each of ``ids``, read from the ``symbols``
    columns, with each qualified name's scope parts, each field's tokens
    and each source line's tokens derived once. A snippet's tokens are its
    rows' tokens in order, since no identifier spans a "\n" and "..." holds
    none. The three memos are kept apart: a qualified name's parts are not
    its ``tokenize``."""
    scopes, fields, line_tokens = _Memo(_scope_parts), _Memo(tokenize), _Memo(tokenize)
    kinds = [kind.value for kind in symbols.kinds]
    file_lines = [lines.get(path) for path in symbols.files]
    texts = []
    columns = (symbols.kind, symbols.name, symbols.qualified_name, symbols.file,
               symbols.start_line, symbols.end_line, symbols.signature,
               symbols.template_params, symbols.doc_comment)
    for kind, name, qualified, file, start, end, *field_texts in zip(
            *(map(column.__getitem__, ids) for column in columns)):
        rows = file_lines[file]
        snippet = () if rows is None else chain.from_iterable(
            map(line_tokens.__getitem__, snippet_window(rows, start, end)))
        texts.append(_summary(kinds[kind], name, scopes[qualified], field_texts,
                              fields.__getitem__, snippet))
    return texts


DEFAULT_DIM = 256  # hash embedding width
DEFAULT_K = 10  # intent hits per query


class HashEmbeddingProvider:
    """Hashed term-frequency embedding: sha1(token) picks one of ``dim``
    buckets, counts are L2-normalized. Fully deterministic."""

    def __init__(self, dim: int = DEFAULT_DIM):
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
        texts = list(texts)  # each text read once, whatever holds them
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
        try:  # a reply of any shape, or nested too deep
            vectors = json.loads(proc.stdout.decode("utf-8"))["vectors"]
            matrix = np.array(vectors, dtype=np.float64)
        except (ValueError, KeyError, TypeError, RecursionError,
                OverflowError) as exc:
            raise ProviderUnavailable(f"bad embedding output: {exc!r}") from exc
        if type(vectors) is not list or len(vectors) != len(texts) or (
                vectors and matrix.shape[1:] != (self.dim,)):
            raise ProviderUnavailable(
                f"embedding output is not {len(texts)} vectors of {self.dim}")
        if not np.isfinite(matrix).all():
            raise ProviderUnavailable("embedding has a non-finite entry")
        out = []
        for arr in matrix:
            norm = float(np.linalg.norm(arr))
            if norm > 0.0:
                arr = arr / norm
            out.append(tuple(float(x) for x in arr))
        return out

    def embed(self, text: str) -> tuple[float, ...]:
        return self.embed_many([text])[0]


_COLUMNS = ("symbol_ids", "qualified_names", "kinds", "texts")


class _Doc(NamedTuple):
    symbol_id: int
    qualified_name: str
    kind: str
    text: str
    vector: np.ndarray  # a row of the index's matrix


@dataclass(frozen=True)
class IntentIndex:
    """Intent documents as four parallel columns, one row per document:
    ``symbol_ids``, ``qualified_names`` and ``kinds``, tuples, and
    ``texts``, a ``model.Joined`` (given any other sequence, the
    constructor makes the ``Joined`` of it), which a load reads from the
    section it decoded; plus ``matrix``, their vectors as one C-contiguous,
    read-only float64 array of shape (docs, dim) that queries multiply.

    The last field is the matrix of a provider other than the hash
    embedder, or None for the hash embedder: then the first read of
    ``matrix`` (by a query or by equality) embeds the texts. ``matrix`` and
    the bucket ``postings`` are derived on first use and kept. Two indexes
    are equal only if their columns are equal and their matrices are equal
    bit for bit; ``to_dict`` writes the matrix only for providers other
    than the hash embedder."""

    provider_name: str
    dim: int
    repo_snapshot: str
    symbol_ids: tuple[int, ...]
    qualified_names: tuple[str, ...]
    kinds: tuple[str, ...]
    texts: Joined
    # the given matrix, or None to embed the texts with the hash embedder
    _rows: np.ndarray | None = field(repr=False, compare=False)

    def __post_init__(self):
        for name in _COLUMNS[:3]:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if type(self.texts) is not Joined:
            object.__setattr__(self, "texts", Joined.of(self.texts))

    @cached_property
    def docs(self) -> tuple[_Doc, ...]:
        """One ``(symbol_id, qualified_name, kind, text, vector)`` tuple per
        doc, ``vector`` its row of ``matrix``. No tool reads it; it exists
        for ``perfbench/oracle.py`` and ``perfbench/worker.py``, and goes
        when they read the columns."""
        return tuple(map(_Doc, self.symbol_ids, self.qualified_names,
                         self.kinds, self.texts, self.matrix))

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = self._rows
        if matrix is None:
            matrix = HashEmbeddingProvider(self.dim).embed_texts(self.texts)
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def postings(self) -> tuple:
        """The matrix's bucket postings, or () when more than one cell in
        ``_SPARSE`` is nonzero: CSR offsets by bucket, the row of each
        entry, ascending within its bucket, the entry's value, and the
        largest absolute value. The arrays are read-only. Derived on the
        first query that reads them."""
        matrix, dim = self.matrix, self.matrix.shape[1]
        nonzero = matrix != 0
        if np.count_nonzero(nonzero) * _SPARSE > nonzero.size:
            return ()
        cells = np.flatnonzero(nonzero)
        rows, buckets = np.divmod(cells, dim)
        # numpy sorts ints of up to 16 bits stably by radix
        narrow = buckets.astype(np.min_scalar_type(dim - 1))
        order = np.argsort(narrow, kind="stable")
        values = matrix.ravel()[cells[order]]
        offsets = np.zeros(dim + 1, dtype=np.intp)
        np.cumsum(np.bincount(buckets, minlength=dim), out=offsets[1:])
        top = float(np.abs(values).max()) if len(values) else 0.0
        arrays = offsets, rows[order].astype(np.int32), values
        for array in arrays:
            array.flags.writeable = False
        return *arrays, top

    def _key(self) -> tuple:
        return (self.provider_name, self.dim, self.repo_snapshot,
                *(getattr(self, name) for name in _COLUMNS))

    def __eq__(self, other):
        if not isinstance(other, IntentIndex):
            return NotImplemented
        return (
            self._key() == other._key()
            and self.matrix.shape == other.matrix.shape
            and self.matrix.tobytes() == other.matrix.tobytes()
        )

    def to_dict(self) -> dict:
        """Docs as one ``text`` column, one text per real symbol in id order:
        their ids, qualified names and kinds are the structural index's
        ``real`` rows. The hash provider's vectors are left out, since they
        are embedded from the text; any other provider's matrix is one
        base64 string of little-endian float64, row by row."""
        return {**self.header(), "docs": {"text": list(self.texts)}}

    def header(self) -> dict:
        """``to_dict`` but the texts, which an index file holds as a section
        of their own."""
        data = {
            "provider_name": self.provider_name,
            "dim": self.dim,
            "repo_snapshot": self.repo_snapshot,
        }
        if self.provider_name != HashEmbeddingProvider(self.dim).name:
            raw = self.matrix.astype("<f8").tobytes()
            data["vectors"] = base64.b64encode(raw).decode("ascii")
        return data

    @staticmethod
    def from_dict(data: dict, structural: StructuralIndex) -> "IntentIndex":
        """Rebuild an index from ``to_dict`` output over the ``structural``
        index it was built from, whose ``real`` rows give the docs their
        ids, qualified names and kinds. The ``text`` of ``docs`` is a list
        of str, or the ``Joined`` a load read from the file's section. For
        the hash embedder the matrix is left None, so the first read of
        ``matrix`` embeds the texts. Raises ``ValueError`` on a bad
        ``dim``, a name or snapshot that is not a string, a count of texts
        other than the real symbols', or stored vectors that are not
        ``dim`` finite numbers per doc."""
        provider_name, dim, snapshot = (
            data["provider_name"], data["dim"], data["repo_snapshot"]
        )
        if type(dim) is not int or dim < 1:
            raise ValueError(f"intent dim must be a positive int, not {dim!r}")
        if type(provider_name) is not str or type(snapshot) is not str:
            raise ValueError("intent provider_name and repo_snapshot must be strings")
        texts = data["docs"]["text"]
        if type(texts) is not Joined:
            (texts,) = read_columns(data["docs"], {"text": str})
        if len(texts) != len(structural.real[0]):
            raise ValueError(f"{len(texts)} intent texts for "
                             f"{len(structural.real[0])} real symbols")
        rows = None
        if provider_name != HashEmbeddingProvider(dim).name:
            rows = _decode_matrix(data["vectors"], len(texts), dim)
        return IntentIndex(provider_name, dim, snapshot, *structural.real, texts, rows)


def _decode_matrix(encoded: str, rows: int, dim: int) -> np.ndarray:
    # anything but a str is a TypeError, and any other size a ValueError
    raw = base64.b64decode(encoded, validate=True)
    matrix = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, dim)
    # NaN or infinity would drop docs from every top-k silently
    if not np.isfinite(matrix).all():
        raise ValueError("intent vectors hold a non-finite entry")
    return matrix


def build_intent_index(index: StructuralIndex, provider=None) -> IntentIndex:
    """One intent document per real (non-synthetic) symbol, in symbol id
    order, kept as columns, each text its ``summarize_artifact`` made in
    one batch (``_summaries``). For the hash embedder the matrix is left
    None, so the first read of ``matrix`` embeds the texts; any other
    provider embeds them here."""
    provider = provider or HashEmbeddingProvider()
    ids, names, kinds = index.real
    lines = {path: snippet_rows(text) for path, text in index.sources.items()}
    texts = _summaries(index.symbols, ids, lines)
    rows = None
    if not isinstance(provider, HashEmbeddingProvider):
        rows = np.array(provider.embed_many(texts), dtype=np.float64)
        rows = rows.reshape(len(texts), provider.dim)
    return IntentIndex(provider.name, provider.dim, index.repo_snapshot, ids, names,
                       kinds, texts, rows)


# A score is read from a product over whole aligned 4-row blocks of the
# matrix: block b holds rows 4b to 4b + 3, and the last block runs on to the
# matrix's end, so it also holds the n % 4 tail rows. OpenBLAS's
# matrix-vector kernels take rows four at a time and the tail rows with
# narrower kernels. So a product over whole blocks, a slice of the matrix or
# a stack of blocks gathered from it, gives each of its rows the bits that
# the full product gives it, if the last block, whose tail rows must end
# their product, is in a slice; a product over any other set of rows, or
# over a single row, may differ in the last bit. OpenBLAS splits a product
# of about 460,000 cells (1,800 rows at dim 256) or more over its threads,
# and each thread's leftover rows take the narrower kernels. So no product
# here spans more than 2**18 cells (1,023 rows at dim 256), and a score
# equals the single-threaded full product's whatever the thread count.
_PRODUCT_CELLS = 1 << 18
# Postings are read only when the matrix and the query each hold nonzeros in
# at most one cell in _SPARSE. A posting entry costs several times what a
# cell of the dense product costs (a gather, a multiply and a bincount add
# against one fused multiply-add), and a dense matrix's postings would
# outweigh the matrix. The hash embedder's docs fill about 5% of their cells
# and its queries about 2%; an external provider's vectors are dense. A
# matrix of at most _PRODUCT_CELLS cells never gets postings: one product
# over all of it costs less than a query through them (27 against 54 us on
# a 24-doc index at dim 256, about 300 us when the query derives them).
_SPARSE = 8
# read once, not on every postings query
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


def _candidate_rows(postings: tuple, query: np.ndarray, buckets: np.ndarray,
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
    # The k-th best sum is the (n - k)-th in ascending order, where the n
    # sums are the touched rows' negative ones, the untouched rows' zeros,
    # then the touched rows' others (NaN last, as np.partition puts it).
    touched = np.flatnonzero(approx != 0)
    sums = approx[touched]
    below = np.count_nonzero(sums < 0)
    at = n - k if n - k < below else len(sums) - k  # its place in sums
    kth = np.partition(sums, at)[at] if n - k < below or at >= below else 0.0
    # A sum of d products m_i * q_i, in any order, fused or not, is off by
    # at most about d * eps / 2 times the sum of |m_i * q_i|, which is at
    # most top * sum |q_i|, plus far less than d * tiny from underflow. A
    # row's postings sum and its product (d <= dim for each) thus differ by
    # at most about dim * eps times that, and every row of the exact top k
    # has a postings sum of at least kth less twice it. The slack doubles
    # that again, to cover the rounding of the bound itself.
    dim = len(query)
    slack = 4 * dim * _EPS * top * float(np.abs(weights).sum()) + dim * _TINY
    if not np.isfinite(kth - slack):
        return None
    if kth - slack > 0:  # no untouched row, whose sum is 0, is a candidate
        return touched[sums >= kth - slack]
    return np.flatnonzero(approx >= kth - slack)


def _row_scores(matrix: np.ndarray, query: np.ndarray,
                rows: np.ndarray | None) -> np.ndarray:
    """``matrix @ query``, or its ``rows`` (ascending) when given, read
    from products of at most ``_PRODUCT_CELLS`` cells over whole blocks:
    slices of the matrix for all of it, else the blocks that hold ``rows``
    gathered into stacks, and the last block's own slice."""
    n, dim = matrix.shape
    last = max(n // 4, 1) - 1
    # the last block holds up to 3 more rows than the others
    per_product = max((_PRODUCT_CELLS // dim - 3) // 4, 1)
    scores = np.empty(n)
    if rows is None:
        for first in range(0, last + 1, per_product):
            hi = n if first + per_product > last else 4 * (first + per_product)
            scores[4 * first:hi] = matrix[4 * first:hi] @ query
        return scores
    blocks = np.minimum(rows >> 2, last)
    blocks = blocks[np.append(True, blocks[1:] != blocks[:-1])]
    if blocks[-1] == last:
        scores[4 * last:] = matrix[4 * last:] @ query
        blocks = blocks[:-1]
    stacked = matrix[: 4 * last].reshape(last, 4, dim)
    grid = scores[: 4 * last].reshape(last, 4)
    for first in range(0, len(blocks), per_product):
        part = blocks[first:first + per_product]
        grid[part] = (np.take(stacked, part, axis=0).reshape(-1, dim) @ query
                      ).reshape(-1, 4)
    return scores[rows]


def query_code_intent(
    intent: IntentIndex, text: str, k: int = DEFAULT_K, provider=None
) -> list[dict]:
    """Top-k symbols by cosine similarity against the query embedding.
    Ties break lexicographically on qualified name, then id.

    Every score equals the full single-threaded ``matrix @ query``, bit for
    bit, for any BLAS thread count. When the matrix is larger than one
    product (``_PRODUCT_CELLS``) and the matrix and the query are both
    sparse (see ``_SPARSE``), the query's bucket postings pick the rows
    that may be in the top k, and only their 4-row blocks are gathered and
    multiplied: the cost is set by the rows those postings touch, plus a
    few fast passes over one value per doc, not by the whole matrix.
    Otherwise every block is multiplied. Either way only the rows scoring
    at least the k-th best are sorted."""
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
    if isinstance(provider, HashEmbeddingProvider):
        query = provider.embed_texts([text])[0]
    else:
        query = np.asarray(provider.embed(text), dtype=np.float64)
    matrix = intent.matrix
    n, dim = matrix.shape
    rows = None
    buckets = np.flatnonzero(query)
    if (k < n and n * dim > _PRODUCT_CELLS and query.shape == (dim,)
            and 0 < len(buckets) * _SPARSE <= dim):
        postings = intent.postings
        if postings:
            rows = _candidate_rows(postings, query, buckets, n, k)
    scores = _row_scores(matrix, query, rows)
    if rows is None:
        rows = np.arange(n)
    if k < len(rows):
        # every row scoring at least the k-th best, so ties at the
        # boundary are ordered like the rest
        keep = scores >= np.partition(scores, len(rows) - k)[len(rows) - k]
        rows, scores = rows[keep], scores[keep]
    ids, names = intent.symbol_ids, intent.qualified_names
    ranked = sorted(
        zip(scores.tolist(), rows.tolist()),
        key=lambda c: (-c[0], names[c[1]], ids[c[1]]),
    )
    return [
        {
            "symbol_id": ids[i],
            "qualified_name": names[i],
            "kind": intent.kinds[i],
            "score": score,
        }
        for score, i in ranked[:k]
    ]


def localize(
    structural: StructuralIndex,
    intent: IntentIndex,
    issue: IssueDescription,
    k: int = DEFAULT_K,
    hops: int = DEFAULT_HOPS,
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
