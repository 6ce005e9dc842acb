"""Correctness checks that never take cppatlas output as the truth.

The truth is corpusgen's expected model (rewritten by ``corpus.py``),
``tests/refquery.py`` brute force, an exhaustive numpy cosine scan, and
line scans of the generated files. cppatlas records are only used to name
things: the shape-key bijection from ``refquery.build_id_map``, and the ids
of file roots and ``unresolved:`` sentinels, which the model has no ids for.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

import corpusgen
import refquery
from corpusgen import CLASS_KINDS, Corpus

from cppatlas.model import UNRESOLVED_PREFIX, EdgeKind, SymbolKind

def _key(rec) -> tuple:
    return (rec.qualified_name, rec.signature, rec.is_definition,
            rec.location.file, rec.location.start_line)


def _real(index):
    return [r for r in index.symbols if not r.is_synthetic]


def _resolver(corpus: Corpus):
    """corpusgen's call resolution with its tables built once."""
    table = corpusgen._by_qualified(corpus)
    children = corpusgen._children(corpus)
    return lambda call: corpusgen._resolve(
        table, children, call.caller, call.callee_text, call.ctor_style)


def index_mismatches(index, corpus: Corpus, mode: str) -> list[str]:
    """Names of the model facts the structural index gets wrong: symbol
    shapes (kind, names, signature, doc, paths and lines), containment,
    call sites, inheritance, overload pairs and overrides.

    Overrides are checked in distinct mode only: corpusgen derives them
    from inheritance keyed by qualified name, which the replicated layout
    makes ambiguous (one qualified name, one class per seed)."""
    bad = []
    actual_shapes = sorted(
        (r.kind.value, r.qualified_name, r.signature, r.is_definition,
         r.doc_comment, r.location.file, r.location.start_line,
         r.location.end_line, r.is_virtual, r.has_override)
        for r in _real(index))
    if actual_shapes != corpusgen.expected_symbol_shapes(corpus):
        bad.append("symbol_shapes")

    contains = set()
    for e in index.edges:
        if e.kind is not EdgeKind.CONTAINS:
            continue
        child, parent = index.symbols[e.dst], index.symbols[e.src]
        if child.is_synthetic:
            continue
        if parent.is_synthetic:
            parent_key = ("<root>", parent.location.file)
        else:
            parent_key = (parent.qualified_name, parent.location.file,
                          parent.location.start_line)
        contains.add((parent_key, _key(child)))
    if contains != corpusgen.expected_contains(corpus):
        bad.append("contains")

    resolve = _resolver(corpus)
    expected_calls = []
    for call in corpus.raw_calls:
        got = resolve(call)
        callee = (("free_function", f"{UNRESOLVED_PREFIX}{call.callee_text}",
                   "", False) if got is None else
                  (got.kind, got.qualified, got.signature, got.is_definition))
        expected_calls.append((call.caller.qualified, call.caller.signature,
                               callee, call.file, call.line))
    actual_calls = []
    for site in index.call_sites:
        caller, callee = index.symbols[site.caller], index.symbols[site.callee]
        actual_calls.append((
            caller.qualified_name, caller.signature,
            (callee.kind.value, callee.qualified_name, callee.signature,
             callee.is_definition),
            site.location.file, site.location.start_line))
    if sorted(actual_calls) != sorted(expected_calls):
        bad.append("calls")

    by_kind: dict[EdgeKind, list] = {k: [] for k in EdgeKind}
    for e in index.edges:
        by_kind[e.kind].append((index.symbols[e.src], index.symbols[e.dst]))
    inherits = {(s.qualified_name, d.qualified_name)
                for s, d in by_kind[EdgeKind.INHERITS_FROM]}
    if inherits != corpusgen.expected_inherits(corpus):
        bad.append("inherits_from")
    overloads = {frozenset({_key(s), _key(d)})
                 for s, d in by_kind[EdgeKind.OVERLOAD_OF]}
    if overloads != corpusgen.expected_overload_pairs(corpus):
        bad.append("overload_of")
    if mode == "replicated":
        return bad
    overrides = {((s.qualified_name, s.signature),
                  (d.qualified_name, d.signature))
                 for s, d in by_kind[EdgeKind.OVERRIDES]}
    if overrides != corpusgen.expected_overrides(corpus):
        bad.append("overrides")
    return bad


# ---------------------------------------------------------------------------
# tool answers on a distinct-mode corpus


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SEGMENT_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")


def _embed(text: str, dim: int) -> np.ndarray:
    """Hashed term frequency, written from the documented rule: every
    snake_case or camelCase segment of every identifier, lowercased, adds
    one to the bucket its sha1 picks; the counts are L2-normalized."""
    vec = np.zeros(dim, dtype=np.float64)
    for ident in _IDENT_RE.findall(text):
        for chunk in ident.split("_"):
            for seg in _SEGMENT_RE.findall(chunk):
                bucket = int(hashlib.sha1(seg.lower().encode("utf-8")).hexdigest(), 16)
                vec[bucket % dim] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


class ToolOracle:
    """Expected server responses for requests over a distinct-mode corpus,
    where every qualified name lives in exactly one corpusgen seed."""

    def __init__(self, corpus: Corpus, parts: dict[int, Corpus], index,
                 intent):
        self.corpus = corpus
        self.parts = parts
        self.m = refquery.build_id_map(corpus, index)
        self.records = index.symbols
        self.files = corpus.files
        self.intent = intent
        self.matrix = np.asarray([d.vector for d in intent.docs],
                                 dtype=np.float64)
        self._adj = None

    def check(self, request: dict, response: dict) -> bool:
        tool, args = request["tool"], request["arguments"]
        part = self.parts.get(request["seed"])
        if tool == "FindClass":
            want = refquery.outcome(refquery.ref_find_class, part, self.m,
                                    args["name"])
            got = self._got(response, lambda r: r["record"]["symbol_id"])
        elif tool == "FindFunction":
            want = refquery.outcome(refquery.ref_find_function, part, self.m,
                                    args["name"], args.get("signature"))
            got = self._got(response, lambda r: [
                match["record"]["symbol_id"] for match in r["matches"]])
        elif tool == "GetInheritanceChain":
            want = refquery.outcome(refquery.ref_inheritance, part, self.m,
                                    args["name"], args["direction"])
            got = self._got(response, lambda r: r)
        elif tool == "GetFunctionCalls":
            want = refquery.outcome(refquery.ref_calls, part, self.m,
                                    args["name"], args["signature"],
                                    args["direction"])
            got = self._got(response, self._normal_calls)
        elif tool == "QueryCodeIntent":
            want = ("ok", self._intent_hits(args["text"], args["k"]))
            got = self._got(response, lambda r: r["hits"])
        elif tool == "GrepBaseline":
            want = ("ok", self._grep(args["pattern"], args["max_results"]))
            got = self._got(response, lambda r: r)
        elif tool == "DefectSubgraph":
            want = ("ok", self._subgraph(args["seeds"], args["hops"]))
            got = self._got(response, lambda r: r)
        else:
            return False
        return got == want

    @staticmethod
    def _got(response: dict, extract) -> tuple:
        if response.get("ok"):
            return ("ok", extract(response["result"]))
        return (response.get("error_kind"),
                sorted(response.get("candidates", [])))

    def _normal_calls(self, result: dict) -> dict:
        sites = []
        for site in result["sites"]:
            callee = self.records[site["callee"]]
            norm = (("u", callee.qualified_name) if callee.is_synthetic
                    else ("r", site["callee"]))
            sites.append({**site, "callee": norm})
        sites.sort(key=lambda s: (s["file"], s["line"], s["caller"],
                                  str(s["callee"])))
        return {**result, "sites": sites}

    def _intent_hits(self, text: str, k: int) -> list[dict]:
        docs = self.intent.docs
        scores = self.matrix @ _embed(text, self.intent.dim)
        order = sorted(range(len(docs)), key=lambda i: (
            -scores[i], docs[i].qualified_name, docs[i].symbol_id))[:k]
        return [{"symbol_id": docs[i].symbol_id,
                 "qualified_name": docs[i].qualified_name,
                 "kind": docs[i].kind, "score": float(scores[i])}
                for i in order]

    def _grep(self, pattern: str, max_results: int) -> dict:
        matches = []
        for path in sorted(self.files):
            for lineno, line in enumerate(self.files[path].split("\n"), 1):
                if pattern in line:
                    if len(matches) == max_results:
                        return {"pattern": pattern, "matches": matches,
                                "truncated": True}
                    matches.append({"path": path, "line": lineno,
                                    "text": line})
        return {"pattern": pattern, "matches": matches, "truncated": False}

    def _build_graph(self):
        """Expected contains/inherits/calls/overrides edges in id space,
        the kinds DefectSubgraph follows, plus their undirected adjacency."""
        m, corpus = self.m, self.corpus
        roots, sentinels = {}, {}
        for rec in self.records:
            if rec.kind is SymbolKind.FILE:
                roots[rec.location.file] = rec.symbol_id
            elif rec.qualified_name.startswith(UNRESOLVED_PREFIX):
                sentinels[rec.name] = rec.symbol_id
        edges = set()
        for sym in corpus.symbols:
            parent = roots[sym.file] if sym.parent_uid == -1 else m[sym.parent_uid]
            edges.add(("contains", parent, m[sym.uid]))
        class_def = {}
        for sym in corpus.symbols:
            if sym.kind in CLASS_KINDS and sym.is_definition:
                class_def.setdefault(sym.qualified, sym)
        for derived, base in corpusgen.expected_inherits(corpus):
            edges.add(("inherits_from", m[class_def[derived].uid],
                       m[class_def[base].uid]))
        resolve = _resolver(corpus)
        for call in corpus.raw_calls:
            got = resolve(call)
            callee = sentinels[call.callee_text] if got is None else m[got.uid]
            edges.add(("calls", m[call.caller.uid], callee))
        in_class = {}
        for sym in corpus.symbols:
            if sym.kind == "member_function" and sym.parent_uid in m:
                parent = corpus.symbols[sym.parent_uid - 1]
                if parent.kind in CLASS_KINDS:
                    in_class[(sym.qualified, sym.signature)] = m[sym.uid]
        for member, target in corpusgen.expected_overrides(corpus):
            edges.add(("overrides", in_class[member], in_class[target]))
        self._edges = edges
        self._adj = {}
        for _, src, dst in edges:
            self._adj.setdefault(src, set()).add(dst)
            self._adj.setdefault(dst, set()).add(src)

    def _subgraph(self, seeds: list[str], hops: int) -> dict:
        if self._adj is None:
            self._build_graph()
        edges = self._edges
        seed_ids = {self.m[s.uid] for s in self.corpus.symbols
                    if s.qualified in seeds}
        nodes, frontier = set(seed_ids), set(seed_ids)
        for _ in range(hops):
            frontier = {n for f in frontier for n in self._adj.get(f, ())} - nodes
            nodes |= frontier
        order = {k: i for i, k in enumerate(e.value for e in EdgeKind)}
        inside = sorted((e for e in edges if e[1] in nodes and e[2] in nodes),
                        key=lambda e: (order[e[0]], e[1], e[2]))
        return {"seeds": sorted(seed_ids), "hops": hops,
                "nodes": sorted(nodes),
                "edges": [{"kind": k, "from": s, "to": d}
                          for k, s, d in inside]}


def check_pipeline(summary: dict, expect: dict) -> bool:
    """One pipeline run against the verdicts the candidates were built
    for: the fix is kept, valid and selected; its comment-only twin has
    the same behavioral digest and a larger id, so pruning drops it as a
    duplicate of the fix; the stale diff is dropped as not applicable;
    the exact duplicate never reaches pruning; the breaker is kept but
    leaves the reproduction failing."""
    by_diff = summary["diffs"]
    ids = {name: next((cid for cid, d in by_diff.items() if d == diff), None)
           for name, diff in expect["diffs"].items()}
    prune = summary["prune"]
    verdicts = {c["candidate_id"]: (c["valid"], c["reason"])
                for c in summary["candidates"]}
    return (
        summary["status"] == "SUCCESS"
        and summary["selected_diff"] == expect["diffs"]["fix"]
        and len(by_diff) == len(expect["diffs"]) - 1
        and ids["duplicate"] == ids["fix"]
        and prune.get(ids["twin"], {}).get("reason") == f"duplicate_of:{ids['fix']}"
        and prune.get(ids["stale"], {}).get("reason", "").startswith(
            "not_applicable:")
        and prune.get(ids["fix"], {}).get("status") == "kept"
        and prune.get(ids["breaker"], {}).get("status") == "kept"
        and verdicts.get(ids["fix"]) == (True, None)
        and verdicts.get(ids["breaker"]) == (
            False, f"repro_still_failing:{expect['repro_test_id']}")
    )
