"""Seeded benchmark inputs built from ``tests/corpusgen.py``.

Corpusgen seeds are laid out side by side, one directory ``s<seed>/`` per
seed, in one of two modes:

- ``replicated``: files are copied as generated, so every seed reuses the
  same namespaces and names. Lookups collide across seeds and overload
  groups grow with the number of seeds.
- ``distinct``: every file is wrapped in ``namespace s<seed> { ... }``, so
  qualified names are unique per seed and every line moves down by one.

The returned ``Corpus`` is corpusgen's own expected model, rewritten the way
the files were (paths, qualified names, lines, uids, ordinals, plus one
namespace record per wrapped file), so corpusgen's ``expected_*`` functions
and ``refquery`` apply to the combined tree unchanged. corpusgen itself is
imported as it is.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import corpusgen
from corpusgen import Corpus, GSym

# Every benchmark seed gets a corpus of the same scale: corpusgen seeds are
# drawn until the expected model holds this many symbols. Without the cap
# the amount of work, and with it every timing, would swing with the seed
# by +-10%. Distinct takes about 400 seeds. Replicated takes about 70, so
# that one index build stays near half a second: a build of the 400-seed
# corpus took about 3.5 s, so a run held too few builds for a steady
# figure (see README.md).
TARGET_SYMBOLS = {"replicated": 1400, "distinct": 7700}

_ANON_RE = re.compile(r"\(anon@([^)]*)\)")


def build(seed: int, mode: str) -> tuple[Corpus, dict[int, Corpus]]:
    """Combined model in ``mode`` for one benchmark seed, plus each
    corpusgen seed's own part (the same ``GSym`` objects) for per-seed
    brute-force queries."""
    if mode not in ("replicated", "distinct"):
        raise ValueError(f"unknown corpus mode {mode!r}")
    rng = random.Random(seed)
    generated: dict[int, Corpus] = {}
    symbols = 0
    while symbols < TARGET_SYMBOLS[mode]:
        cseed = rng.randrange(1_000_000)
        if cseed not in generated:
            generated[cseed] = corpusgen.generate(cseed)
            symbols += len(generated[cseed].symbols)
    combined = Corpus()
    parts: dict[int, Corpus] = {}
    # Seeds are laid out in the order their unit paths sort, which is the
    # order the indexer assigns symbol ids in; ordinals must follow it.
    for cseed in sorted(generated, key=lambda s: f"s{s}/"):
        parts[cseed] = _relocate(generated[cseed], cseed, mode, combined)
    return combined, parts


def _relocate(corpus: Corpus, seed: int, mode: str, out: Corpus) -> Corpus:
    prefix = f"s{seed}/"
    wrap = f"s{seed}" if mode == "distinct" else None
    shift = 1 if wrap else 0
    part = Corpus()
    by_file: dict[str, list[GSym]] = {}
    for sym in corpus.symbols:
        by_file.setdefault(sym.file, []).append(sym)
    new_uid: dict[int, int] = {}
    new_parent: list[tuple[GSym, int]] = []
    for path in sorted(corpus.files):
        new_path = prefix + path
        text = corpus.files[path]
        root_uid = -1
        if wrap:
            text = f"namespace {wrap} {{\n{text}}}\n"
            wrapper = GSym(uid=0, kind="namespace", name=wrap, qualified=wrap,
                           file=new_path, start_line=1,
                           end_line=text.count("\n"))
            _append(out, part, wrapper)
            root_uid = wrapper.uid
        out.files[new_path] = part.files[new_path] = text
        for sym in by_file.get(path, []):
            new_parent.append((sym, root_uid))
            old_uid = sym.uid
            sym.name = _ANON_RE.sub(rf"(anon@{prefix}\1)", sym.name)
            qualified = _ANON_RE.sub(rf"(anon@{prefix}\1)", sym.qualified)
            sym.qualified = f"{wrap}::{qualified}" if wrap else qualified
            sym.file = new_path
            sym.start_line += shift
            sym.end_line += shift
            _append(out, part, sym)
            new_uid[old_uid] = sym.uid
    for sym, root_uid in new_parent:
        sym.parent_uid = (root_uid if sym.parent_uid == -1
                          else new_uid[sym.parent_uid])
    for call in corpus.raw_calls:
        call.file = prefix + call.file
        call.line += shift
    part.raw_calls = list(corpus.raw_calls)
    part.raw_bases = list(corpus.raw_bases)
    out.raw_calls.extend(part.raw_calls)
    out.raw_bases.extend(part.raw_bases)
    return part


def _append(out: Corpus, part: Corpus, sym: GSym):
    sym.uid = len(out.symbols) + 1
    sym.ordinal = len(out.symbols)
    out.symbols.append(sym)
    part.symbols.append(sym)


def write_tree(files: dict[str, str], root: Path):
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def tree_shape(files: dict[str, str]) -> dict:
    return {
        "units": len(files),
        "source_bytes": sum(len(t.encode("utf-8")) for t in files.values()),
    }


# ---------------------------------------------------------------------------
# query batch

TOOLS = ("FindClass", "FindFunction", "GetInheritanceChain",
         "GetFunctionCalls", "QueryCodeIntent", "GrepBaseline",
         "DefectSubgraph")


def request_batch(corpus: Corpus, parts: dict[int, Corpus], seed: int,
                  rounds: int) -> list[dict]:
    """``rounds`` rounds of seven requests, one per tool in a shuffled
    order, so that any prefix of the batch has close to an even tool mix.
    Arguments are drawn from the symbols of a distinct-mode corpus; each
    request names the corpusgen seed its symbol comes from."""
    rng = random.Random(seed)
    seed_of = {sym.uid: s for s, part in parts.items() for sym in part.symbols}
    classes = [s for s in corpus.symbols
               if s.kind in corpusgen.CLASS_KINDS and s.is_definition]
    funcs = [s for s in corpus.symbols if s.kind in corpusgen.FUNC_KINDS]
    words = sorted({w for s in corpus.symbols
                    for w in re.findall(r"[a-z]+", s.name.lower())}
                   | set(corpusgen._DOC_WORDS))
    requests = []
    for _ in range(rounds):
        for tool in rng.sample(TOOLS, len(TOOLS)):
            sym = None
            if tool in ("FindClass", "GetInheritanceChain"):
                sym = rng.choice(classes)
                args = {"name": sym.qualified}
                if tool == "GetInheritanceChain":
                    args["direction"] = rng.choice(["bases", "derived", "both"])
            elif tool == "FindFunction":
                sym = rng.choice(funcs)
                args = {"name": sym.qualified}
                if rng.random() < 0.5:
                    args["signature"] = sym.signature
            elif tool == "GetFunctionCalls":
                sym = rng.choice(funcs)
                args = {"name": sym.qualified, "signature": sym.signature,
                        "direction": rng.choice(["out", "in"])}
            elif tool == "QueryCodeIntent":
                args = {"text": " ".join(rng.choice(words)
                                         for _ in range(rng.randint(1, 5))),
                        "k": rng.randint(1, 20)}
            elif tool == "GrepBaseline":
                sym = rng.choice(funcs + classes)
                args = {"pattern": sym.name, "regex": False,
                        "max_results": rng.randint(5, 50)}
            else:
                sym = rng.choice(funcs + classes)
                args = {"seeds": [sym.qualified], "hops": rng.randint(1, 2)}
            requests.append({
                "request_id": len(requests),
                "tool": tool,
                "arguments": args,
                "seed": seed_of[sym.uid] if sym is not None else None,
            })
    return requests
