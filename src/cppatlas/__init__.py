"""Structural and intent analysis for C++ repositories, with a patch
selection pipeline on top.

The package indexes a source tree without a build environment: a
tolerant parser extracts symbols, containment, inheritance, calls,
overloads and overrides into a deterministic graph, and a hashed
term-frequency embedder turns each symbol into a searchable intent
document. Query layers answer structural and natural-language lookups;
the pipeline reproduces a defect, collects candidate patches from an
agent backend, prunes and validates them, and votes on a winner.
"""

from .backends import ScriptedBackend, load_transcript

# pipeline before index: in the other order the import-time peak RSS is
# about 0.4 MB higher
from .pipeline import (
    generate_candidates,
    prune,
    reproduce,
    run_pipeline,
    select,
    validate,
)
from .index import build_index
from .intent import build_intent_index, localize, query_code_intent
from .queries import find_class
from .repo import load_repository
from .server import serve

__version__ = "0.1.0"

# the library surface README.md documents
__all__ = [
    "ScriptedBackend",
    "build_index",
    "build_intent_index",
    "find_class",
    "generate_candidates",
    "load_repository",
    "load_transcript",
    "localize",
    "prune",
    "query_code_intent",
    "reproduce",
    "run_pipeline",
    "select",
    "serve",
    "validate",
]
