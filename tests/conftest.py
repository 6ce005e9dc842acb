import pathlib

import pytest

from cppatlas.index import build_index
from cppatlas.intent import HashEmbeddingProvider, build_intent_index
from cppatlas.repo import load_repository

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def toyrepo_root() -> pathlib.Path:
    return DATA / "toyrepo"


@pytest.fixture(scope="session")
def motivation_root() -> pathlib.Path:
    return DATA / "motivation"


@pytest.fixture(scope="session")
def toy_index(toyrepo_root):
    # session-scoped: an index and every value it holds are read-only
    return build_index(load_repository(toyrepo_root))


@pytest.fixture(scope="session")
def motivation_index(motivation_root):
    return build_index(load_repository(motivation_root))


@pytest.fixture(scope="session")
def toy_intent(toy_index):
    return build_intent_index(toy_index, HashEmbeddingProvider())
