"""The exact-behaviour corpus: fleet logs, fleet metrics and seeded
deployments must match ``tests/corpus.json`` bit for bit.

Re-record only through ``python tools/record_corpus.py``, and name every
moved entry and its reason in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "record_corpus", REPO_ROOT / "tools" / "record_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


recorder = _load_recorder()
CORPUS = recorder.load_corpus()
FLEET_KEYS = recorder.fleet_keys()
DEPLOY_KEYS = recorder.deploy_keys()


def test_corpus_covers_every_key():
    assert sorted(CORPUS["fleet"]) == sorted(key for key, *_ in FLEET_KEYS)
    assert sorted(CORPUS["deploy"]) == sorted(key for key, *_ in DEPLOY_KEYS)


@pytest.mark.parametrize(
    "key,name,seed", FLEET_KEYS, ids=[key for key, *_ in FLEET_KEYS]
)
def test_fleet_replay_matches_corpus(key, name, seed):
    assert recorder.fleet_entry(name, seed) == CORPUS["fleet"][key]


@pytest.fixture(scope="module")
def instances():
    return recorder.reference_instances()


@pytest.mark.parametrize(
    "key,label,algorithm,seed",
    DEPLOY_KEYS,
    ids=[key for key, *_ in DEPLOY_KEYS],
)
def test_seeded_deployment_matches_corpus(
    instances, key, label, algorithm, seed
):
    entry = recorder.deploy_entry(*instances[label], algorithm, seed)
    assert entry == CORPUS["deploy"][key]
