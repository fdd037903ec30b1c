"""Store housekeeping: size budget, LRU eviction, the inspection CLI —
plus the engine-level ``PebbleJoin(store=...)`` resolve/persist path."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.measures import MeasureConfig
from repro.join import PebbleJoin
from repro.records import Record, RecordCollection
from repro.search import SimilarityIndex
from repro.store import PreparedStore
from repro.store.__main__ import main as store_cli, parse_budget


@pytest.fixture()
def small_config():
    return MeasureConfig.from_codes("J", q=2)


def _collection(seed_texts):
    return RecordCollection.from_strings(list(seed_texts))


def _age(path, seconds):
    """Backdate an artifact's mtime (the eviction recency signal)."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


# --------------------------------------------------------------------- #
# listing and eviction
# --------------------------------------------------------------------- #
def test_artifacts_lists_both_kinds(tmp_path, small_config):
    store = PreparedStore(tmp_path)
    store.prepare(_collection(["alpha beta", "beta gamma"]), small_config)
    index = SimilarityIndex(_collection(["alpha beta"]), small_config, theta=0.6)
    index.snapshot(store)
    (tmp_path / "not-an-artifact.txt").write_text("ignored")

    listing = store.artifacts()
    assert {artifact.kind for artifact in listing} == {"prepared", "index"}
    assert all(len(artifact.fingerprint) == 64 for artifact in listing)
    assert store.total_bytes() == sum(a.size_bytes for a in listing)


def test_evict_is_lru_and_load_refreshes_recency(tmp_path, small_config):
    store = PreparedStore(tmp_path)
    old = _collection(["old record text", "second old"])
    new = _collection(["entirely different new text", "another new"])
    store.prepare(old, small_config)
    old_path = store.last_outcome.path
    store.prepare(new, small_config)
    new_path = store.last_outcome.path
    _age(old_path, 3600)
    _age(new_path, 1800)

    # A warm load of the OLD artifact makes it the most recently used.
    fresh_store = PreparedStore(tmp_path)
    fresh_store.prepare(old, small_config)
    assert fresh_store.last_outcome.hit

    budget = max(old_path.stat().st_size, new_path.stat().st_size)
    evicted = fresh_store.evict(budget=budget)
    # The *new* artifact was least recently used and must go first.
    assert [artifact.path for artifact in evicted] == [new_path]
    assert old_path.exists() and not new_path.exists()
    assert fresh_store.total_bytes() <= budget


def test_save_enforces_budget_automatically(tmp_path, small_config):
    unbudgeted = PreparedStore(tmp_path)
    unbudgeted.prepare(_collection(["first artifact text"]), small_config)
    first = unbudgeted.last_outcome.path
    _age(first, 3600)

    budget = first.stat().st_size + 10
    budgeted = PreparedStore(tmp_path, size_budget_bytes=budget)
    budgeted.prepare(_collection(["second, different artifact"]), small_config)
    # The save itself evicted the stale first artifact to fit the budget.
    assert not first.exists()
    assert budgeted.total_bytes() <= budget

    with pytest.raises(ValueError, match="budget"):
        unbudgeted.evict()
    with pytest.raises(ValueError, match="size_budget_bytes"):
        PreparedStore(tmp_path, size_budget_bytes=-1)


def test_invalid_budgets_raise_and_delete_nothing(tmp_path, small_config):
    """A budget is an int >= 0 wherever it is given: NaN (``total <= nan``
    is never true), inf, a negative and ``True`` all raise, in the
    constructor and in evict(), and no artifact is deleted."""
    store = PreparedStore(tmp_path)
    for text in ("first budget text", "second budget text", "third one"):
        store.prepare(_collection([text]), small_config)
    before = sorted(artifact.path for artifact in store.artifacts())
    assert len(before) == 3
    for budget in (float("nan"), float("inf"), -1, True):
        with pytest.raises(ValueError, match="size_budget_bytes"):
            PreparedStore(tmp_path, size_budget_bytes=budget)
        with pytest.raises(ValueError, match="budget"):
            store.evict(budget=budget)
    assert sorted(artifact.path for artifact in store.artifacts()) == before
    assert store.evict(budget=0) and store.artifacts() == []


# --------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------- #
def test_cli_lists_and_evicts(tmp_path, small_config, capsys):
    store = PreparedStore(tmp_path)
    store.prepare(_collection(["cli artifact one"]), small_config)
    first = store.last_outcome.path
    _age(first, 3600)
    store.prepare(_collection(["cli artifact two, longer text"]), small_config)

    assert store_cli([str(tmp_path)]) == 0
    listing = capsys.readouterr().out
    assert "2 artifact(s)" in listing
    assert "prepared" in listing

    assert store_cli([str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_bytes"] == store.total_bytes()
    assert len(payload["artifacts"]) == 2

    budget = store.last_outcome.path.stat().st_size
    assert store_cli([str(tmp_path), "--evict", "--budget", str(budget)]) == 0
    out = capsys.readouterr().out
    assert "evicted 1 artifact(s)" in out
    assert not first.exists()

    with pytest.raises(SystemExit):
        store_cli([str(tmp_path), "--evict"])  # --evict requires --budget


def test_cli_refuses_nonexistent_root(tmp_path):
    with pytest.raises(SystemExit):
        store_cli([str(tmp_path / "no-such-store")])
    # Inspection must not have conjured the directory into existence.
    assert not (tmp_path / "no-such-store").exists()


def test_cli_budget_suffixes():
    assert parse_budget("123") == 123
    assert parse_budget("2K") == 2048
    assert parse_budget("1m") == 1024**2
    assert parse_budget("3G") == 3 * 1024**3
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_budget("ten")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_budget("-5")


def test_cli_runs_as_module(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.store", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert result.returncode == 0
    assert "store is empty" in result.stdout


# --------------------------------------------------------------------- #
# store-backed PebbleJoin (engine-level resolve + persist-back)
# --------------------------------------------------------------------- #
def test_engine_store_resolves_and_persists(tmp_path, small_config):
    texts = [
        "alpha beta gamma", "beta gamma delta", "gamma delta epsilon",
        "delta epsilon zeta", "alpha beta", "epsilon zeta",
    ]
    collection = _collection(texts)
    cold_store = PreparedStore(tmp_path)
    cold_engine = PebbleJoin(small_config, 0.6, tau=1, store=cold_store)
    cold = cold_engine.join(collection)
    assert not cold_store.last_outcome.hit  # cold: built and persisted

    # A fresh store instance = a new process: preparation loads from disk
    # and the join's signing is a cache hit against persisted signatures.
    warm_store = PreparedStore(tmp_path)
    warm_engine = PebbleJoin(small_config, 0.6, tau=1, store=warm_store)
    warm = warm_engine.join(_collection(texts))
    assert warm_store.last_outcome.hit
    assert [(p.left_id, p.right_id, p.similarity) for p in warm.pairs] == [
        (p.left_id, p.right_id, p.similarity) for p in cold.pairs
    ]
    # The warm artifact already carried the signing: nothing new to persist,
    # and the signing stage collapses to a cache hit.
    prepared = warm_store.prepare(_collection(texts), small_config)
    assert prepared.cached_signature_count >= 1


def test_engine_store_join_batches_persists_on_exhaustion(tmp_path, small_config):
    texts = ["alpha beta gamma", "beta gamma delta", "alpha beta", "gamma delta"]
    store = PreparedStore(tmp_path)
    engine = PebbleJoin(small_config, 0.6, tau=1, store=store)
    batches = engine.join_batches(_collection(texts), batch_size=2)
    artifact = store.path_for(store.last_outcome.fingerprint)
    size_before_exhaustion = artifact.stat().st_size
    list(batches)  # exhaust: persist-back fires here
    assert artifact.stat().st_size > size_before_exhaustion  # signatures rode in

    warm = PreparedStore(tmp_path)
    warm_prepared = warm.prepare(_collection(texts), small_config)
    assert warm.last_outcome.hit
    assert warm_prepared.cached_signature_count >= 1


def test_engine_store_process_executor_roundtrip(tmp_path, small_config):
    texts = [
        "alpha beta gamma", "beta gamma delta", "gamma delta epsilon",
        "delta epsilon zeta",
    ]
    store = PreparedStore(tmp_path)
    engine = PebbleJoin(small_config, 0.6, tau=1, store=store)
    serial = PebbleJoin(small_config, 0.6, tau=1).join(_collection(texts))
    pooled = engine.join(_collection(texts), executor="process", workers=2)
    assert [(p.left_id, p.right_id, p.similarity) for p in pooled.pairs] == [
        (p.left_id, p.right_id, p.similarity) for p in serial.pairs
    ]
    # The raw side resolved through the store on the way in.
    assert store.last_outcome is not None


def test_extended_collection_is_not_silently_persisted(tmp_path, small_config):
    """A store-managed collection mutated in place stops being managed."""
    store = PreparedStore(tmp_path)
    prepared = store.prepare(_collection(["alpha beta", "beta gamma"]), small_config)
    assert store.manages(prepared)
    prepared.extend_with(
        [Record(record_id=2, text="gamma delta", tokens=("gamma", "delta"))]
    )
    assert not store.manages(prepared)
    # An explicit save re-fingerprints the new content instead of
    # clobbering the old artifact under a stale key.
    path = store.save(prepared)
    assert path != store.path_for(
        store.artifacts()[0].fingerprint
    ) or len(store.artifacts()) == 2
    assert len(store.artifacts()) == 2
