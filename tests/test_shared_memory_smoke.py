"""Shared-memory lifecycle smoke tests for the warm-pool transport.

ResourceWarnings are promoted to errors for this module: a forgotten
segment attachment or an executor shut down by the garbage collector fails
the test rather than scrolling past as a warning.  Each test also compares
``/dev/shm`` before and after, so a segment leaked by any error path shows
up as a named assertion failure.  One test runs a join under the spawn
start method in a subprocess, where workers finalize their interpreter and
a still-viewed segment would print an ignored ``BufferError``.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin
from repro.join.pool import WarmJoinPool

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

THETA = 0.55
TAU = 2


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TINY_PROFILE, seed=47)


def _config(dataset) -> MeasureConfig:
    return MeasureConfig.from_codes(
        "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


def _triples(pairs):
    return [(pair.left_id, pair.right_id, pair.similarity) for pair in pairs]


def _shm_segments() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(os.listdir("/dev/shm"))


def test_two_worker_shm_join_is_exact_and_leak_free(dataset):
    config = _config(dataset)
    collection = dataset.records.head(36)
    serial = PebbleJoin(config, THETA, tau=TAU).join(collection)

    before = _shm_segments()
    with WarmJoinPool(workers=2) as pool:
        result = PebbleJoin(config, THETA, tau=TAU).join(
            collection, executor="process", pool=pool
        )
    gc.collect()
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert _triples(result.pairs) == _triples(serial.pairs)


def test_warm_pool_releases_segments_across_sessions(dataset):
    config = _config(dataset)
    collection = dataset.records.head(30)
    serial = PebbleJoin(config, THETA, tau=TAU).join(collection)

    before = _shm_segments()
    pool = WarmJoinPool(workers=2)
    try:
        # Two joins through one pool: each session exports its own segment
        # and must release it at session end, not at pool shutdown.
        for _ in range(2):
            result = PebbleJoin(config, THETA, tau=TAU).join(
                collection, executor="process", pool=pool
            )
            assert _triples(result.pairs) == _triples(serial.pairs)
            leaked = _shm_segments() - before
            assert not leaked, f"segment outlived its session: {sorted(leaked)}"
        assert pool.started
    finally:
        pool.close()
    gc.collect()
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    # close() is idempotent and the pool stays safely closeable.
    pool.close()


def test_streamed_batches_shm_leak_free(dataset):
    config = _config(dataset)
    collection = dataset.records.head(30)
    serial = list(PebbleJoin(config, THETA, tau=TAU).join_batches(collection, batch_size=8))

    before = _shm_segments()
    with WarmJoinPool(workers=2) as pool:
        pooled = list(
            PebbleJoin(config, THETA, tau=TAU).join_batches(
                collection, batch_size=8, executor="process", pool=pool
            )
        )
    gc.collect()
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert len(pooled) == len(serial)
    for mine, theirs in zip(pooled, serial):
        assert _triples(mine.pairs) == _triples(theirs.pairs)


_SPAWNED_JOINS = """
import json, multiprocessing, sys
sys.path.insert(0, {src!r})

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    from repro.core.measures import MeasureConfig
    from repro.datasets import TINY_PROFILE, generate_dataset
    from repro.join import PebbleJoin, WarmJoinPool

    dataset = generate_dataset(TINY_PROFILE, seed=47)
    config = MeasureConfig.from_codes(
        "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )
    collection = dataset.records.head(30)
    runs = {{}}
    with WarmJoinPool(workers=2) as pool:
        runs["caller-pool"] = PebbleJoin(config, {theta}, tau={tau}).join(
            collection, executor="process", pool=pool
        )
    # No pool and no fork: the call opens and closes a one-shot warm pool.
    runs["one-shot"] = PebbleJoin(config, {theta}, tau={tau}).join(
        collection, executor="process", workers=2
    )
    print(json.dumps({{
        label: [[p.left_id, p.right_id, p.similarity] for p in result.pairs]
        for label, result in runs.items()
    }}))
"""


def test_spawned_warm_pools_shut_down_cleanly(dataset, tmp_path):
    config = _config(dataset)
    serial = PebbleJoin(config, THETA, tau=TAU).join(dataset.records.head(30))
    script = tmp_path / "spawned_joins.py"
    src = str(Path(__file__).resolve().parent.parent / "src")
    script.write_text(_SPAWNED_JOINS.format(src=src, theta=THETA, tau=TAU))

    before = _shm_segments()
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        check=False,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "BufferError" not in completed.stderr, completed.stderr
    assert "Exception ignored" not in completed.stderr, completed.stderr
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    expected = [list(triple) for triple in _triples(serial.pairs)]
    assert expected
    runs = json.loads(completed.stdout)
    assert runs == {"caller-pool": expected, "one-shot": expected}
