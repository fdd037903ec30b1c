"""Chaos suite: deterministic fault injection against the supervised driver.

Every test here breaks the parallel execution substrate on purpose —
killed workers, hung shards, vanished shared-memory segments, corrupted
store artifacts, a crashed parent — and asserts the one contract that
matters: the recovered run is **bit-identical** to the serial engine, and
the damage is visible in the :class:`~repro.join.supervision.ExecutionReport`
rather than in the answer.  Faults are armed through :mod:`repro.faults`,
so every failure fires at an exactly specified shard/attempt and the tests
are reproducible, not flaky.

Warm-pool worker-kill tests create their pool *inside* the armed context:
pool workers inherit the environment at fork, so a pool forked before
arming would never see the fault spec.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import shm_registry
from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.faults import FAULTS, FaultRule, flip_bytes
from repro.join import (
    PebbleJoin,
    ShardTransportError,
    SupervisorPolicy,
    WarmJoinPool,
)
from repro.join import parallel
from repro.join.parallel import _attach_plan, _export_plan_payload, build_shard_plan
from repro.join.prepared import PreparedCollection
from repro.search import ConcurrentMutationError, SimilarityIndex
from repro.store import PreparedStore

pytestmark = pytest.mark.chaos

THETA = 0.55
TAU = 2

#: Zero-backoff everywhere: the recovery *logic* is under test, not the
#: pacing, and chaos tests should not sleep.
FAST = dict(backoff_base=0.0)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TINY_PROFILE, seed=23)


@pytest.fixture(scope="module")
def config(dataset):
    return MeasureConfig.from_codes(
        "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


@pytest.fixture(scope="module")
def collection(dataset):
    return dataset.records.head(48)


@pytest.fixture(scope="module")
def serial(config, collection):
    return PebbleJoin(config, THETA, tau=TAU).join(collection)


def _triples(pairs):
    return [(pair.left_id, pair.right_id, pair.similarity) for pair in pairs]


def _counters(stats):
    return {name: getattr(stats, name) for name in stats._COUNTERS}


def _assert_identical(result, serial):
    assert _triples(result.pairs) == _triples(serial.pairs)
    assert _counters(result.statistics.verification) == _counters(
        serial.statistics.verification
    )


def _join(config, collection, **kwargs):
    return PebbleJoin(config, THETA, tau=TAU).join(
        collection, executor="process", workers=2, **kwargs
    )


class TestSupervisedRecovery:
    def test_clean_run_reports_no_faults(self, config, collection, serial):
        result = _join(config, collection, supervision=SupervisorPolicy(**FAST))
        _assert_identical(result, serial)
        report = result.statistics.execution
        assert report is not None
        assert not report.faulted
        assert report.shards == len(report.attempts) > 0
        assert all(attempt == 1 for attempt in report.attempts)

    def test_worker_kill_recovers_bit_identical(self, config, collection, serial):
        with FAULTS.injected(FaultRule("worker_kill", shard=0)):
            result = _join(config, collection, supervision=SupervisorPolicy(**FAST))
        _assert_identical(result, serial)
        report = result.statistics.execution
        assert report.faulted
        assert report.worker_failures >= 1
        assert report.respawns >= 1
        assert report.errors

    def test_worker_kill_every_shard_recovers(self, config, collection, serial):
        # Every first-attempt dispatch dies; retried shards survive.  The
        # supervisor may exhaust its respawns and finish serially — the
        # answer must not care.
        with FAULTS.injected(FaultRule("worker_kill")):
            result = _join(
                config,
                collection,
                supervision=SupervisorPolicy(max_respawns=4, **FAST),
            )
        _assert_identical(result, serial)
        assert result.statistics.execution.worker_failures >= 1

    def test_shard_timeout_recovers_bit_identical(self, config, collection, serial):
        policy = SupervisorPolicy(shard_timeout=0.15, **FAST)
        with FAULTS.injected(FaultRule("shard_delay", shard=0, seconds=1.5)):
            result = _join(config, collection, supervision=policy)
        _assert_identical(result, serial)
        report = result.statistics.execution
        assert report.timeouts >= 1
        assert report.respawns >= 1

    def test_shm_drop_cold_pool_recovers(
        self, config, collection, serial, monkeypatch
    ):
        # Without fork, a call's own pool receives the plan through a
        # segment.  The first published segment vanishes before any worker
        # attaches; the respawn re-exports a fresh one and the join completes.
        monkeypatch.setattr(parallel, "_fork_start", lambda: False)
        with FAULTS.injected(FaultRule("shm_drop")):
            result = _join(config, collection, supervision=SupervisorPolicy(**FAST))
        _assert_identical(result, serial)
        assert result.statistics.execution.faulted
        assert result.statistics.execution.transport_failures >= 1

    def test_shm_drop_warm_pool_is_transport_failure(
        self, config, collection, serial
    ):
        # Warm workers report the typed transport error; recovery republishes
        # under a fresh name without restarting the (healthy) executor.
        with WarmJoinPool(workers=2) as pool, FAULTS.injected(
            FaultRule("shm_drop")
        ):
            result = _join(
                config, collection, pool=pool, supervision=SupervisorPolicy(**FAST)
            )
            _assert_identical(result, serial)
            report = result.statistics.execution
            assert report.transport_failures >= 1
            assert pool.respawns == 0

    def test_retry_exhaustion_falls_back_to_serial(
        self, config, collection, serial
    ):
        # Shard 0 dies on *every* pool attempt; after 1+max_retries
        # dispatches it must run serially in the parent (where the armed
        # fault never fires) and the join still matches.
        policy = SupervisorPolicy(max_retries=1, max_respawns=8, **FAST)
        with FAULTS.injected(FaultRule("worker_kill", shard=0, max_attempt=99)):
            result = _join(config, collection, supervision=policy)
        _assert_identical(result, serial)
        report = result.statistics.execution
        assert report.fallback_shards >= 1

    def test_streamed_batches_recover(self, config, collection, serial):
        engine = PebbleJoin(config, THETA, tau=TAU)
        serial_batches = list(engine.join_batches(collection))
        with FAULTS.injected(FaultRule("worker_kill", shard=0)):
            batches = list(
                PebbleJoin(config, THETA, tau=TAU).join_batches(
                    collection,
                    executor="process",
                    workers=2,
                    supervision=SupervisorPolicy(**FAST),
                )
            )
        flat = [pair for batch in batches for pair in batch.pairs]
        flat_serial = [pair for batch in serial_batches for pair in batch.pairs]
        assert _triples(flat) == _triples(flat_serial)
        assert batches[-1].execution is not None
        assert batches[-1].execution.faulted


class TestPolicyValidation:
    """A policy that cannot mean what it says fails at construction: a zero,
    negative or NaN deadline would time every wait out at once and quietly
    run the whole join in the parent, and an infinite one overflows the
    wait."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shard_timeout", 0),
            ("shard_timeout", -1.0),
            ("shard_timeout", float("nan")),
            ("shard_timeout", float("inf")),
            ("max_retries", -1),
            ("max_retries", True),
            ("max_retries", 1.5),
            ("max_respawns", -1),
            ("max_respawns", False),
            ("backoff_base", -0.1),
            ("backoff_base", float("nan")),
        ],
    )
    def test_invalid_values_raise(self, field, value):
        with pytest.raises(ValueError, match=field):
            SupervisorPolicy(**{field: value})

    def test_boundary_values_are_accepted(self):
        policy = SupervisorPolicy(
            shard_timeout=None, max_retries=0, max_respawns=0, backoff_base=0.0
        )
        assert policy.backoff_seconds(3) == 0.0
        # Backoff doubles per respawn up to a fixed one-second cap.
        assert SupervisorPolicy(backoff_base=0.4).backoff_seconds(2) == 0.8
        assert SupervisorPolicy(backoff_base=0.4).backoff_seconds(3) == 1.0
        assert SupervisorPolicy(shard_timeout=0.15).shard_timeout == 0.15


class TestTransportError:
    def test_vanished_segment_raises_typed_error(self, config, collection):
        plan = build_shard_plan(PebbleJoin(config, THETA, tau=TAU), collection)
        payload = _export_plan_payload(plan)
        name = payload.name
        payload.release()
        with pytest.raises(ShardTransportError, match="gone"):
            _attach_plan(name)


class TestWarmPoolSelfHealing:
    def test_close_is_idempotent_and_never_raises(self):
        pool = WarmJoinPool(workers=1)
        pool.close()
        pool.close()  # second close must be a no-op
        with pytest.raises(RuntimeError):
            pool.respawn()

    def test_close_after_broken_executor(self, config, collection):
        pool = WarmJoinPool(workers=2)
        try:
            with FAULTS.injected(FaultRule("worker_kill", shard=0)):
                result = _join(
                    config, collection, pool=pool, supervision=SupervisorPolicy(**FAST)
                )
            assert result.statistics.execution.worker_failures >= 1
            assert pool.respawns >= 1
        finally:
            pool.close()  # must not re-raise the stale BrokenProcessPool
        pool.close()

    def test_session_rebuilds_dead_executor(self, config, collection, serial):
        with WarmJoinPool(workers=2) as pool:
            with FAULTS.injected(FaultRule("worker_kill", shard=0)):
                _join(
                    config, collection, pool=pool, supervision=SupervisorPolicy(**FAST)
                )
            respawns = pool.respawns
            assert respawns >= 1
            # The replacement workers were forked while the fault was armed
            # and inherited its environment; re-fork them clean before
            # asserting a fault-free run.
            pool.respawn()
            clean = _join(
                config, collection, pool=pool, supervision=SupervisorPolicy(**FAST)
            )
            _assert_identical(clean, serial)
            assert not clean.statistics.execution.faulted
            assert pool.respawns == respawns + 1


class TestSupervisedQueryBatch:
    def test_worker_kill_query_batch_bit_identical(self, config, collection):
        probes = [record.text for record in list(collection)[:12]]
        with SimilarityIndex(collection, config, theta=THETA, tau=TAU) as index:
            reference = index.query_batch(probes)
        with FAULTS.injected(FaultRule("worker_kill", shard=0)):
            with SimilarityIndex(collection, config, theta=THETA, tau=TAU) as index:
                hurt = index.query_batch(
                    probes,
                    executor="process",
                    workers=2,
                    supervision=SupervisorPolicy(**FAST),
                )
        assert _triples(hurt.pairs) == _triples(reference.pairs)
        assert hurt.execution is not None
        assert hurt.execution.faulted
        assert reference.execution is None  # serial path carries no report

    def test_supervision_requires_process_executor(self, config, collection):
        with SimilarityIndex(collection, config, theta=THETA, tau=TAU) as index:
            with pytest.raises(ValueError, match="process"):
                index.query_batch(["anything"], supervision=SupervisorPolicy())


class TestConcurrentMutationGuard:
    def test_overlapping_mutation_raises(self, config, collection):
        index = SimilarityIndex(collection, config, theta=THETA, tau=TAU)
        with index._mutating():
            with pytest.raises(ConcurrentMutationError):
                index.add(["overlapping add"])
            with pytest.raises(ConcurrentMutationError):
                index.remove([0])
            with pytest.raises(ConcurrentMutationError):
                index.rebuild()
        # Guard released: the same mutations now succeed.
        (new_id,) = index.add(["overlapping add"])
        index.remove([new_id])

    def test_mutation_during_query_iteration_raises(self, config, collection):
        index = SimilarityIndex(collection, config, theta=THETA, tau=TAU)

        def treacherous_probes():
            yield "first probe"
            index.add(["mutated mid-query"])  # mutates while a query runs
            yield "second probe"

        with pytest.raises(ConcurrentMutationError):
            index.query_batch(treacherous_probes())

    def test_guard_survives_pickle(self, config, collection):
        import pickle

        index = SimilarityIndex(collection, config, theta=THETA, tau=TAU)
        clone = pickle.loads(pickle.dumps(index))
        clone.add(["post-pickle add"])  # fresh lock, mutations work
        with clone._mutating():
            with pytest.raises(ConcurrentMutationError):
                clone.add(["overlap"])


class TestStoreQuarantine:
    def test_corrupt_header_is_quarantined(self, tmp_path, config, collection):
        store = PreparedStore(tmp_path / "store")
        prepared = PreparedCollection.prepare(collection, config)
        path = store.save(prepared)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load(collection, config) is None
        assert not path.exists()
        quarantined = store.quarantine_artifacts()
        assert [entry.name for entry in quarantined] == [path.name]
        reason = quarantined[0].with_name(quarantined[0].name + ".reason")
        assert "header" in reason.read_text()
        # The quarantined artifact no longer counts as a stored artifact.
        assert store.artifacts() == []
        # A clean re-save recovers the slot.
        store.save(prepared)
        assert store.load(collection, config) is not None

    def test_store_corrupt_fault_round_trip(self, tmp_path, config, collection):
        store = PreparedStore(tmp_path / "store")
        prepared = PreparedCollection.prepare(collection, config)
        with FAULTS.injected(FaultRule("store_corrupt", seed=3, flips=4096)):
            store.save(prepared)
        assert store.load(collection, config) is None
        assert len(store.quarantine_artifacts()) == 1
        assert store.quarantined  # (path, reason) recorded in-process

    def test_corrupt_index_snapshot_is_quarantined(
        self, tmp_path, config, collection
    ):
        store = PreparedStore(tmp_path / "store")
        index = SimilarityIndex(collection, config, theta=THETA, tau=TAU)
        path = index.snapshot(store)
        flip_bytes(path, seed=7, flips=4096)
        fingerprint = index.content_fingerprint()
        assert store.load_index(fingerprint) is None
        assert len(store.quarantine_artifacts()) == 1
        with pytest.raises(LookupError):
            SimilarityIndex.load(store, fingerprint)


_CRASHING_CHILD = """
import os, sys
from multiprocessing import resource_tracker, shared_memory

sys.path.insert(0, {src!r})
from repro import shm_registry

segment = shared_memory.SharedMemory(create=True, size=128)
# The join layer deregisters its segments from the stdlib tracker (the
# parent owns the lifecycle); mirror that so the crash leaves a genuine
# orphan for the janitor rather than tracker-reaped garbage.
resource_tracker.unregister(segment._name, "shared_memory")
shm_registry.register(segment.name)
print(segment.name, flush=True)
os._exit(1)  # simulated crash: no finally, no atexit
"""


class TestShmJanitor:
    def test_parent_crash_leaves_no_orphans(self, tmp_path, monkeypatch):
        if not Path("/dev/shm").is_dir():
            pytest.skip("needs a /dev/shm tmpfs")
        registry = tmp_path / "registry"
        monkeypatch.setenv(shm_registry.ENV_VAR, str(registry))
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = _CRASHING_CHILD.format(src=src)
        env = dict(os.environ)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert completed.returncode == 1, completed.stderr
        name = completed.stdout.strip()
        assert name
        # The crash orphaned the segment and left its registry entry.
        assert (Path("/dev/shm") / name).exists()
        assert any(
            entry["name"] == name for entry in shm_registry.registered_segments()
        )
        # The janitor sweep (what share_payload runs at startup) reaps it.
        removed = shm_registry.sweep()
        assert name in removed
        assert not (Path("/dev/shm") / name).exists()
        assert shm_registry.registered_segments() == []

    def test_sweep_spares_live_owners(self, tmp_path, monkeypatch):
        registry = tmp_path / "registry"
        monkeypatch.setenv(shm_registry.ENV_VAR, str(registry))
        registry.mkdir()
        (registry / "still-owned.json").write_text(
            json.dumps({"name": "still-owned", "pid": os.getpid(), "created": 0})
        )
        assert shm_registry.sweep() == []
        assert len(shm_registry.registered_segments()) == 1

    def test_join_registers_and_releases_segments(
        self, tmp_path, monkeypatch, config, collection
    ):
        registry = tmp_path / "registry"
        monkeypatch.setenv(shm_registry.ENV_VAR, str(registry))
        plan = build_shard_plan(PebbleJoin(config, THETA, tau=TAU), collection)
        payload = _export_plan_payload(plan)
        try:
            assert any(
                entry["name"] == payload.name
                for entry in shm_registry.registered_segments()
            )
        finally:
            payload.release()
        assert shm_registry.registered_segments() == []
