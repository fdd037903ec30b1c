"""Flat integer encoding: vocabulary, CSR arrays, and payload transport.

These tests pin the contracts of :mod:`repro.core.vocab` and
:mod:`repro.join.flat`: interning round-trips every pebble key across all
measure configurations, the flat CSR arrays decode to the exact signature
key sequences they encode, a worker shard over the flat plan emits the same
candidates as the dual-index reference, and the shared-memory export/attach
cycle reproduces the state bit-for-bit while leaving ``/dev/shm`` clean.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.measures import MeasureConfig
from repro.core.vocab import Vocabulary
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin, dual_index_filter_candidates
from repro.join.flat import (
    UNKNOWN_KEY,
    FlatJoinState,
    FlatSignatures,
    attach_payload,
    share_payload,
)
from repro.join.parallel import _run_shard_on, _WorkerRuntime, build_shard_plan

MEASURE_CODES = ("J", "S", "T", "TJS")
THETA = 0.55
TAU = 2


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TINY_PROFILE, seed=47)


def _config(dataset, codes: str) -> MeasureConfig:
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


def _plan(dataset, codes: str, size: int = 32):
    """A shard plan plus the engine and signed side it was built from."""
    config = _config(dataset, codes)
    engine = PebbleJoin(config, THETA, tau=TAU)
    prepared = engine.prepare(dataset.records.head(size))
    plan = build_shard_plan(engine, prepared)
    order = prepared.build_order(engine.order_strategy)
    signed = prepared.signed(order, THETA, TAU, engine.method)
    return plan, engine, signed


def _shard(plan):
    runtime = _WorkerRuntime(plan)
    return _run_shard_on(runtime, (0, plan.probe_count))


class TestVocabulary:
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_round_trips_every_signature_key(self, dataset, codes):
        _, _, signed = _plan(dataset, codes)
        keys = [key for record in signed for key in record.signature_key_sequence]
        vocab = Vocabulary()
        ids = vocab.encode_all(keys)
        assert vocab.decode_all(ids) == keys
        # Interning is idempotent: a second pass grows nothing and assigns
        # the same ids.
        size = len(vocab)
        assert vocab.encode_all(keys) == ids
        assert len(vocab) == size
        for key in keys:
            assert key in vocab
            assert vocab.id_of(key) == vocab.encode(key)

    def test_growth_unknowns_and_negative_decode(self):
        vocab = Vocabulary()
        assert len(vocab) == 0
        first = vocab.encode(("token", "alpha"))
        second = vocab.encode(("token", "beta"))
        assert (first, second) == (0, 1)
        assert vocab.id_of(("token", "missing")) is None
        assert ("token", "missing") not in vocab
        with pytest.raises(IndexError):
            vocab.decode(UNKNOWN_KEY)
        assert list(vocab) == [("token", "alpha"), ("token", "beta")]

    def test_pickle_round_trip_preserves_id_assignment(self):
        vocab = Vocabulary()
        keys = [("a", i % 5) for i in range(20)]
        ids = vocab.encode_all(keys)
        clone = pickle.loads(pickle.dumps(vocab))
        assert len(clone) == len(vocab)
        assert clone.encode_all(keys) == ids
        assert list(clone.keys()) == list(vocab.keys())


class TestFlatSignatures:
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_csr_arrays_decode_to_signature_keys(self, dataset, codes):
        _, _, signed = _plan(dataset, codes)
        vocab = Vocabulary()
        probe = FlatSignatures.from_signed(signed, vocab)
        assert len(probe) == len(signed)
        assert probe.total_keys == sum(r.signature_length for r in signed)
        for position, record in enumerate(signed):
            assert probe.record_ids[position] == record.record.record_id
            start = probe.key_offsets[position]
            stop = probe.key_offsets[position + 1]
            decoded = tuple(vocab.decode(key) for key in probe.key_ids[start:stop])
            assert decoded == record.signature_key_sequence

    def test_non_growing_probe_maps_unknown_keys_to_sentinel(self):
        vocab = Vocabulary()
        vocab.encode(("q", "known"))

        class _Stub:
            def __init__(self, record_id, keys):
                self.record = type("R", (), {"record_id": record_id})()
                self.signature_key_sequence = keys

        stub = _Stub(0, (("q", "known"), ("q", "unknown")))
        flat = FlatSignatures.from_signed([stub], vocab, grow=False)
        assert list(flat.key_ids) == [0, UNKNOWN_KEY]
        # The vocabulary did not grow: unknown probe keys stay unmapped.
        assert len(vocab) == 1


class TestFlatProbeEquivalence:
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_flat_shard_matches_dict_shard(self, dataset, codes):
        plan, engine, signed = _plan(dataset, codes)
        flat_result = _shard(plan)
        # The paper's dual-index filter (per-key cross-products) is the
        # reference for the candidate and processed counts.
        outcome = dual_index_filter_candidates(
            signed, signed, requirement=TAU, exclude_self_pairs=True
        )
        assert flat_result.candidate_count == outcome.candidate_count
        assert flat_result.processed_pairs == outcome.processed_pairs
        serial = PebbleJoin(engine.config, THETA, tau=TAU).join(
            engine.prepare(plan.left_prep.collection)
        )
        assert [
            (p.left_id, p.right_id, p.similarity) for p in flat_result.pairs
        ] == [(p.left_id, p.right_id, p.similarity) for p in serial.pairs]


class TestPlanMemo:
    def test_plans_over_one_preparation_share_the_flat_state(self, dataset):
        """A plan reuses the flat state the serial filter memoizes on the
        indexed side's preparation, so repeated process joins (and a process
        join after a serial filter) encode nothing twice."""
        engine = PebbleJoin(_config(dataset, "TJS"), THETA, tau=TAU)
        prepared = engine.prepare(dataset.records.head(32))
        plan_a = build_shard_plan(engine, prepared)
        plan_b = build_shard_plan(engine, prepared)
        assert plan_a.flat is plan_b.flat
        order = prepared.build_order(engine.order_strategy)
        signed = prepared.signed(order, THETA, TAU, engine.method)
        serial_flat, _, _ = engine._flat_filter_state(
            signed, signed, (prepared, prepared)
        )
        assert serial_flat is plan_a.flat
        # Two collections: the memo lives on the indexed side's preparation.
        other = engine.prepare(dataset.records.subset(range(16, 48)))
        assert (
            build_shard_plan(engine, prepared, other).flat
            is build_shard_plan(engine, prepared, other).flat
        )


class TestPayloadTransport:
    def test_pickle_round_trip_drops_vocab_keeps_results(self, dataset):
        flat_plan, _, _ = _plan(dataset, "TJS")
        flat = flat_plan.flat
        clone = pickle.loads(pickle.dumps(flat))
        assert clone.vocab is None
        reference = flat.probe_span(
            0, flat.probe_count, flat_plan.requirement,
            probe_is_left=flat_plan.probe_is_left,
            exclude_self_pairs=flat_plan.exclude_self_pairs,
        )
        restored = clone.probe_span(
            0, clone.probe_count, flat_plan.requirement,
            probe_is_left=flat_plan.probe_is_left,
            exclude_self_pairs=flat_plan.exclude_self_pairs,
        )
        assert restored == reference

    def test_share_attach_round_trip_and_cleanup(self, dataset):
        flat_plan, _, _ = _plan(dataset, "TJS")
        flat = flat_plan.flat
        meta, arrays = flat.export()
        payload = share_payload(meta, arrays)
        try:
            attached_meta, buffers, shm = attach_payload(payload.name)
            try:
                restored = FlatJoinState.restore(attached_meta, buffers)
                reference = flat.probe_span(
                    0, flat.probe_count, flat_plan.requirement,
                    probe_is_left=flat_plan.probe_is_left,
                    exclude_self_pairs=flat_plan.exclude_self_pairs,
                )
                result = restored.probe_span(
                    0, restored.probe_count, flat_plan.requirement,
                    probe_is_left=flat_plan.probe_is_left,
                    exclude_self_pairs=flat_plan.exclude_self_pairs,
                )
                assert result == reference
            finally:
                # Buffers view the segment: drop them before closing it.
                del restored, buffers
                shm.close()
        finally:
            payload.release()
        if os.path.isdir("/dev/shm"):
            assert payload.name.lstrip("/") not in os.listdir("/dev/shm")
        # Releasing twice is a documented no-op.
        payload.release()

    def test_self_join_export_omits_postings_arrays(self, dataset):
        flat_plan, _, _ = _plan(dataset, "TJS")
        flat = flat_plan.flat
        assert flat.self_keys is not None
        meta, arrays = flat.export()
        assert len(arrays) == len(FlatJoinState._PROBE_FIELDS)
        restored = FlatJoinState.restore(meta, arrays)
        assert list(restored.postings.offsets) == list(flat.postings.offsets)
        assert list(restored.postings.data) == list(flat.postings.data)
