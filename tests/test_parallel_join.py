"""Executor equivalence, pickling, and worker/stats regression tests.

The multi-core driver's contract is strict: for any join configuration, the
``serial``, ``thread``, and ``process`` executors must return bit-identical
pairs, similarity values, and statistics counters at every worker count.
These tests enforce that over randomized joins across measure
configurations, self- and two-collection joins, and both the one-shot and
streaming APIs, plus the pickle round-trips the process path relies on and
the satellite bugfixes of this change (suggestion-seconds threading, config
equality, hot-probe group splitting, adaptive tier gating).
"""

from __future__ import annotations

import pickle
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.graph import GraphSide
from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin, UnifiedJoin
from repro.join.aufilter import _resolve_executor
from repro.join.verification import UnifiedVerifier, _chunk_groups, _group_candidates

MEASURE_CODES = ("J", "S", "T", "TJS")
THETA = 0.55
TAU = 2


@pytest.fixture(scope="module")
def parallel_dataset():
    """A small synthetic corpus with synonym rules and a taxonomy."""
    return generate_dataset(TINY_PROFILE, seed=47)


def _config(dataset, codes: str) -> MeasureConfig:
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


def _triples(pairs):
    return [(pair.left_id, pair.right_id, pair.similarity) for pair in pairs]


def _counters(stats):
    return {name: getattr(stats, name) for name in stats._COUNTERS}


def _run(config, collection, right=None, **join_kwargs):
    engine = PebbleJoin(config, THETA, tau=TAU)
    result = engine.join(collection, right, **join_kwargs)
    return result, engine


class TestExecutorEquivalence:
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_self_join_identical_across_executors(self, parallel_dataset, codes):
        config = _config(parallel_dataset, codes)
        collection = parallel_dataset.records.head(40)
        reference, _ = _run(config, collection)
        expected = _triples(reference.pairs)
        expected_stats = _counters(reference.statistics.verification)

        for kwargs in (
            {"executor": "thread", "workers": 2},
            {"executor": "process", "workers": 1},
            {"executor": "process", "workers": 3},
        ):
            result, engine = _run(config, collection, **kwargs)
            assert _triples(result.pairs) == expected, kwargs
            assert _counters(result.statistics.verification) == expected_stats, kwargs
            assert result.statistics.candidate_count == reference.statistics.candidate_count
            assert result.statistics.processed_pairs == reference.statistics.processed_pairs
            # The engine's verifier mirrors the serial accumulation contract.
            assert engine.verifier.verified_count == result.statistics.candidate_count

    def test_two_collection_join_identical_across_executors(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        records = parallel_dataset.records.head(48)
        left = records.subset(range(0, 24))
        right = records.subset(range(24, 48))
        reference, _ = _run(config, left, right)
        for kwargs in (
            {"executor": "thread", "workers": 3},
            {"executor": "process", "workers": 2},
            {"executor": "process", "workers": 4},
        ):
            result, _ = _run(config, left, right, **kwargs)
            assert _triples(result.pairs) == _triples(reference.pairs), kwargs
            assert _counters(result.statistics.verification) == _counters(
                reference.statistics.verification
            ), kwargs

    def test_streamed_batches_identical_to_serial_stream(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(40)
        serial = list(
            PebbleJoin(config, THETA, tau=TAU).join_batches(collection, batch_size=7)
        )
        pooled = list(
            PebbleJoin(config, THETA, tau=TAU).join_batches(
                collection, batch_size=7, executor="process", workers=2
            )
        )
        assert len(pooled) == len(serial)
        for mine, theirs in zip(pooled, serial):
            assert mine.probe_range == theirs.probe_range
            assert _triples(mine.pairs) == _triples(theirs.pairs)
            assert mine.candidate_count == theirs.candidate_count
            assert mine.processed_pairs == theirs.processed_pairs
            assert _counters(mine.verification) == _counters(theirs.verification)

    def test_shard_size_does_not_change_results(self, parallel_dataset):
        """Merging is lossless at any shard granularity, not just defaults."""
        from repro.join.parallel import process_join

        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(36)
        reference, _ = _run(config, collection)
        for shards_per_worker in (1, 9):
            engine = PebbleJoin(config, THETA, tau=TAU)
            result = process_join(
                engine, collection, workers=2, shards_per_worker=shards_per_worker
            )
            assert _triples(result.pairs) == _triples(reference.pairs)
            assert _counters(result.statistics.verification) == _counters(
                reference.statistics.verification
            )

    def test_unified_join_executor_passthrough(self, parallel_dataset):
        kwargs = dict(
            rules=parallel_dataset.rules,
            taxonomy=parallel_dataset.taxonomy,
            theta=THETA,
            tau=TAU,
        )
        collection = parallel_dataset.records.head(30)
        serial = UnifiedJoin(**kwargs).join(collection)
        pooled = UnifiedJoin(**kwargs).join(
            collection, executor="process", workers=2
        )
        assert _triples(pooled.pairs) == _triples(serial.pairs)

    def test_executor_knob_validation(self, parallel_dataset):
        config = _config(parallel_dataset, "J")
        collection = parallel_dataset.records.head(6)
        engine = PebbleJoin(config, THETA, tau=1)
        with pytest.raises(ValueError):
            engine.join(collection, executor="gpu")
        with pytest.raises(ValueError):
            engine.join(collection, workers=2)  # workers need an executor
        with pytest.raises(ValueError):
            engine.join(collection, executor="serial", workers=2)
        assert _resolve_executor(None, None, 3) == ("thread", 3)
        assert _resolve_executor(None, None, 0) == ("serial", 0)
        assert _resolve_executor("thread", None, 3) == ("thread", 3)

    def test_process_executor_rejects_custom_verifier(self, parallel_dataset):
        from repro.join.verification import Verifier

        config = _config(parallel_dataset, "J")
        collection = parallel_dataset.records.head(6)
        engine = PebbleJoin(
            config, THETA, tau=1, verifier=Verifier(lambda a, b: 1.0, 0.5)
        )
        with pytest.raises(ValueError, match="UnifiedVerifier"):
            engine.join(collection, executor="process", workers=1)


class TestWorkerSideSigning:
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_self_join_identical_to_serial(self, parallel_dataset, codes):
        config = _config(parallel_dataset, codes)
        collection = parallel_dataset.records.head(40)
        reference, _ = _run(config, collection)
        for workers in (1, 3):
            result, engine = _run(
                config,
                collection,
                executor="process",
                workers=workers,
                sign_in_workers=True,
            )
            assert _triples(result.pairs) == _triples(reference.pairs), workers
            assert _counters(result.statistics.verification) == _counters(
                reference.statistics.verification
            ), workers
            assert result.statistics.candidate_count == reference.statistics.candidate_count
            assert result.statistics.processed_pairs == reference.statistics.processed_pairs
            # Signature statistics come back from the workers' signing.
            assert (
                result.statistics.avg_signature_length_left
                == reference.statistics.avg_signature_length_left
            )
            assert engine.verifier.verified_count == result.statistics.candidate_count

    def test_two_collection_join_identical_to_serial(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        records = parallel_dataset.records.head(48)
        left = records.subset(range(0, 24))
        right = records.subset(range(24, 48))
        reference, _ = _run(config, left, right)
        result, _ = _run(
            config, left, right, executor="process", workers=2, sign_in_workers=True
        )
        assert _triples(result.pairs) == _triples(reference.pairs)
        assert _counters(result.statistics.verification) == _counters(
            reference.statistics.verification
        )
        assert (
            result.statistics.avg_signature_length_right
            == reference.statistics.avg_signature_length_right
        )

    def test_streamed_batches_identical_to_serial_stream(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(40)
        serial = list(
            PebbleJoin(config, THETA, tau=TAU).join_batches(collection, batch_size=7)
        )
        pooled = list(
            PebbleJoin(config, THETA, tau=TAU).join_batches(
                collection,
                batch_size=7,
                executor="process",
                workers=2,
                sign_in_workers=True,
            )
        )
        assert len(pooled) == len(serial)
        for mine, theirs in zip(pooled, serial):
            assert mine.probe_range == theirs.probe_range
            assert _triples(mine.pairs) == _triples(theirs.pairs)
            assert _counters(mine.verification) == _counters(theirs.verification)

    def test_unified_join_passthrough(self, parallel_dataset):
        kwargs = dict(
            rules=parallel_dataset.rules,
            taxonomy=parallel_dataset.taxonomy,
            theta=THETA,
            tau=TAU,
        )
        collection = parallel_dataset.records.head(30)
        serial = UnifiedJoin(**kwargs).join(collection)
        pooled = UnifiedJoin(**kwargs).join(
            collection, executor="process", workers=2, sign_in_workers=True
        )
        assert _triples(pooled.pairs) == _triples(serial.pairs)

    def test_requires_process_executor(self, parallel_dataset):
        config = _config(parallel_dataset, "J")
        collection = parallel_dataset.records.head(6)
        engine = PebbleJoin(config, THETA, tau=1)
        with pytest.raises(ValueError, match="sign_in_workers"):
            engine.join(collection, sign_in_workers=True)
        with pytest.raises(ValueError, match="sign_in_workers"):
            engine.join(
                collection, executor="thread", workers=2, sign_in_workers=True
            )
        with pytest.raises(ValueError, match="sign_in_workers"):
            engine.join_batches(collection, sign_in_workers=True)

    def test_unsigned_plan_ships_no_signatures(self, parallel_dataset):
        from repro.join.parallel import build_shard_plan

        config = _config(parallel_dataset, "TJS")
        engine = PebbleJoin(config, THETA, tau=TAU)
        prepared = engine.prepare(parallel_dataset.records.head(12))
        plan = build_shard_plan(engine, prepared, sign_in_workers=True)
        assert plan.sign_in_workers
        assert plan.index_signed is None and plan.probe_signed is None
        assert plan.probe_is_left is None
        assert plan.order is not None  # workers need it to sign
        assert plan.left_prep.cached_signature_count == 0
        # Pebbles must survive for worker-side signing.
        assert all(r.pebbles is not None for r in plan.left_prep.prepared_records)
        assert plan.signing_theta == THETA and plan.signing_tau == TAU
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.left_prep is clone.right_prep


class TestRandomizedPathEquivalence:
    def test_all_paths_bit_identical(self, parallel_dataset, tmp_path):
        """Serial, flat process (every payload transport), worker-signed,
        warm-pool, and store-warmed joins must agree pair-for-pair (ids and
        similarities) on randomized configs."""
        from repro.join.pool import WarmJoinPool
        from repro.store import PreparedStore

        rng = random.Random(29)
        records = parallel_dataset.records
        for trial in range(3):
            codes = rng.choice(MEASURE_CODES)
            theta = rng.choice((0.45, 0.6, 0.75))
            tau = rng.choice((1, 2, 3))
            size = rng.randrange(24, 40)
            workers = rng.choice((1, 2, 3))
            collection = records.head(size)
            config = _config(parallel_dataset, codes)
            label = (trial, codes, theta, tau, size, workers)

            serial = PebbleJoin(config, theta, tau=tau).join(collection)
            expected = _triples(serial.pairs)

            slim = PebbleJoin(config, theta, tau=tau).join(
                collection, executor="process", workers=workers
            )
            assert _triples(slim.pairs) == expected, label

            signed = PebbleJoin(config, theta, tau=tau).join(
                collection,
                executor="process",
                workers=workers,
                sign_in_workers=True,
            )
            assert _triples(signed.pairs) == expected, label

            # The flat plan through each explicit transport: the shared-
            # memory segment and the legacy per-worker pickle.
            for payload_mode in ("shm", "bytes"):
                flat = PebbleJoin(config, theta, tau=tau).join(
                    collection,
                    executor="process",
                    workers=workers,
                    payload_mode=payload_mode,
                )
                assert _triples(flat.pairs) == expected, (label, payload_mode)

            with WarmJoinPool(workers=workers) as warm_pool:
                pooled = PebbleJoin(config, theta, tau=tau).join(
                    collection, executor="process", pool=warm_pool
                )
            assert _triples(pooled.pairs) == expected, label

            store = PreparedStore(tmp_path / f"trial-{trial}")
            prepared = store.prepare(collection, config)
            PebbleJoin(config, theta, tau=tau).join(prepared)
            store.save(prepared)
            warmed = PreparedStore(tmp_path / f"trial-{trial}").prepare(
                collection, config
            )
            warm = PebbleJoin(config, theta, tau=tau).join(warmed)
            assert _triples(warm.pairs) == expected, label
            warm_process = PebbleJoin(config, theta, tau=tau).join(
                warmed, executor="process", workers=workers
            )
            assert _triples(warm_process.pairs) == expected, label


class TestPickleRoundTrips:
    def test_prepared_collection_round_trip(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(12)
        engine = PebbleJoin(config, THETA, tau=TAU)
        prepared = engine.prepare(collection)
        order = prepared.build_order(engine.order_strategy)
        signed = prepared.signed(order, THETA, TAU, engine.method)
        prepared.graph_side(0)
        prepared.graph_side(3)

        # A partner with a shared (weakref-cached) order must not block pickling.
        partner = engine.prepare(parallel_dataset.records.head(6))
        prepared.shared_order_with(partner)

        clone = pickle.loads(pickle.dumps(prepared))
        assert len(clone) == len(prepared)
        assert clone.config == config
        # The signature cache survived and is re-keyed to the cloned order.
        cloned_order = clone.build_order(engine.order_strategy)
        resigned = clone.signed(cloned_order, THETA, TAU, engine.method)
        assert [r.signature_length for r in resigned] == [
            r.signature_length for r in signed
        ]
        assert clone.cached_signature_count == prepared.cached_signature_count
        # Cached verification sides shipped by value.
        assert clone.prepared_records[0].graph_side is not None
        # The clone joins identically to the original preparation.
        reference = PebbleJoin(config, THETA, tau=TAU).join(prepared)
        rejoined = PebbleJoin(config, THETA, tau=TAU).join(clone)
        assert _triples(rejoined.pairs) == _triples(reference.pairs)

    def test_graph_side_round_trip(self, parallel_dataset):
        from repro.core.graph import build_conflict_graph_from_sides, usim_upper_bound

        config = _config(parallel_dataset, "TJS")
        record = parallel_dataset.records[0]
        other = parallel_dataset.records[1]
        side = GraphSide(record.tokens, config)
        # Warm every cached property so the pickle carries derived state too.
        side.match_state, side.bound_state, side.overlap_sets
        side.min_partition_size, side.singleton_token_tuples
        clone = pickle.loads(pickle.dumps(side))
        assert clone.tokens == side.tokens
        assert clone.segments == side.segments
        assert clone.min_partition_size == side.min_partition_size
        partner = GraphSide(other.tokens, config)
        graph = build_conflict_graph_from_sides(partner, clone, clone.config)
        reference = build_conflict_graph_from_sides(partner, side, config)
        assert [v.weight for v in graph.vertices] == [
            v.weight for v in reference.vertices
        ]
        assert usim_upper_bound(partner, clone, clone.config) == usim_upper_bound(
            partner, side, config
        )

    def test_measure_config_round_trip_equality(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert hash(clone) == hash(config)
        # The msim memo is per-process and must not travel.
        config.msim(("coffee",), ("coffee",))
        reclone = pickle.loads(pickle.dumps(config))
        assert reclone._msim_cache == {}
        # Inequality still detected on real differences.
        assert clone != _config(parallel_dataset, "TJ")
        assert clone != MeasureConfig.from_codes(
            "TJS", rules=parallel_dataset.rules, taxonomy=parallel_dataset.taxonomy, q=4
        )

    def test_worker_payload_trims_stale_signings(self, parallel_dataset):
        """Slim plans ship no signings at all; full plans only the in-use one."""
        from repro.join.parallel import build_shard_plan

        config = _config(parallel_dataset, "TJS")
        engine = PebbleJoin(config, THETA, tau=TAU)
        prepared = engine.prepare(parallel_dataset.records.head(12))
        order = prepared.build_order(engine.order_strategy)
        # A historical signing under another θ must not ride to workers.
        prepared.signed(order, 0.95, TAU, engine.method)
        prepared.signed(order, THETA, TAU, engine.method)

        plan = build_shard_plan(engine, prepared)
        assert plan.left_prep is plan.right_prep  # self-join identity kept
        # The slim payload ships prefix views only: no signature cache, no
        # per-record pebble lists, no order.
        assert plan.left_prep.cached_signature_count == 0
        assert all(r.pebbles is None for r in plan.left_prep.prepared_records)
        assert plan.order is None
        assert plan.index_signed is plan.probe_signed
        assert prepared.cached_signature_count == 2  # caller untouched
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.left_prep is clone.right_prep
        assert clone.index_signed is clone.probe_signed
        assert len(clone.left_prep) == len(prepared)

        # The historical full payload keeps exactly the in-use signing.
        full = build_shard_plan(engine, prepared, slim=False)
        assert full.left_prep.cached_signature_count == 1
        assert full.order is not None
        assert prepared.cached_signature_count == 2  # caller untouched

    def test_signed_record_and_order_round_trip(self, parallel_dataset):
        config = _config(parallel_dataset, "J")
        engine = PebbleJoin(config, THETA, tau=1)
        prepared = engine.prepare(parallel_dataset.records.head(8))
        order = prepared.build_order(engine.order_strategy)
        signed = prepared.signed(order, THETA, 1, engine.method)
        order_clone, signed_clone = pickle.loads(pickle.dumps((order, signed)))
        assert len(order_clone) == len(order)
        assert [r.signature_length for r in signed_clone] == [
            r.signature_length for r in signed
        ]
        assert [tuple(p.key for p in r.signature) for r in signed_clone] == [
            tuple(p.key for p in r.signature) for r in signed
        ]

    def test_slim_view_round_trip_and_protocol(self, parallel_dataset):
        from repro.join.artifacts import SignedRecordView, slim_signed_views

        config = _config(parallel_dataset, "TJS")
        engine = PebbleJoin(config, THETA, tau=TAU)
        prepared = engine.prepare(parallel_dataset.records.head(10))
        order = prepared.build_order(engine.order_strategy)
        signed = prepared.signed(order, THETA, TAU, engine.method)
        views = slim_signed_views(signed)
        # Idempotent: re-slimming passes the same view objects through.
        assert slim_signed_views(views) == views
        for view, full in zip(views, signed):
            assert view.record is full.record
            assert view.signature_key_sequence == full.signature_key_sequence
            assert view.signature_length == full.signature_length
            assert view.pebble_count == len(full.pebbles)
            assert view.min_partition_size == full.min_partition_size
            assert view.signature_keys == full.signature_keys
        clones = pickle.loads(pickle.dumps(views))
        assert [c.signature_key_sequence for c in clones] == [
            v.signature_key_sequence for v in views
        ]
        # Views drive the filter exactly like full records.
        full_engine = PebbleJoin(config, THETA, tau=TAU)
        from_full = full_engine.filter_candidates(
            signed, signed, exclude_self_pairs=True
        )
        from_views = full_engine.filter_candidates(
            views, views, exclude_self_pairs=True
        )
        assert from_views.candidates == from_full.candidates
        assert from_views.processed_pairs == from_full.processed_pairs

    def test_pebble_free_transfer_copy_guards(self, parallel_dataset):
        from repro.join.global_order import GlobalOrder

        config = _config(parallel_dataset, "TJS")
        engine = PebbleJoin(config, THETA, tau=TAU)
        prepared = engine.prepare(parallel_dataset.records.head(8))
        slim = prepared.transfer_copy(keep_pebbles=False)
        with pytest.raises(RuntimeError, match="pebble-free"):
            slim.signed(GlobalOrder(), THETA, TAU, engine.method)
        with pytest.raises(RuntimeError, match="pebble-free"):
            slim.build_order()
        # Verification state still works: graph sides build from segments.
        assert slim.graph_side(0) is not None
        assert len(slim) == len(prepared)


class TestSatelliteFixes:
    def test_equal_config_uses_prepared_sides(self, parallel_dataset):
        """Regression: an equal-but-distinct config must hit the cached sides."""
        config_a = _config(parallel_dataset, "TJS")
        config_b = _config(parallel_dataset, "TJS")
        assert config_a == config_b and config_a is not config_b
        collection = parallel_dataset.records.head(15)
        prepared = PebbleJoin(config_a, THETA).prepare(collection)
        verifier = UnifiedVerifier(config_b, 0.3)
        candidates = [(i, j) for i in range(10) for j in (i + 1, i + 2) if j < 15]
        pairs = verifier.verify_batch(candidates, prepared, prepared)
        # The prepared collection served its own sides: the verifier-local
        # fallback memo (the historical slow path) stayed empty...
        assert verifier._side_cache == {}
        # ...and the prepared records now hold the built sides.
        assert any(r.graph_side is not None for r in prepared.prepared_records)
        reference = UnifiedVerifier(config_a, 0.3).verify_batch(
            candidates, collection, collection
        )
        assert _triples(pairs) == _triples(reference)

    def test_config_equality_tracks_knowledge_mutation(self):
        """The __eq__ memo must not return stale verdicts after a compared
        rule set or taxonomy is mutated."""
        from repro import SynonymRuleSet, Taxonomy

        rules_a = SynonymRuleSet.from_pairs([("coffee shop", "cafe")])
        rules_b = SynonymRuleSet.from_pairs([("coffee shop", "cafe")])
        tax_a, tax_b = Taxonomy("root"), Taxonomy("root")
        config_a = MeasureConfig.from_codes("TJS", rules=rules_a, taxonomy=tax_a)
        config_b = MeasureConfig.from_codes("TJS", rules=rules_b, taxonomy=tax_b)
        assert config_a == config_b  # memoised verdict
        rules_b.add_text_rule("cake", "gateau")
        assert config_a != config_b  # version stamp invalidated the memo
        rules_a.add_text_rule("cake", "gateau")
        assert config_a == config_b
        tax_b.add_node("food", tax_b.root)
        assert config_a != config_b
        tax_a.add_node("food", tax_a.root)
        assert config_a == config_b

    def test_suggestion_seconds_reported_in_batches(self, parallel_dataset):
        """Regression: tau='auto' streaming used to discard suggestion time."""
        join = UnifiedJoin(
            rules=parallel_dataset.rules,
            taxonomy=parallel_dataset.taxonomy,
            theta=THETA,
            tau="auto",
            recommendation_seed=3,
        )
        batches = list(join.join_batches(parallel_dataset.records.head(30), batch_size=8))
        assert len(batches) > 1
        assert batches[0].suggestion_seconds > 0.0
        assert all(batch.suggestion_seconds == 0.0 for batch in batches[1:])
        assert join.last_recommendation is not None
        # The one-shot API reports the same quantity through JoinStatistics.
        rejoin = UnifiedJoin(
            rules=parallel_dataset.rules,
            taxonomy=parallel_dataset.taxonomy,
            theta=THETA,
            tau="auto",
            recommendation_seed=3,
        ).join(parallel_dataset.records.head(30))
        assert rejoin.statistics.suggestion_seconds > 0.0

    def test_chunk_groups_split_hot_probe(self):
        """A single huge probe group must not serialize the whole pool."""
        hot = [(0, j) for j in range(1000)]
        cold = [[(1, 0)], [(2, 0)]]
        chunks = _chunk_groups([hot] + cold, 64)
        assert max(len(chunk) for chunk in chunks) <= 4 * 64
        assert len(chunks) >= 4  # the hot group was actually split
        # Order is preserved exactly across the split.
        flattened = [pair for chunk in chunks for pair in chunk]
        assert flattened == hot + [pair for group in cold for pair in group]
        # Small groups still pack together (no regression to per-group chunks).
        packed = _chunk_groups([[(i, 0)] for i in range(10)], 5)
        assert len(packed) == 2

    def test_hot_probe_pool_results_and_stats_exact(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(20)
        prepared = PebbleJoin(config, THETA).prepare(collection)
        # One hot probe (record 0) against every partner, repeated: a single
        # group far larger than the chunk target.
        candidates = [(0, j) for j in range(1, 20)] * 12
        candidates += [(5, j) for j in range(6, 12)]
        groups = _group_candidates(candidates, "left")
        assert len(groups[0]) > 64
        serial = UnifiedVerifier(config, 0.3)
        expected = serial.verify_batch(candidates, prepared, prepared)
        pooled = UnifiedVerifier(config, 0.3)
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = pooled.verify_batch(
                candidates, prepared, prepared, pool=pool, chunk_pairs=16
            )
        assert _triples(got) == _triples(expected)
        assert _counters(pooled.stats) == _counters(serial.stats)
        assert pooled.verified_count == len(candidates)

    def test_adaptive_tiers_skip_but_keep_pairs_identical(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(30)
        prepared = PebbleJoin(config, 0.2).prepare(collection)
        rng = random.Random(11)
        candidates = sorted(
            (rng.randrange(30), rng.randrange(30)) for _ in range(600)
        )
        # θ = 0.2 over random pairs: the lower tier only sees the 168 pairs
        # the maxima bound did not prune, and about a quarter of those clear
        # the threshold — below the tier's cost of one half, so its gate
        # closes after the first window and the tier is bypassed (the upper
        # tier keeps pruning and stays active).
        plain = UnifiedVerifier(config, 0.2)
        expected = plain.verify_batch(candidates, prepared, prepared)
        adaptive = UnifiedVerifier(
            config, 0.2, adaptive=True, adaptive_window=64, lower_tier_cost=0.5
        )
        got = adaptive.verify_batch(candidates, prepared, prepared)
        assert _triples(got) == _triples(expected)
        assert adaptive.stats.adaptive_lower_skips > 0
        # Bypassed tiers mean fewer bound computations, never fewer results.
        assert adaptive.stats.results == plain.stats.results
        assert adaptive.stats.candidates == plain.stats.candidates

    def test_unified_verifier_subclass_verify_override_honored(self, parallel_dataset):
        """verify() / _verify_one() overrides on a UnifiedVerifier subclass
        must not be bypassed by the batch engine's prepared cascade."""

        class VetoEverything(UnifiedVerifier):
            def verify(self, left, right):
                self.verified_count += 1
                return None

        class VetoViaHook(UnifiedVerifier):
            def _verify_one(self, left, right):
                return None

        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(12)
        prepared = PebbleJoin(config, 0.0).prepare(collection)
        candidates = [(i, j) for i in range(6) for j in range(6, 12)]
        verifier = VetoEverything(config, 0.0)
        assert verifier.verify_batch(candidates, prepared, prepared) == []
        assert verifier.verified_count == len(candidates)
        hooked = VetoViaHook(config, 0.0)
        assert hooked.verify_batch(candidates, prepared, prepared) == []
        assert hooked.verify_all(
            (collection[i], collection[j]) for i, j in candidates
        ) == []

    def test_process_executor_uses_verifier_threshold(self, parallel_dataset):
        """Workers must rebuild the verifier at *its* threshold, not the
        engine's filtering θ, when the two legitimately differ."""
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(24)
        strict = UnifiedVerifier(config, 0.9)
        serial = PebbleJoin(config, 0.4, tau=1, verifier=strict).join(collection)
        # A custom-but-default-typed verifier is the supported process case.
        pooled_engine = PebbleJoin(
            config, 0.4, tau=1, verifier=UnifiedVerifier(config, 0.9)
        )
        pooled = pooled_engine.join(collection, executor="process", workers=2)
        assert _triples(pooled.pairs) == _triples(serial.pairs)
        assert _counters(pooled.statistics.verification) == _counters(
            serial.statistics.verification
        )

    def test_adaptive_join_passthrough(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(30)
        plain = PebbleJoin(config, 0.3, tau=1).join(collection)
        adaptive_engine = PebbleJoin(
            config, 0.3, tau=1, adaptive_verification=True
        )
        adaptive = adaptive_engine.join(collection)
        assert _triples(adaptive.pairs) == _triples(plain.pairs)
        assert adaptive_engine.verifier.adaptive
