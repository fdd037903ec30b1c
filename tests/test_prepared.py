"""Tests for the PreparedCollection reuse path and the streaming batch API."""

import pytest

import repro.join.prepared as prepared_module
from repro.core.measures import MeasureConfig
from repro.join import (
    PebbleJoin,
    PreparedCollection,
    SignatureMethod,
    UnifiedJoin,
    build_shared_order,
)
from repro.records import RecordCollection


@pytest.fixture()
def counting_pebbles(monkeypatch):
    """Count calls to generate_pebbles made through the prepared cache."""
    calls = {"count": 0}
    original = prepared_module.generate_pebbles

    def counted(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(prepared_module, "generate_pebbles", counted)
    return calls


@pytest.fixture()
def counting_signing(monkeypatch):
    """Count calls to sign_record made through the prepared cache."""
    calls = {"count": 0}
    original = prepared_module.sign_record

    def counted(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(prepared_module, "sign_record", counted)
    return calls


class TestPreparedCollection:
    def test_container_protocol_delegates(self, figure1_config, poi_collections):
        left, _ = poi_collections
        prepared = PreparedCollection.prepare(left, figure1_config)
        assert len(prepared) == len(left)
        assert prepared[0] is left[0]
        assert list(prepared) == list(left)

    def test_pebbles_generated_once_across_engines(
        self, figure1_config, poi_collections, counting_pebbles
    ):
        left, right = poi_collections
        prepared_left = PreparedCollection.prepare(left, figure1_config)
        prepared_right = PreparedCollection.prepare(right, figure1_config)
        assert counting_pebbles["count"] == len(left) + len(right)
        # Two engines at different thresholds reuse the same pebbles.
        for theta in (0.6, 0.8):
            engine = PebbleJoin(figure1_config, theta, tau=2)
            engine.join(prepared_left, prepared_right)
        assert counting_pebbles["count"] == len(left) + len(right)

    def test_signatures_cached_per_configuration(self, figure1_config, poi_collections):
        left, right = poi_collections
        prepared = PreparedCollection.prepare(left, figure1_config)
        order = prepared.build_order()
        first = prepared.signed(order, 0.7, 2, SignatureMethod.AU_DP)
        again = prepared.signed(order, 0.7, 2, SignatureMethod.AU_DP)
        assert first is again
        other = prepared.signed(order, 0.7, 3, SignatureMethod.AU_DP)
        assert other is not first
        # An order over other content misses.
        shared = build_shared_order(
            [prepared, PreparedCollection.prepare(right, figure1_config)]
        )
        assert prepared.signed(shared, 0.7, 2, SignatureMethod.AU_DP) is not first
        assert prepared.cached_signature_count == 3

    def test_build_order_cached_per_strategy(self, figure1_config, poi_collections):
        left, _ = poi_collections
        prepared = PreparedCollection.prepare(left, figure1_config)
        assert prepared.build_order("frequency") is prepared.build_order("frequency")
        assert prepared.build_order("weight") is not prepared.build_order("frequency")

    def test_shared_order_cached_and_mirrored(self, figure1_config, poi_collections):
        left, right = poi_collections
        prepared_left = PreparedCollection.prepare(left, figure1_config)
        prepared_right = PreparedCollection.prepare(right, figure1_config)
        order = prepared_left.shared_order_with(prepared_right)
        assert prepared_left.shared_order_with(prepared_right) is order
        assert prepared_right.shared_order_with(prepared_left) is order
        assert prepared_left.shared_order_with(prepared_left) is prepared_left.build_order()

    def test_repeated_prepared_joins_sign_once(
        self, figure1_config, poi_collections, counting_signing
    ):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=2)
        prepared_left = engine.prepare(left)
        prepared_right = engine.prepare(right)
        first = engine.join(prepared_left, prepared_right)
        signed_after_first = counting_signing["count"]
        second = engine.join(prepared_left, prepared_right)
        # The second two-sided join reuses the cached shared order and hence
        # the cached signatures — no re-signing.
        assert counting_signing["count"] == signed_after_first
        assert second.pair_ids() == first.pair_ids()

    def test_shared_order_cache_does_not_pin_partner(self, figure1_config, poi_collections):
        import gc
        import weakref

        left, right = poi_collections
        prepared_left = PreparedCollection.prepare(left, figure1_config)
        prepared_right = PreparedCollection.prepare(right, figure1_config)
        prepared_left.shared_order_with(prepared_right)
        partner_ref = weakref.ref(prepared_right)
        del prepared_right
        gc.collect()
        # The mirrored cache holds the partner weakly: it must be collectable.
        assert partner_ref() is None

    def test_dead_partner_purges_shared_order_and_signatures(
        self, figure1_config, poi_collections
    ):
        import gc

        left, right = poi_collections
        prepared_left = PreparedCollection.prepare(left, figure1_config)
        prepared_right = PreparedCollection.prepare(right, figure1_config)
        order = prepared_left.shared_order_with(prepared_right)
        prepared_left.signed(order, 0.7, 2, SignatureMethod.AU_DP)
        assert prepared_left.cached_signature_count == 1
        del prepared_right, order
        gc.collect()
        # The weakref callback dropped both the shared-order entry and the
        # signatures signed under it — they could never be cache-hit again.
        assert prepared_left._shared_orders == {}
        assert prepared_left.cached_signature_count == 0

    def test_clear_caches_releases_derived_state(self, figure1_config, poi_collections):
        left, _ = poi_collections
        prepared = PreparedCollection.prepare(left, figure1_config)
        order = prepared.build_order()
        prepared.signed(order, 0.7, 2, SignatureMethod.AU_DP)
        assert prepared.cached_signature_count == 1
        prepared.clear_caches()
        assert prepared.cached_signature_count == 0
        # Pebbles survive: re-signing works without re-preparing.
        fresh_order = prepared.build_order()
        assert prepared.signed(fresh_order, 0.7, 2, SignatureMethod.AU_DP)

    def test_shared_order_deduplicates_collections(self, figure1_config, poi_collections):
        left, _ = poi_collections
        prepared = PreparedCollection.prepare(left, figure1_config)
        shared = build_shared_order([prepared, prepared])
        single = build_shared_order([prepared])
        assert len(shared) == len(single)
        sample_key = next(iter(shared._frequencies))
        assert shared.frequency(sample_key) == single.frequency(sample_key)

    def test_prepared_join_equals_raw_join(self, figure1_config, poi_collections):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=2)
        raw = engine.join(left, right)
        prepared = engine.join(engine.prepare(left), engine.prepare(right))
        assert prepared.pair_ids() == raw.pair_ids()
        assert prepared.statistics.candidate_count == raw.statistics.candidate_count
        assert prepared.statistics.processed_pairs == raw.statistics.processed_pairs

    def test_config_binding_is_checked(self, figure1_config, poi_collections):
        left, right = poi_collections
        other_config = MeasureConfig.from_codes("J")
        prepared = PreparedCollection.prepare(left, other_config)
        engine = PebbleJoin(figure1_config, 0.7, tau=2)
        with pytest.raises(ValueError):
            engine.join(prepared, right)


class TestSigningReuse:
    def test_auto_tau_signs_full_collections_exactly_once(
        self, figure1_rules, figure1_taxonomy, poi_collections, counting_signing
    ):
        left, right = poi_collections
        join = UnifiedJoin(
            rules=figure1_rules,
            taxonomy=figure1_taxonomy,
            theta=0.7,
            tau="auto",
            sample_probability=0.5,
            tau_universe=(1, 2),
            recommendation_seed=7,
        )
        result = join.join(left, right)
        assert join.last_recommendation is not None
        # The recommendation signed every record once at max(tau_universe)
        # and the final join reused those signatures from the prepared cache.
        assert counting_signing["count"] == len(left) + len(right)
        assert result.statistics.tau == join.last_recommendation.best_tau

    def test_auto_tau_self_join_signs_once(
        self, figure1_rules, figure1_taxonomy, counting_signing
    ):
        collection = RecordCollection.from_strings(
            ["coffee shop", "cafe", "coffee shop", "museum", "apple cake", "gateau"]
        )
        join = UnifiedJoin(
            rules=figure1_rules,
            taxonomy=figure1_taxonomy,
            theta=0.8,
            tau="auto",
            sample_probability=0.5,
            tau_universe=(1, 2),
            recommendation_seed=7,
        )
        result = join.join(collection)
        assert counting_signing["count"] == len(collection)
        for pair in result.pairs:
            assert pair.left_id < pair.right_id

    def test_signing_tau_below_filter_tau_rejected(self, figure1_config, poi_collections):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=3)
        with pytest.raises(ValueError):
            engine.join(left, right, signing_tau=2)

    @pytest.mark.parametrize("signing_tau", [2.5, True])
    def test_bad_signing_tau_rejected_before_preparation(
        self, figure1_config, tmp_path, signing_tau
    ):
        """signing_tau is checked under its own name before anything is
        prepared: it used to be checked as "tau" after a store-backed engine
        had prepared the collection and written its artifact."""
        from repro.store import PreparedStore

        records = RecordCollection.from_strings(["coffee shop", "cafe", "museum"])
        engine = PebbleJoin(
            figure1_config, 0.8, tau=1, store=PreparedStore(tmp_path / "store")
        )
        calls = (
            lambda: engine.join(records, signing_tau=signing_tau),
            lambda: engine.join_batches(records, signing_tau=signing_tau),
            lambda: engine.resolve(records, signing_tau=signing_tau),
        )
        for call in calls:
            with pytest.raises(ValueError, match="signing_tau must be a positive integer"):
                call()
        assert list((tmp_path / "store").iterdir()) == []

    def test_signing_tau_above_filter_tau_is_lossless(
        self, figure1_config, poi_collections
    ):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=2)
        plain = engine.join(left, right)
        oversigned = engine.join(left, right, signing_tau=4)
        # τ'-signatures guarantee τ' ≥ τ overlaps for θ-similar pairs, so the
        # verified result set is unchanged (candidates may differ).
        assert oversigned.pair_ids() == plain.pair_ids()


class TestJoinBatches:
    def test_batches_union_equals_join(self, figure1_config, poi_collections):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=2)
        full = engine.join(left, right)
        streamed = set()
        candidate_total = 0
        processed_total = 0
        batches = list(engine.join_batches(left, right, batch_size=2))
        for batch in batches:
            streamed.update((pair.left_id, pair.right_id) for pair in batch.pairs)
            candidate_total += batch.candidate_count
            processed_total += batch.processed_pairs
        assert streamed == full.pair_ids()
        assert candidate_total == full.statistics.candidate_count
        assert processed_total == full.statistics.processed_pairs
        assert len(batches) == 2

    def test_self_join_batches(self, figure1_config):
        collection = RecordCollection.from_strings(
            ["coffee shop", "cafe", "coffee shop", "museum"]
        )
        engine = PebbleJoin(figure1_config, 0.9, tau=1)
        full = engine.self_join(collection)
        streamed = set()
        for batch in engine.join_batches(collection, batch_size=1):
            streamed.update((pair.left_id, pair.right_id) for pair in batch.pairs)
        assert streamed == full.pair_ids()

    def test_worker_pool_verification_matches(self, figure1_config, poi_collections):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=2)
        sequential = set()
        for batch in engine.join_batches(left, right, batch_size=2):
            sequential.update((pair.left_id, pair.right_id) for pair in batch.pairs)
        pooled = set()
        for batch in engine.join_batches(
            left, right, batch_size=2, executor="process", workers=2
        ):
            pooled.update((pair.left_id, pair.right_id) for pair in batch.pairs)
        assert pooled == sequential

    def test_invalid_parameters(self, figure1_config, poi_collections):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=2)
        with pytest.raises(ValueError):
            list(engine.join_batches(left, right, batch_size=0))
        with pytest.raises(ValueError):
            list(engine.join_batches(left, right, executor="process", workers=0))

    def test_unified_join_batches(self, figure1_rules, figure1_taxonomy, poi_collections):
        left, right = poi_collections
        join = UnifiedJoin(
            rules=figure1_rules, taxonomy=figure1_taxonomy, theta=0.7, tau=2
        )
        full = join.join(left, right)
        streamed = set()
        for batch in join.join_batches(left, right, batch_size=3):
            streamed.update((pair.left_id, pair.right_id) for pair in batch.pairs)
        assert streamed == full.pair_ids()
