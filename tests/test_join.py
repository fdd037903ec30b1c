"""Tests for the filter-and-verify join engines."""

import pytest

from repro.core.measures import MeasureConfig
from repro.evaluation.experiments import config_for
from repro.join import (
    PebbleJoin,
    SignatureMethod,
    UnifiedJoin,
    UnifiedVerifier,
    dual_index_filter_candidates,
)
from repro.join.kernels import numpy_available
from repro.records import RecordCollection

_KERNELS = ["python"] + (["numpy"] if numpy_available() else [])


class TestPebbleJoinEndToEnd:
    @pytest.mark.parametrize("method", SignatureMethod.ALL)
    def test_poi_join_finds_expected_pairs(self, figure1_config, poi_collections, method):
        left, right = poi_collections
        tau = 1 if method == SignatureMethod.U_FILTER else 2
        engine = PebbleJoin(figure1_config, 0.7, tau=tau, method=method)
        result = engine.join(left, right)
        found = result.pair_ids()
        # coffee shop latte Helsingki <-> espresso cafe Helsinki
        assert (0, 0) in found
        # pizza place new york <-> pizza place ny (synonym ny -> new york)
        assert (1, 1) in found
        # unrelated POIs must not match
        assert (2, 2) not in found

    def test_verified_similarities_meet_threshold(self, figure1_config, poi_collections):
        left, right = poi_collections
        result = PebbleJoin(figure1_config, 0.7, tau=1).join(left, right)
        for pair in result.pairs:
            assert pair.similarity >= 0.7

    def test_statistics_are_populated(self, figure1_config, poi_collections):
        left, right = poi_collections
        result = PebbleJoin(figure1_config, 0.7, tau=2).join(left, right)
        stats = result.statistics
        assert stats.left_records == len(left)
        assert stats.right_records == len(right)
        assert stats.candidate_count >= len(result)
        assert stats.processed_pairs >= stats.candidate_count
        assert stats.avg_signature_length_left > 0
        assert stats.total_seconds > 0

    def test_self_join_excludes_self_pairs(self, figure1_config):
        collection = RecordCollection.from_strings(
            ["coffee shop", "cafe", "coffee shop", "museum"]
        )
        result = PebbleJoin(figure1_config, 0.9, tau=1).self_join(collection)
        for pair in result.pairs:
            assert pair.left_id < pair.right_id
        assert (0, 2) in result.pair_ids()  # identical strings
        assert (0, 1) in result.pair_ids()  # synonym pair

    def test_higher_threshold_returns_subset(self, figure1_config, poi_collections):
        left, right = poi_collections
        low = PebbleJoin(figure1_config, 0.6, tau=1).join(left, right).pair_ids()
        high = PebbleJoin(figure1_config, 0.9, tau=1).join(left, right).pair_ids()
        assert high.issubset(low)

    def test_invalid_parameters(self, figure1_config):
        with pytest.raises(ValueError):
            PebbleJoin(figure1_config, 1.5)
        with pytest.raises(ValueError):
            PebbleJoin(figure1_config, 0.8, tau=0)
        # A fractional, NaN or bool tau used to construct and then fail
        # inside signing (a float slice index).
        for tau in (2.5, float("nan"), True):
            with pytest.raises(ValueError, match="tau must be a positive integer"):
                PebbleJoin(figure1_config, 0.8, tau=tau)
        with pytest.raises(ValueError):
            PebbleJoin(figure1_config, 0.8, method="magic")
        # U-Filter implies tau=1: a conflicting larger tau is rejected, not
        # silently clamped.
        with pytest.raises(ValueError):
            PebbleJoin(figure1_config, 0.8, tau=2, method=SignatureMethod.U_FILTER)
        # Algorithm 1's t and the order strategy fail at construction, not
        # when a join first builds a graph or an order.
        for t in (1.0, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t must be"):
                PebbleJoin(figure1_config, 0.8, approximation_t=t)
            with pytest.raises(ValueError, match="t must be"):
                PebbleJoin(
                    figure1_config,
                    0.8,
                    method=SignatureMethod.U_FILTER,
                    approximation_t=t,
                )
        for method in (SignatureMethod.AU_DP, SignatureMethod.U_FILTER):
            with pytest.raises(ValueError, match="strategy"):
                PebbleJoin(figure1_config, 0.8, method=method, order_strategy="bogus")

    def test_ufilter_join(self, figure1_config, poi_collections):
        left, right = poi_collections
        result = PebbleJoin(figure1_config, 0.7, method=SignatureMethod.U_FILTER).join(
            left, right
        )
        assert (0, 0) in result.pair_ids()
        assert result.statistics.tau == 1

    def test_filter_candidates_tau_override(self, figure1_config, poi_collections):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=1, method=SignatureMethod.AU_DP)
        order = engine.build_order(left, right)
        left_signed = engine.sign_collection(left, order)
        right_signed = engine.sign_collection(right, order)
        loose = engine.filter_candidates(left_signed, right_signed, tau=1)
        strict = engine.filter_candidates(left_signed, right_signed, tau=3)
        assert set(strict.candidates).issubset(set(loose.candidates))
        assert loose.processed_pairs == strict.processed_pairs


class TestTauOverrideValidation:
    """A per-call τ override is checked like every other τ: a float (even
    an integral one or NaN) or a bool is refused, never rounded or read as 1."""

    @pytest.fixture(scope="class")
    def signed(self, tiny_dataset):
        records = tiny_dataset.records.head(40)
        engine = PebbleJoin(config_for(tiny_dataset), 0.6, tau=3, method=SignatureMethod.AU_DP)
        return engine, engine.sign_collection(records, engine.build_order(records))

    @pytest.mark.parametrize("tau", [2.5, 3.0, float("nan"), True])
    @pytest.mark.parametrize("kernel", _KERNELS)
    def test_filter_candidates_rejects_non_integer_tau(self, signed, kernel, tau):
        engine, records = signed
        with pytest.raises(ValueError, match="positive integer"):
            engine.filter_candidates(
                records, records, tau=tau, exclude_self_pairs=True, kernel=kernel
            )
        # The integer form of the same override still filters.
        at_three = engine.filter_candidates(
            records, records, tau=3, exclude_self_pairs=True, kernel=kernel
        )
        assert at_three.candidates == engine.filter_candidates(
            records, records, exclude_self_pairs=True, kernel=kernel
        ).candidates

    @pytest.mark.parametrize("requirement", [2.5, 3.0, float("nan"), True])
    def test_dual_index_rejects_non_integer_requirement(self, signed, requirement):
        _, records = signed
        with pytest.raises(ValueError, match="positive integer"):
            dual_index_filter_candidates(
                records, records, requirement=requirement, exclude_self_pairs=True
            )


class TestCustomVerifier:
    def test_verifier_threshold_validation(self, figure1_config):
        with pytest.raises(ValueError):
            UnifiedVerifier(figure1_config, threshold=2.0)

    def test_unified_verifier_counts_calls(self, figure1_config, poi_collections):
        left, right = poi_collections
        engine = PebbleJoin(figure1_config, 0.7, tau=1)
        result = engine.join(left, right)
        assert engine.verifier.stats.candidates == result.statistics.candidate_count


class TestUnifiedJoinFacade:
    def test_fixed_tau(self, figure1_rules, figure1_taxonomy, poi_collections):
        left, right = poi_collections
        join = UnifiedJoin(rules=figure1_rules, taxonomy=figure1_taxonomy, theta=0.7, tau=2)
        result = join.join(left, right)
        assert (0, 0) in result.pair_ids()

    def test_invalid_tau(self, figure1_rules):
        with pytest.raises(ValueError):
            UnifiedJoin(rules=figure1_rules, tau=0)
        with pytest.raises(ValueError):
            UnifiedJoin(rules=figure1_rules, tau="sometimes")
        with pytest.raises(ValueError):
            UnifiedJoin(rules=figure1_rules, tau=3, method=SignatureMethod.U_FILTER)
        # tau=2.5 used to join silently at tau=2.
        for tau in (2.5, float("nan"), True):
            with pytest.raises(ValueError, match="tau must be a positive integer"):
                UnifiedJoin(rules=figure1_rules, tau=tau)
        # θ is validated at construction, as PebbleJoin and SimilarityIndex do.
        for theta in (1.5, float("nan")):
            with pytest.raises(ValueError, match="theta"):
                UnifiedJoin(rules=figure1_rules, theta=theta)
        # tau="auto" validates the recommender's inputs at construction,
        # not after a whole estimation.
        for probability in (0.0, -0.5, 1.7):
            with pytest.raises(ValueError, match="probability"):
                UnifiedJoin(rules=figure1_rules, tau="auto", sample_probability=probability)
        for universe in ((0, 1), (1.5, 2), (1, float("nan"))):
            with pytest.raises(ValueError, match="tau_universe"):
                UnifiedJoin(rules=figure1_rules, tau="auto", tau_universe=universe)
        with pytest.raises(ValueError, match="tau_universe"):
            UnifiedJoin(rules=figure1_rules, tau="auto", tau_universe=())
        UnifiedJoin(rules=figure1_rules, tau="auto", sample_probability=1.0)
        # The facade builds its engines lazily, so it checks Algorithm 1's t
        # itself: a bad t used to surface only once a join built a graph.
        for t in (1.0, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t must be"):
                UnifiedJoin(rules=figure1_rules, approximation_t=t)

    def test_auto_tau_with_ufilter_warns_and_skips_recommendation(
        self, figure1_rules, figure1_taxonomy, poi_collections
    ):
        left, right = poi_collections
        with pytest.warns(UserWarning, match="U-Filter"):
            join = UnifiedJoin(
                rules=figure1_rules,
                taxonomy=figure1_taxonomy,
                theta=0.7,
                tau="auto",
                method=SignatureMethod.U_FILTER,
            )
        assert join.tau == 1
        result = join.join(left, right)
        # The pointless sampling recommendation is skipped entirely.
        assert join.last_recommendation is None
        assert result.statistics.suggestion_seconds == 0.0
        assert result.statistics.tau == 1

    def test_auto_tau_on_tiny_dataset(self, tiny_dataset):
        from repro.evaluation.experiments import split_dataset

        left, right = split_dataset(tiny_dataset, 25, 25)
        join = UnifiedJoin(
            rules=tiny_dataset.rules,
            taxonomy=tiny_dataset.taxonomy,
            theta=0.85,
            tau="auto",
            sample_probability=0.3,
            tau_universe=(1, 2, 3),
            recommendation_seed=9,
        )
        result = join.join(left, right)
        assert join.last_recommendation is not None
        assert result.statistics.suggestion_seconds > 0
        assert join.last_recommendation.best_tau in (1, 2, 3)
