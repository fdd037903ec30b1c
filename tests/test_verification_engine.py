"""Equivalence and soundness tests for the prepared verification engine.

The engine's contract is strict: for any candidate set, the pairs surviving
:meth:`UnifiedVerifier.verify_batch` and their similarity values must be
*bit-identical* to verifying each candidate with the seed per-pair path
(:meth:`Verifier.verify`, i.e. a fresh ``approximate_usim`` per pair).  The
tests here enforce that over randomized candidate sets across measure
configurations, self-joins, and pruning toggles, and separately check the soundness of each tier of the bound cascade.
"""

from __future__ import annotations

import random

import pytest

from repro.core.approximation import approximate_usim, approximate_usim_on_graph
from repro.core.exact import ExactBudgetExceeded, exact_usim
from repro.core.graph import (
    GraphSide,
    build_conflict_graph,
    build_conflict_graph_from_sides,
    singleton_greedy_lower_bound,
    usim_upper_bound,
)
from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset, generate_ground_truth
from repro.join import PebbleJoin, SignatureMethod
from repro.join.verification import UnifiedVerifier, VerificationStats, Verifier
from repro.records import Record, RecordCollection

MEASURE_CODES = ("J", "S", "T", "TJS")


@pytest.fixture(scope="module")
def engine_dataset():
    """A small synthetic corpus with synonym rules and a taxonomy."""
    return generate_dataset(TINY_PROFILE, seed=29)


def _config(dataset, codes: str) -> MeasureConfig:
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


def _random_candidates(rng, count, left_size, right_size, *, self_join=False):
    """A randomized candidate list grouped probe-major like the filter's."""
    candidates = []
    for _ in range(count):
        if self_join:
            right_id = rng.randrange(1, right_size)
            left_id = rng.randrange(0, right_id)
        else:
            left_id = rng.randrange(left_size)
            right_id = rng.randrange(right_size)
        candidates.append((left_id, right_id))
    # Group by the probe (left) id without losing duplicates, mirroring the
    # probe-major emission order of the filter.
    candidates.sort(key=lambda pair: pair[0])
    return candidates


def _reference_results(config, threshold, candidates, left, right):
    """The seed path: one per-pair verifier, fresh graph per candidate."""
    verifier = UnifiedVerifier(config, threshold)
    results = []
    for left_id, right_id in candidates:
        verified = verifier.verify(left[left_id], right[right_id])
        if verified is not None:
            results.append((verified.left_id, verified.right_id, verified.similarity))
    return results


def _as_triples(pairs):
    return [(pair.left_id, pair.right_id, pair.similarity) for pair in pairs]


class TestVerifyBatchEquivalence:
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_randomized_equivalence_per_measure(self, engine_dataset, codes):
        config = _config(engine_dataset, codes)
        collection = engine_dataset.records.head(40)
        left = collection.subset(range(0, 20))
        right = collection.subset(range(20, 40))
        rng = random.Random(hash(codes) & 0xFFFF)
        candidates = _random_candidates(rng, 120, len(left), len(right))
        for threshold in (0.0, 0.4, 0.8):
            reference = _reference_results(config, threshold, candidates, left, right)
            engine = UnifiedVerifier(config, threshold)
            prepared_left = PebbleJoin(config, threshold).prepare(left)
            prepared_right = PebbleJoin(config, threshold).prepare(right)
            got = engine.verify_batch(candidates, prepared_left, prepared_right)
            assert _as_triples(got) == reference
            assert engine.verified_count == len(candidates)

    @pytest.mark.parametrize("prune", [True, False])
    def test_self_join_equivalence(self, engine_dataset, prune):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(30)
        rng = random.Random(91)
        candidates = _random_candidates(
            rng, 150, len(collection), len(collection), self_join=True
        )
        threshold = 0.5
        reference = _reference_results(config, threshold, candidates, collection, collection)
        engine = UnifiedVerifier(config, threshold, prune=prune)
        prepared = PebbleJoin(config, threshold).prepare(collection)
        got = engine.verify_batch(candidates, prepared, prepared)
        assert _as_triples(got) == reference
        if not prune:
            assert engine.stats.upper_bound_prunes == 0
            assert engine.stats.graphs_built == len(candidates)

    def test_raw_collections_fall_back_to_local_cache(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(20)
        rng = random.Random(7)
        candidates = _random_candidates(rng, 60, len(collection), len(collection))
        threshold = 0.3
        reference = _reference_results(config, threshold, candidates, collection, collection)
        engine = UnifiedVerifier(config, threshold)
        got = engine.verify_batch(candidates, collection, collection)
        assert _as_triples(got) == reference
        assert engine._side_cache  # the fallback memo was exercised

    def test_legacy_verify_override_honored_on_every_path(self, engine_dataset):
        """Subclasses overriding verify() keep their semantics in batches
        and through the join engine."""

        class RejectEverything(Verifier):
            def verify(self, left, right):
                self.verified_count += 1
                return None

        collection = engine_dataset.records.head(10)
        verifier = RejectEverything(lambda left, right: 1.0, 0.0)
        candidates = [(i, j) for i in range(5) for j in range(5)]
        assert verifier.verify_batch(candidates, collection, collection) == []
        assert verifier.verified_count == len(candidates)
        config = _config(engine_dataset, "J")
        result = PebbleJoin(config, 0.0, tau=1, verifier=verifier).join(collection)
        assert result.pairs == []
        assert verifier.verified_count == (
            len(candidates) + result.statistics.candidate_count
        )

    def test_duck_typed_verifier_without_verify_batch(self, engine_dataset):
        """PebbleJoin still accepts verifiers exposing only verify()."""

        class MinimalVerifier:
            threshold = 0.0
            verified_count = 0

            def verify(self, left, right):
                self.verified_count += 1
                from repro.join.verification import VerifiedPair

                return VerifiedPair(left.record_id, right.record_id, 1.0)

        config = _config(engine_dataset, "J")
        collection = engine_dataset.records.head(15)
        engine = PebbleJoin(config, 0.0, tau=1, method=SignatureMethod.U_FILTER,
                            verifier=MinimalVerifier())
        result = engine.join(collection)
        assert len(result) == result.statistics.candidate_count
        assert result.statistics.verification is None

    def test_join_reports_verification_stats(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(40)
        engine = PebbleJoin(config, 0.7, tau=2, method=SignatureMethod.AU_DP)
        result = engine.join(collection)
        stats = result.statistics.verification
        assert isinstance(stats, VerificationStats)
        assert stats.candidates == result.statistics.candidate_count
        assert stats.results == result.statistics.result_count
        assert (
            stats.upper_bound_prunes + stats.graphs_built == stats.candidates
        )
        assert stats.ceiling_stops + stats.full_runs == stats.graphs_built

    def test_join_batches_match_join_with_workers(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(40)
        engine = PebbleJoin(config, 0.6, tau=2, method=SignatureMethod.AU_DP)
        expected = engine.join(collection)
        streamed = PebbleJoin(config, 0.6, tau=2, method=SignatureMethod.AU_DP)
        batches = list(
            streamed.join_batches(
                collection, batch_size=8, executor="process", workers=3
            )
        )
        streamed_pairs = {
            (pair.left_id, pair.right_id, pair.similarity)
            for batch in batches
            for pair in batch.pairs
        }
        assert streamed_pairs == set(_as_triples(expected.pairs))
        total_candidates = sum(batch.candidate_count for batch in batches)
        assert streamed.verifier.verified_count == total_candidates
        assert sum(
            batch.verification.candidates for batch in batches
        ) == total_candidates


def _near_duplicate_collection(dataset, count=12, exact_copies=3):
    """Originals followed by their near-duplicates (the first few exact
    copies), so that some candidates clear the lower bound even at high θ
    while most are pruned."""
    truth = generate_ground_truth(
        dataset, positive_pairs=count, negative_pairs=0, seed=3
    )
    positives = truth.positives()[:count]
    originals = [pair.left for pair in positives]
    duplicates = originals[:exact_copies] + [
        pair.right for pair in positives[exact_copies:]
    ]
    sources = originals + duplicates
    return RecordCollection(
        Record(record_id=index, text=record.text, tokens=record.tokens)
        for index, record in enumerate(sources)
    )


def _reference_cascade_stats(config, threshold, candidates, left, right):
    """The historical tier order from the public bounds: the lower bound
    first, then the upper bound with its sub-θ maxima short circuit."""
    stats = VerificationStats()
    for left_id, right_id in candidates:
        left_side = left.graph_side(left_id)
        right_side = right.graph_side(right_id)
        stats.candidates += 1
        if singleton_greedy_lower_bound(left_side, right_side, config) >= threshold:
            stats.lower_bound_skips += 1
        elif usim_upper_bound(left_side, right_side, config, threshold=threshold) < threshold:
            stats.upper_bound_prunes += 1
            continue
        stats.graphs_built += 1
        graph = build_conflict_graph_from_sides(left_side, right_side, config)
        result = approximate_usim_on_graph(graph, config, t=4.0)
        if result.ceiling_stopped:
            stats.ceiling_stops += 1
        else:
            stats.full_runs += 1
        if result.value >= threshold:
            stats.results += 1
    return stats


class TestCascadeOrderCounters:
    """Running the maxima bound before the lower bound changes no counter:
    a pair the lower bound clears is never pruned by any upper stage."""

    @pytest.mark.parametrize("self_join", [True, False], ids=["self", "two"])
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_counters_match_historical_order(self, engine_dataset, codes, self_join):
        config = _config(engine_dataset, codes)
        collection = _near_duplicate_collection(engine_dataset)
        half = len(collection) // 2
        if self_join:
            left = right = collection
            candidates = [
                (i, j) for i in range(len(collection)) for j in range(i + 1, len(collection))
            ]
        else:
            # Originals against their duplicates (plus every other pairing).
            left = collection.subset(range(half))
            right = collection.subset(range(half, len(collection)))
            candidates = [(i, j) for i in range(half) for j in range(half)]
        for threshold in (0.3, 0.8, 0.95):
            prepared_left = PebbleJoin(config, threshold).prepare(left)
            prepared_right = (
                prepared_left if self_join else PebbleJoin(config, threshold).prepare(right)
            )
            expected = _reference_cascade_stats(
                config, threshold, candidates, prepared_left, prepared_right
            )
            batch = UnifiedVerifier(config, threshold)
            batch.verify_batch(candidates, prepared_left, prepared_right)
            assert batch.stats == expected, threshold
            single = UnifiedVerifier(config, threshold)
            for left_id, right_id in candidates:
                single.verify_prepared_pair(
                    prepared_left[left_id],
                    prepared_right[right_id],
                    prepared_left.graph_side(left_id),
                    prepared_right.graph_side(right_id),
                )
            assert single.stats == expected, threshold
            assert expected.upper_bound_prunes > 0, threshold
            if "J" in codes:
                # Exact copies clear every θ under Jaccard; S and T alone
                # score a token 0 unless a rule or taxonomy node covers it.
                assert expected.lower_bound_skips > 0, threshold


class TestBoundSoundness:
    def _random_pairs(self, dataset, count, seed):
        rng = random.Random(seed)
        records = list(dataset.records)
        return [(rng.choice(records), rng.choice(records)) for _ in range(count)]

    def test_upper_bound_dominates_approximation(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        for left, right in self._random_pairs(engine_dataset, 60, 3):
            left_side = GraphSide(left.tokens, config)
            right_side = GraphSide(right.tokens, config)
            upper = usim_upper_bound(left_side, right_side, config)
            approx = approximate_usim(left.tokens, right.tokens, config).value
            assert approx <= upper + 1e-9

    def test_bounds_bracket_exact_usim(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        checked = 0
        for left, right in self._random_pairs(engine_dataset, 60, 5):
            left_side = GraphSide(left.tokens, config)
            right_side = GraphSide(right.tokens, config)
            try:
                exact = exact_usim(
                    left.tokens, right.tokens, config, partition_limit=2000
                ).value
            except ExactBudgetExceeded:
                continue
            checked += 1
            lower = singleton_greedy_lower_bound(left_side, right_side, config)
            upper = usim_upper_bound(left_side, right_side, config)
            assert lower <= exact + 1e-9
            assert exact <= upper + 1e-9
        assert checked > 10

    def test_identical_strings_bound_tight(self, figure1_config):
        tokens = ("coffee", "shop", "latte")
        side = GraphSide(tokens, figure1_config)
        other = GraphSide(tokens, figure1_config)
        assert singleton_greedy_lower_bound(side, other, figure1_config) == 1.0
        assert usim_upper_bound(side, other, figure1_config) == 1.0

    def test_synonym_bound_tight_under_rule_transitivity(self):
        """Two rhs of rules sharing one lhs are transitively related but not
        connected by any rule: the sharpened bound must see similarity 0
        where the historical full shared-lhs intersection saw min-closeness,
        while direct rules keep their exact bound."""
        from repro.core.measures import MeasureConfig
        from repro.synonyms.rules import SynonymRuleSet

        rules = SynonymRuleSet.from_pairs(
            [("coffee shop", "cafe"), ("coffee shop", "coffeehouse")],
            closeness=0.9,
        )
        config = MeasureConfig.from_codes("S", rules=rules)
        cafe = GraphSide(("cafe",), config)
        coffeehouse = GraphSide(("coffeehouse",), config)
        # No rule connects the two rhs: similarity is 0 and the tightened
        # bound agrees (the shared "coffee shop" lhs is no longer a hit).
        assert config.msim(("cafe",), ("coffeehouse",)) == 0.0
        assert usim_upper_bound(cafe, coffeehouse, config) == 0.0
        # A directly connected pair still bounds at the rule's closeness.
        shop = GraphSide(("coffee", "shop"), config)
        assert config.msim(("coffee", "shop"), ("cafe",)) == 0.9
        assert usim_upper_bound(shop, cafe, config) >= 0.9


class TestCeilingBreak:
    def test_early_ceiling_values_identical(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        rng = random.Random(17)
        records = list(engine_dataset.records)
        for _ in range(40):
            left, right = rng.choice(records), rng.choice(records)
            fast = approximate_usim(left.tokens, right.tokens, config, t=4.0)
            slow = approximate_usim(
                left.tokens, right.tokens, config, t=4.0, early_ceiling=False
            )
            assert fast.value == slow.value

    def test_ceiling_stop_reported_for_identical_strings(self, figure1_config):
        result = approximate_usim(
            ("coffee", "shop", "latte"), ("coffee", "shop", "latte"), figure1_config
        )
        assert result.value == 1.0
        assert result.ceiling_stopped


class TestGraphSideAssembly:
    def test_side_based_graph_matches_ad_hoc(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        rng = random.Random(23)
        records = list(engine_dataset.records)
        for _ in range(25):
            left, right = rng.choice(records), rng.choice(records)
            ad_hoc = build_conflict_graph(left.tokens, right.tokens, config)
            from_sides = build_conflict_graph_from_sides(
                GraphSide(left.tokens, config), GraphSide(right.tokens, config), config
            )
            assert len(ad_hoc) == len(from_sides)
            for a, b in zip(ad_hoc.vertices, from_sides.vertices):
                assert (a.left, a.right, a.weight, a.measure) == (
                    b.left,
                    b.right,
                    b.weight,
                    b.measure,
                )
            for index in range(len(ad_hoc)):
                assert ad_hoc.neighbors(index) == from_sides.neighbors(index)

    def test_prepared_collection_caches_graph_sides(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(5)
        prepared = PebbleJoin(config, 0.8).prepare(collection)
        first = prepared.graph_side(0)
        assert prepared.graph_side(0) is first
        # The cached side reuses the pebble-generation segments verbatim.
        assert list(first.segments) == list(prepared.prepared_records[0].segments)

    def test_mixed_config_sides_rejected(self, engine_dataset):
        # Genuinely different configs (different enabled measures) must be
        # rejected; equal-but-distinct ones are accepted (see below).
        config_a = _config(engine_dataset, "TJS")
        config_b = _config(engine_dataset, "TJ")
        side = GraphSide(("a",), config_a)
        other = GraphSide(("a",), config_b)
        with pytest.raises(ValueError):
            build_conflict_graph_from_sides(side, other, config_a)
        with pytest.raises(ValueError):
            usim_upper_bound(side, other, config_a)

    def test_equal_but_distinct_config_sides_accepted(self, engine_dataset):
        """Configs compare by content: distinct-but-equal objects mix freely."""
        config_a = _config(engine_dataset, "TJS")
        config_b = _config(engine_dataset, "TJS")
        assert config_a == config_b and config_a is not config_b
        side = GraphSide(("coffee", "shop"), config_a)
        other = GraphSide(("cafe",), config_b)
        graph = build_conflict_graph_from_sides(side, other, config_a)
        reference = build_conflict_graph_from_sides(
            GraphSide(("coffee", "shop"), config_a),
            GraphSide(("cafe",), config_a),
            config_a,
        )
        assert [v.weight for v in graph.vertices] == [
            v.weight for v in reference.vertices
        ]
        assert usim_upper_bound(side, other, config_a) == usim_upper_bound(
            GraphSide(("coffee", "shop"), config_b),
            GraphSide(("cafe",), config_b),
            config_b,
        )

    def test_min_partition_size_is_exact_minimum(self, figure1_config):
        # "coffee shop latte": {"coffee shop", "latte"} is the smallest cover.
        side = GraphSide(("coffee", "shop", "latte"), figure1_config)
        assert side.min_partition_size == 2
        singleton_only = GraphSide(("grand", "hotel", "paris"), figure1_config)
        assert singleton_only.min_partition_size == 3
