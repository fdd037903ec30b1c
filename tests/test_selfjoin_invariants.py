"""Self-join correctness invariants and probe/dual-index filter equivalence."""

import random

import pytest

from repro.estimator.recommend import TauRecommender, recommend_tau
from repro.evaluation.experiments import config_for, split_dataset
from repro.join import (
    PebbleJoin,
    SignatureMethod,
    dual_index_filter_candidates,
)
from repro.join.flat import FlatJoinState
from repro.join.kernels import numpy_available, overlap_histogram
from repro.records import RecordCollection

VOCAB = (
    "coffee shop cafe cake gateau ny new york espresso latte pizza place "
    "hotel museum bakery paris helsinki grand apple food drinks"
).split()


def _random_collection(rng: random.Random, count: int) -> RecordCollection:
    return RecordCollection.from_strings(
        [" ".join(rng.choices(VOCAB, k=rng.randint(2, 6))) for _ in range(count)]
    )


class TestSelfJoinInvariants:
    @pytest.mark.parametrize("method", SignatureMethod.ALL)
    def test_self_join_equals_deduplicated_cross_join(self, figure1_config, method):
        rng = random.Random(11)
        collection = _random_collection(rng, 30)
        tau = 1 if method == SignatureMethod.U_FILTER else 2
        engine = PebbleJoin(figure1_config, 0.75, tau=tau, method=method)
        self_result = engine.self_join(collection)

        # The same collection joined against an identical copy, deduplicated:
        # drop (i, i) and keep one orientation of every mirrored pair.
        copy = RecordCollection.from_strings(collection.texts())
        cross = engine.join(collection, copy)
        deduplicated = {
            (min(left, right), max(left, right))
            for left, right in cross.pair_ids()
            if left != right
        }
        assert self_result.pair_ids() == deduplicated
        for pair in self_result.pairs:
            assert pair.left_id < pair.right_id

    def test_probe_filter_matches_dual_index_on_random_inputs(self, figure1_config):
        rng = random.Random(29)
        for trial in range(3):
            collection = _random_collection(rng, 25 + 5 * trial)
            other = _random_collection(rng, 18)
            engine = PebbleJoin(
                figure1_config, 0.65, tau=4, method=SignatureMethod.AU_HEURISTIC
            )
            order = engine.build_order(collection, other)
            signed = engine.sign_collection(collection, order)
            signed_other = engine.sign_collection(other, order)
            for tau in (1, 2, 4):
                for exclude in (False, True):
                    probe = engine.filter_candidates(
                        signed, signed, tau=tau, exclude_self_pairs=exclude
                    )
                    reference = dual_index_filter_candidates(
                        signed, signed, requirement=tau, exclude_self_pairs=exclude
                    )
                    assert set(probe.candidates) == set(reference.candidates)
                    assert probe.processed_pairs == reference.processed_pairs
                # Two-collection orientations (index side chosen by footprint,
                # so swapping the arguments exercises both probe directions),
                # with and without the self-pair exclusion.
                for args in ((signed, signed_other), (signed_other, signed)):
                    for exclude in (False, True):
                        probe = engine.filter_candidates(
                            *args, tau=tau, exclude_self_pairs=exclude
                        )
                        reference = dual_index_filter_candidates(
                            *args, requirement=tau, exclude_self_pairs=exclude
                        )
                        assert set(probe.candidates) == set(reference.candidates)
                        assert probe.processed_pairs == reference.processed_pairs

    def test_reordered_signed_input_is_still_correct(self, figure1_config):
        """The ascending-postings early break is an optimization that must be
        detected, not assumed: reordered signed lists (which break the
        ascending-posting invariant) still produce the reference result."""
        rng = random.Random(17)
        collection = _random_collection(rng, 30)
        engine = PebbleJoin(figure1_config, 0.7, tau=2)
        order = engine.build_order(collection)
        signed = engine.sign_collection(collection, order)
        shuffled = list(signed)
        rng.shuffle(shuffled)
        for tau in (1, 2):
            probe = engine.filter_candidates(
                shuffled, shuffled, tau=tau, exclude_self_pairs=True
            )
            reference = dual_index_filter_candidates(
                shuffled, shuffled, requirement=tau, exclude_self_pairs=True
            )
            assert set(probe.candidates) == set(reference.candidates)
            assert probe.processed_pairs == reference.processed_pairs

    def test_multi_tau_pass_matches_per_tau_filters(self, figure1_config):
        rng = random.Random(5)
        collection = _random_collection(rng, 30)
        engine = PebbleJoin(figure1_config, 0.7, tau=3)
        order = engine.build_order(collection)
        signed = engine.sign_collection(collection, order)
        taus = (1, 2, 3)
        state = FlatJoinState.from_signed_sides(signed, signed, postings_ascending=True)
        for kernel in ("python",) + (("numpy",) if numpy_available() else ()):
            processed, histogram = overlap_histogram(
                state.postings,
                state.probe,
                0,
                state.probe_count,
                max(taus),
                probe_is_left=False,
                exclude_self_pairs=True,
                postings_ascending=True,
                counts_size=state.counts_size,
                kernel=kernel,
            )
            for tau in taus:
                single = engine.filter_candidates(
                    signed, signed, tau=tau, exclude_self_pairs=True
                )
                assert sum(histogram[tau:]) == single.candidate_count, kernel
                assert processed == single.processed_pairs, kernel


class TestSelfJoinRecommendation:
    def _engine(self, config, theta):
        return PebbleJoin(config, theta, tau=2, method=SignatureMethod.AU_HEURISTIC)

    def test_selfjoin_estimates_exclude_self_pairs(self, figure1_config):
        """With p = 1 every sample is the full collection, so the candidate
        estimate must equal the true self-join candidate count — not the
        inflated count including (i, i) and mirrored pairs."""
        rng = random.Random(3)
        collection = _random_collection(rng, 25)
        recommender = TauRecommender(
            self._engine(figure1_config, 0.7),
            tau_universe=(1, 2),
            left_probability=1.0,
            right_probability=1.0,
            burn_in=2,
            max_iterations=3,
            seed=1,
        )
        result = recommender.recommend(collection)
        assert result.self_join

        engine = self._engine(figure1_config, 0.7)
        order = engine.build_order(collection)
        signed = engine.sign_collection(collection, order)
        for tau in (1, 2):
            truth = engine.filter_candidates(
                signed, signed, tau=tau, exclude_self_pairs=True
            )
            estimate = result.estimates[tau]
            assert estimate.mean_candidates == pytest.approx(truth.candidate_count)
            assert estimate.mean_processed == pytest.approx(truth.processed_pairs)

    def test_recommendation_deterministic_under_fixed_seed(self, tiny_dataset):
        left, right = split_dataset(tiny_dataset, 30, 30)
        config = config_for(tiny_dataset)
        outcomes = []
        for _ in range(2):
            result = recommend_tau(
                left,
                right,
                config,
                0.85,
                tau_universe=(1, 2, 3),
                sample_probability=0.3,
                burn_in=3,
                max_iterations=6,
                seed=13,
            )
            outcomes.append((result.best_tau, result.iterations, result.sample_sizes))
        assert outcomes[0] == outcomes[1]

    def test_selfjoin_recommendation_deterministic_and_valid(self, tiny_dataset):
        collection = tiny_dataset.records.head(40)
        config = config_for(tiny_dataset)
        results = [
            recommend_tau(
                collection,
                None,
                config,
                0.85,
                tau_universe=(1, 2, 3),
                sample_probability=0.4,
                burn_in=3,
                max_iterations=6,
                seed=21,
            )
            for _ in range(2)
        ]
        assert results[0].best_tau == results[1].best_tau
        assert results[0].sample_sizes == results[1].sample_sizes
        assert results[0].best_tau in (1, 2, 3)
        assert results[0].self_join
        # Self-join iterations draw one sample: sizes are reported mirrored.
        for left_size, right_size in results[0].sample_sizes:
            assert left_size == right_size
