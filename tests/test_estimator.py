"""Tests for the τ-recommendation machinery (Section 4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.estimator import (
    CostModel,
    OnlineStatistics,
    RecommendationResult,
    TauRecommender,
    recommend_tau,
    scale_estimate,
    student_t_quantile,
)
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.estimator.bernoulli import bernoulli_rows
from repro.evaluation.experiments import config_for, split_dataset
from repro.join import PreparedCollection, dual_index_filter_candidates
from repro.join.aufilter import PebbleJoin
from repro.join.kernels import numpy_available


class TestOnlineStatistics:
    def test_matches_direct_computation(self):
        values = [3.0, 7.0, 7.0, 19.0, 2.0]
        stats = OnlineStatistics()
        stats.update_many(values)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean)
        assert stats.variance == pytest.approx(variance)
        assert stats.count == len(values)

    def test_empty_and_single_observation(self):
        stats = OnlineStatistics()
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        stats.update(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0

    def test_confidence_interval_contains_mean(self):
        stats = OnlineStatistics()
        stats.update_many([1.0, 2.0, 3.0])
        low, high = stats.confidence_interval(1.036)
        assert low <= stats.mean <= high

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_variance_non_negative(self, values):
        stats = OnlineStatistics()
        stats.update_many(values)
        assert stats.variance >= 0.0

    def test_student_t_quantile_close_to_table(self):
        # 70% two-sided with many degrees of freedom tends to ~1.036.
        assert student_t_quantile(0.7, 200) == pytest.approx(1.036, abs=0.02)
        with pytest.raises(ValueError):
            student_t_quantile(1.5, 10)
        with pytest.raises(ValueError):
            student_t_quantile(0.7, 0)


class TestBernoulliSampling:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            bernoulli_rows(3, 0.0, random.Random(0))
        with pytest.raises(ValueError):
            bernoulli_rows(3, 1.5, random.Random(0))

    def test_full_probability_keeps_everything(self):
        assert bernoulli_rows(3, 1.0, random.Random(0)) == [0, 1, 2]

    def test_sample_size_statistically_reasonable(self):
        sample = bernoulli_rows(1000, 0.1, random.Random(1))
        assert 50 <= len(sample) <= 200

    def test_scale_estimate(self):
        assert scale_estimate(10.0, 0.1, 0.1) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            scale_estimate(10.0, 0.0, 0.1)

    def test_estimator_is_unbiased_in_expectation(self):
        # Average of many scaled sample counts should approach the true count.
        rng = random.Random(7)
        estimates = []
        for _ in range(60):
            sample = bernoulli_rows(400, 0.1, rng)
            estimates.append(scale_estimate(len(sample), 1.0, 0.1))
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(400, rel=0.15)


class TestCostModel:
    def test_cost_combines_phases(self):
        model = CostModel(filter_cost=1.0, verify_cost=10.0)
        assert model.cost(100, 5) == pytest.approx(150.0)

    def test_best_tau_picks_lowest_cost(self):
        model = CostModel(filter_cost=1.0, verify_cost=10.0)
        model.observe(1, estimated_processed=100, estimated_candidates=50)   # cost 600
        model.observe(2, estimated_processed=200, estimated_candidates=10)   # cost 300
        model.observe(3, estimated_processed=500, estimated_candidates=5)    # cost 550
        assert model.best_tau() == 2

    def test_estimate_tracks_iterations(self):
        model = CostModel()
        model.observe(1, 10, 1)
        model.observe(1, 20, 3)
        estimate = model.estimate(1)
        assert estimate.iterations == 2
        assert estimate.mean_processed == pytest.approx(15.0)

    def test_confidence_interval_ordering(self):
        model = CostModel()
        model.observe(1, 10, 1)
        model.observe(1, 30, 2)
        low, high = model.estimate(1).confidence_interval(1.036)
        assert low <= model.estimate(1).mean_cost <= high

    def test_invalid_costs(self):
        for bad in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                CostModel(filter_cost=bad)
            with pytest.raises(ValueError, match="finite"):
                CostModel(verify_cost=bad)

    def test_empty_model(self):
        assert CostModel().best_tau() is None


class TestTauRecommender:
    def _engine(self, dataset, theta):
        return PebbleJoin(config_for(dataset), theta, method="au-heuristic")

    def test_recommendation_runs_and_returns_valid_tau(self, tiny_dataset):
        left, right = split_dataset(tiny_dataset, 40, 40)
        recommender = TauRecommender(
            self._engine(tiny_dataset, 0.85),
            tau_universe=(1, 2, 3),
            left_probability=0.3,
            right_probability=0.3,
            burn_in=3,
            max_iterations=8,
            seed=1,
        )
        result = recommender.recommend(left, right)
        assert result.best_tau in (1, 2, 3)
        assert 3 <= result.iterations <= 8
        assert set(result.estimates.keys()) == {1, 2, 3}
        assert result.elapsed_seconds > 0

    def test_estimates_scale_with_sampling_probability(self, tiny_dataset):
        left, right = split_dataset(tiny_dataset, 40, 40)
        recommender = TauRecommender(
            self._engine(tiny_dataset, 0.85),
            tau_universe=(1,),
            left_probability=0.5,
            right_probability=0.5,
            burn_in=4,
            max_iterations=6,
            seed=2,
        )
        result = recommender.recommend(left, right)
        estimate = result.estimates[1]
        # The scaled processed-pair estimate must be on the order of the true
        # full-data filtering workload (not the tiny per-sample count).
        engine = self._engine(tiny_dataset, 0.85)
        true_result = engine.join(left, right)
        assert estimate.mean_processed == pytest.approx(
            true_result.statistics.processed_pairs, rel=1.0
        )

    def test_invalid_configuration(self, tiny_dataset):
        engine = self._engine(tiny_dataset, 0.8)
        with pytest.raises(ValueError):
            TauRecommender(engine, tau_universe=())
        with pytest.raises(ValueError):
            TauRecommender(engine, burn_in=0)
        with pytest.raises(ValueError):
            TauRecommender(engine, burn_in=5, max_iterations=2)
        # Sampling probabilities must lie in (0, 1], as bernoulli_rows
        # requires, and every candidate τ must be a positive integer.
        for probability in (0.0, -0.5, 1.7):
            with pytest.raises(ValueError, match="probability"):
                TauRecommender(engine, left_probability=probability)
            with pytest.raises(ValueError, match="probability"):
                TauRecommender(engine, right_probability=probability)
        with pytest.raises(ValueError, match="tau_universe"):
            TauRecommender(engine, tau_universe=(0, 1))
        # Iteration counts are integers >= 1, not bools; the quantile and
        # the costs are finite and > 0.  Each of these used to run: a NaN
        # count stopped at once or never, and a NaN or infinite cost
        # recommended tau=1 whatever the data.
        nan, inf = float("nan"), float("inf")
        for name, settings in (
            ("max_iterations", {"max_iterations": nan}),
            ("max_iterations", {"max_iterations": 12.5}),
            ("max_iterations", {"max_iterations": True, "burn_in": 1}),
            ("burn_in", {"burn_in": nan}),
            ("burn_in", {"burn_in": 2.5}),
            ("burn_in", {"burn_in": True}),
            ("verify_cost", {"verify_cost": nan}),
            ("filter_cost", {"filter_cost": inf}),
            ("t_quantile", {"t_quantile": nan}),
            ("t_quantile", {"t_quantile": inf}),
            ("t_quantile", {"t_quantile": 0.0}),
        ):
            with pytest.raises(ValueError, match=name):
                TauRecommender(engine, **settings)
        left, right = split_dataset(tiny_dataset, 30, 30)
        with pytest.raises(ValueError, match="probability"):
            recommend_tau(left, right, config_for(tiny_dataset), 0.8, sample_probability=0)
        for name, value in (("max_iterations", nan), ("burn_in", True), ("t_quantile", inf)):
            with pytest.raises(ValueError, match=name):
                recommend_tau(left, right, config_for(tiny_dataset), 0.8, **{name: value})
        TauRecommender(engine, left_probability=1.0, right_probability=1.0)

    def test_second_call_equals_a_fresh_recommender(self):
        """A call's cost model and random stream are its own: recommending
        on a second collection folds in nothing from the first call."""
        dataset = generate_dataset(TINY_PROFILE, seed=3)
        engine = PebbleJoin(config_for(dataset), 0.7, tau=3)
        settings = dict(
            tau_universe=(1, 2, 3),
            left_probability=0.5,
            right_probability=0.5,
            burn_in=3,
            max_iterations=6,
            seed=1,
        )
        first = dataset.records.subset(range(40))
        second = dataset.records.subset(range(40, 80))
        reused = TauRecommender(engine, **settings)
        reused.recommend(first)
        again = reused.recommend(second)
        fresh = TauRecommender(engine, **settings).recommend(second)
        assert again.iterations == fresh.iterations
        assert again.sample_sizes == fresh.sample_sizes
        assert again.estimates == fresh.estimates
        assert again.best_tau == fresh.best_tau

    def test_recommend_tau_wrapper(self, tiny_dataset):
        left, right = split_dataset(tiny_dataset, 30, 30)
        result = recommend_tau(
            left, right, config_for(tiny_dataset), 0.85,
            tau_universe=(1, 2), sample_probability=0.3,
            burn_in=3, max_iterations=6, seed=4,
        )
        assert result.best_tau in (1, 2)


class _ReferenceRecommender(TauRecommender):
    """Algorithm 7 over ``SignedRecord`` samples: the reference for the flat
    recommender.

    Each iteration draws its samples record by record from the signed lists
    and takes the processed pairs and per-τ candidate counts from the exact
    overlaps of the paper's dual-index filter.  The switch to the exact pass
    takes ``T`` and the exact counts from the dual-index filter over the
    full signed sides, and the key occurrences from the signed lists, and
    applies the rule of :mod:`repro.estimator.recommend` as written there;
    the cost model and the stopping rule are the recommender's own.
    """

    @staticmethod
    def _sample_signed(signed, probability, rng):
        return [record for record in signed if rng.random() < probability]

    @staticmethod
    def _keys(signed):
        return sum(len(record.signature_key_sequence) for record in signed)

    def _reference_iteration(self, rng, left_signed, right_signed, self_join):
        if self_join:
            left_sample = right_sample = self._sample_signed(
                left_signed, self.left_probability, rng
            )
            left_scale = right_scale = self.left_probability
            gathered = self._keys(left_sample)
        else:
            left_sample = self._sample_signed(left_signed, self.left_probability, rng)
            right_sample = self._sample_signed(
                right_signed, self.right_probability, rng
            )
            left_scale, right_scale = self.left_probability, self.right_probability
            gathered = self._keys(left_sample) + self._keys(right_sample)
        sizes = (len(left_sample), len(right_sample))
        if not left_sample or not right_sample:
            return {tau: (0.0, 0.0) for tau in self.tau_universe}, sizes, 0, gathered
        outcome = dual_index_filter_candidates(
            left_sample, right_sample, requirement=1, exclude_self_pairs=self_join
        )
        overlaps = list(outcome.overlap_counts.values())
        processed = scale_estimate(outcome.processed_pairs, left_scale, right_scale)
        estimates = {
            tau: (
                processed,
                scale_estimate(
                    sum(1 for count in overlaps if count >= tau), left_scale, right_scale
                ),
            )
            for tau in self.tau_universe
        }
        return estimates, sizes, outcome.processed_pairs, gathered

    def recommend(self, left, right=None, *, order=None):
        signing_tau = max(self.tau_universe)
        engine = self.engine
        self_join = right is None
        left_prep = engine.as_prepared(left)
        right_prep = left_prep if (self_join or right is left) else engine.as_prepared(right)
        if order is None:
            if right_prep is left_prep:
                order = left_prep.build_order(engine.order_strategy)
            else:
                order = left_prep.shared_order_with(right_prep, engine.order_strategy)
        left_signed = left_prep.signed(order, engine.theta, signing_tau, engine.method)
        right_signed = (
            left_signed
            if self_join
            else right_prep.signed(order, engine.theta, signing_tau, engine.method)
        )
        full = dual_index_filter_candidates(
            left_signed, right_signed, requirement=1, exclude_self_pairs=self_join
        )
        exact_work = full.processed_pairs
        left_p, right_p = self.left_probability, self.right_probability
        left_keys, right_keys = self._keys(left_signed), self._keys(right_signed)
        if self_join:
            expected_work = left_p * left_p * exact_work + left_p * left_keys
        else:
            expected_work = (
                left_p * right_p * exact_work + left_p * left_keys + right_p * right_keys
            )
        cost_model = CostModel(filter_cost=self.filter_cost, verify_cost=self.verify_cost)
        rng = random.Random(self.seed)
        sample_sizes = []
        sampled_work = 0
        exact = False
        while len(sample_sizes) < self.max_iterations:
            remaining = max(self.burn_in - len(sample_sizes), 1)
            if sampled_work + remaining * expected_work >= exact_work:
                overlaps = list(full.overlap_counts.values())
                cost_model = CostModel(
                    filter_cost=self.filter_cost, verify_cost=self.verify_cost
                )
                for tau in self.tau_universe:
                    candidates = sum(1 for count in overlaps if count >= tau)
                    cost_model.observe(tau, float(exact_work), float(candidates))
                exact = True
                break
            estimates, sizes, raw_processed, gathered = self._reference_iteration(
                rng, left_signed, right_signed, self_join
            )
            sample_sizes.append(sizes)
            sampled_work += raw_processed + gathered
            for tau, (processed, candidates) in estimates.items():
                cost_model.observe(tau, processed, candidates)
            if self._should_stop(cost_model, len(sample_sizes), raw_processed):
                break
        estimates_by_tau = {tau: cost_model.estimate(tau) for tau in self.tau_universe}
        best_tau = min(estimates_by_tau.values(), key=lambda estimate: estimate.mean_cost).tau
        return RecommendationResult(
            best_tau=best_tau,
            iterations=len(sample_sizes),
            elapsed_seconds=0.0,
            estimates=estimates_by_tau,
            sample_sizes=sample_sizes,
            signing_tau=signing_tau,
            self_join=self_join,
            exact=exact,
        )


class TestFlatSamplingMatchesReference:
    """The flat recommender equals the signed-sample reference exactly:
    same samples, same per-τ estimates, same stopping point, same switch to
    the exact pass, same τ."""

    MAX_ITERATIONS = 20

    @staticmethod
    def _branch(result, max_iterations):
        if result.exact:
            return "switch" if result.iterations else "exact first"
        return "inequality 24" if result.iterations < max_iterations else "cap"

    @pytest.mark.parametrize("codes", ("J", "S", "T", "TJS"))
    @pytest.mark.parametrize(
        "kernel", ["python"] + (["numpy"] if numpy_available() else [])
    )
    def test_recommendations_are_identical(self, tiny_dataset, codes, kernel):
        config = config_for(tiny_dataset, codes)
        records = tiny_dataset.records
        single = PreparedCollection.prepare(records.head(40), config)
        left = PreparedCollection.prepare(records.head(30), config)
        right = PreparedCollection.prepare(records.subset(range(20, 60)), config)
        cases = {
            "self-join": (single, None),
            "two-collection": (left, right),
            "same-collection": (single, single),
        }

        engine = PebbleJoin(config, 0.7, kernel=kernel)

        overlapping = 0
        branches = {}
        for name, (left_side, right_side) in cases.items():
            for seed, probability in ((1, 0.3), (5, 0.6), (9, 1.0)):
                kwargs = dict(
                    tau_universe=(1, 2, 3),
                    left_probability=probability,
                    right_probability=probability,
                    burn_in=3,
                    max_iterations=self.MAX_ITERATIONS,
                    seed=seed,
                )
                got = TauRecommender(engine, **kwargs).recommend(left_side, right_side)
                expected = _ReferenceRecommender(engine, **kwargs).recommend(
                    left_side, right_side
                )
                case = (name, seed, probability)
                assert got.best_tau == expected.best_tau, case
                assert got.iterations == expected.iterations, case
                assert got.sample_sizes == expected.sample_sizes, case
                assert got.estimates == expected.estimates, case
                assert got.exact == expected.exact, case
                assert (got.signing_tau, got.self_join) == (
                    expected.signing_tau,
                    expected.self_join,
                ), case
                overlapping += got.estimates[2].mean_candidates > 0
                branches.setdefault(self._branch(got, self.MAX_ITERATIONS), []).append(case)
                if probability == 1.0:
                    # A sample at p = 1 is the whole input: one exact pass
                    # is never dearer, so no sample is drawn.
                    assert got.exact and not got.iterations, case
        if codes != "S":
            # Multi-pebble overlaps occurred, so the per-τ counts differ.
            assert overlapping > 0
        if codes == "TJS":
            # The TJS prefixes are long enough that sampling sometimes pays:
            # the two-collection case at p = 0.3 stops by Inequality 24, the
            # self-join at p = 0.3 switches after a sample.
            assert set(branches) == {"inequality 24", "switch", "exact first"}, branches
