"""Tests for metrics, timing, and the experiment drivers."""

import pytest

from repro.evaluation.metrics import (
    PrecisionRecall,
    classify_pairs,
    evaluate_pair_sets,
    evaluate_similarity_function,
    percentiles,
)
from repro.evaluation.timing import PhaseTimer
from repro.evaluation import experiments
from repro.evaluation.experiments import (
    approximation_accuracy,
    baseline_effectiveness,
    config_for,
    join_time_by_method,
    measure_effectiveness,
    split_dataset,
    tau_tradeoff,
)


class TestPrecisionRecall:
    def test_basic_values(self):
        pr = PrecisionRecall(true_positives=8, false_positives=2, false_negatives=2)
        assert pr.precision == pytest.approx(0.8)
        assert pr.recall == pytest.approx(0.8)
        assert pr.f_measure == pytest.approx(0.8)

    def test_degenerate_cases(self):
        assert PrecisionRecall(0, 0, 0).precision == 1.0
        assert PrecisionRecall(0, 0, 0).recall == 1.0
        assert PrecisionRecall(0, 0, 5).f_measure == 0.0

    def test_as_dict(self):
        d = PrecisionRecall(1, 1, 1).as_dict()
        assert set(d) == {"precision", "recall", "f_measure"}

    def test_evaluate_pair_sets(self):
        pr = evaluate_pair_sets({(1, 2), (3, 4)}, {(1, 2), (5, 6)})
        assert pr.true_positives == 1
        assert pr.false_positives == 1
        assert pr.false_negatives == 1


class TestClassifyPairs:
    def test_perfect_similarity_function(self, tiny_truth):
        def oracle(left, right):
            return 1.0 if any(
                pair.left is left and pair.right is right and pair.is_similar
                for pair in tiny_truth.pairs
            ) else 0.0

        pr = classify_pairs(tiny_truth, oracle, 0.5)
        assert pr.precision == 1.0
        assert pr.recall == 1.0

    def test_threshold_sweep(self, tiny_truth):
        results = evaluate_similarity_function(tiny_truth, lambda a, b: 0.6, [0.5, 0.7])
        assert results[0.5].recall == 1.0   # everything predicted similar
        assert results[0.7].recall == 0.0   # nothing predicted similar


class TestPercentiles:
    def test_known_values(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        result = percentiles(values, (0, 50, 100))
        assert result[0] == 1.0
        assert result[50] == 3.0
        assert result[100] == 5.0

    def test_empty_values(self):
        assert percentiles([], (50,)) == {50: 0.0}

    def test_invalid_point(self):
        with pytest.raises(ValueError):
            percentiles([1.0], (150,))


class TestPhaseTimer:
    def test_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        timer.add("b", 1.5)
        assert timer.seconds("a") >= 0.0
        assert timer.seconds("b") == 1.5
        assert timer.total >= 1.5
        assert list(timer.as_dict()) == ["a", "b"]

    def test_unknown_phase_is_zero(self):
        assert PhaseTimer().seconds("missing") == 0.0


class TestExperimentDrivers:
    """Smoke tests: the drivers behind each table/figure run on tiny inputs."""

    def test_measure_effectiveness_shape(self, tiny_dataset, tiny_truth):
        result = measure_effectiveness(
            tiny_dataset, tiny_truth, thresholds=(0.7,), measure_codes=("J", "TJS")
        )
        assert set(result.scores) == {"J", "TJS"}
        tjs = result.row("TJS", 0.7)
        j_only = result.row("J", 0.7)
        # The unified measure must not lose recall relative to Jaccard alone.
        assert tjs.recall >= j_only.recall

    def test_baseline_effectiveness_shape(self, tiny_dataset, tiny_truth):
        scores = baseline_effectiveness(tiny_dataset, tiny_truth, thresholds=(0.7,))
        assert set(scores) == {"K-Join", "AdaptJoin", "PKduck", "Combination", "Ours"}
        assert scores["Ours"][0.7].recall >= scores["Combination"][0.7].recall - 1e-9

    def test_approximation_accuracy_runs(self, tiny_dataset, tiny_truth):
        result = approximation_accuracy(tiny_dataset, tiny_truth, max_pairs=15)
        for k, points in result.per_k.items():
            assert k >= 1
            for value in points.values():
                assert 0.0 <= value <= 1.0

    def test_tau_tradeoff_and_join_time(self, tiny_dataset):
        left, right = split_dataset(tiny_dataset, 20, 20)
        config = config_for(tiny_dataset)
        cells = tau_tradeoff(left, right, config, thetas=(0.85,), taus=(1, 2))
        assert len(cells) == 2
        assert cells[0].avg_signature_length <= cells[1].avg_signature_length

        results = join_time_by_method(left, right, config, thetas=(0.85,), tau=2)
        assert set(results) == set(experiments.SignatureMethod.ALL)

    def test_sampling_tradeoff_marks_the_exact_pass(self, tiny_dataset):
        # At p = 1 a sample is the whole input, so one exact counts pass is
        # never dearer: the row is exact and draws no sample.
        outcome = experiments.sampling_probability_tradeoff(
            tiny_dataset, probabilities=(0.05, 1.0), size=20
        )
        assert set(outcome) == {0.05, 1.0}
        assert outcome[1.0]["exact"] == 1.0
        assert outcome[1.0]["iterations"] == 0.0
        for row in outcome.values():
            assert row["exact"] in (0.0, 1.0)
            assert row["best_tau"] in (1.0, 2.0, 3.0, 4.0)

    def test_split_dataset_disjoint(self, tiny_dataset):
        left, right = split_dataset(tiny_dataset, 30, 30)
        left_texts = set(left.texts())
        right_texts = set(right.texts())
        # Split halves come from disjoint id ranges (texts may rarely collide).
        assert len(left) == 30 and len(right) == 30
