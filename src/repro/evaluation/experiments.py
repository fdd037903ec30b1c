"""Reusable experiment drivers for the paper's tables and figures.

Each function reproduces the computation behind one table or figure of the
evaluation section and returns plain data structures; the scripts under
``benchmarks/`` call these drivers and print paper-style rows.  Keeping the
logic here means tests can exercise the same code paths on tiny inputs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.approximation import approximate_usim
from ..core.exact import ExactBudgetExceeded, exact_usim
from ..core.measures import MeasureConfig
from ..baselines import AdaptJoin, CombinationJoin, KJoin, PKDuck
from ..datasets.ground_truth import GroundTruth
from ..datasets.synthetic import SyntheticDataset
from ..estimator.recommend import TauRecommender
from ..join.aufilter import JoinResult, PebbleJoin
from ..join.prepared import PreparedCollection, build_shared_order
from ..join.signatures import SignatureMethod
from ..records import Record, RecordCollection
from .metrics import PrecisionRecall, classify_pairs, percentiles

__all__ = [
    "MeasureEffectivenessResult",
    "ApproximationAccuracyResult",
    "TauTradeoffCell",
    "config_for",
    "split_dataset",
    "measure_effectiveness",
    "approximation_accuracy",
    "tau_tradeoff",
    "join_time_by_method",
    "join_time_by_measure",
    "scalability",
    "time_breakdown",
    "parameter_selection_comparison",
    "suggestion_accuracy",
    "sampling_probability_tradeoff",
    "baseline_effectiveness",
    "baseline_join_time",
]

#: Measure combinations reported in Tables 8 and Figure 6.
MEASURE_COMBINATIONS = ("J", "T", "S", "TJ", "TS", "JS", "TJS")


def config_for(dataset: SyntheticDataset, codes: str = "TJS", *, q: int = 3) -> MeasureConfig:
    """Measure configuration bound to a dataset's knowledge sources.

    Experiments default to 3-grams: the synthetic pseudo-word vocabulary has
    far fewer distinct 2-grams than real English keywords, and 3-grams
    restore the gram selectivity the paper's corpora exhibit with q = 2.
    """
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=q
    )


def split_dataset(dataset: SyntheticDataset, left_count: int, right_count: int) -> Tuple[RecordCollection, RecordCollection]:
    """Split a dataset's records into two disjoint join sides."""
    total = len(dataset.records)
    left_count = min(left_count, total // 2)
    right_count = min(right_count, total - left_count)
    left = dataset.records.subset(range(left_count))
    right = dataset.records.subset(range(left_count, left_count + right_count))
    return left, right


# --------------------------------------------------------------------- #
# Table 8 / Table 13 — effectiveness
# --------------------------------------------------------------------- #
@dataclass
class MeasureEffectivenessResult:
    """P/R/F per measure combination and threshold."""

    dataset_name: str
    scores: Dict[str, Dict[float, PrecisionRecall]] = field(default_factory=dict)

    def row(self, measure: str, threshold: float) -> PrecisionRecall:
        """The P/R/F cell for one measure code and threshold."""
        return self.scores[measure][threshold]


def measure_effectiveness(
    dataset: SyntheticDataset,
    truth: GroundTruth,
    *,
    thresholds: Sequence[float] = (0.7, 0.75),
    measure_codes: Sequence[str] = MEASURE_COMBINATIONS,
    approximation_t: float = 4.0,
) -> MeasureEffectivenessResult:
    """Reproduce Table 8: classify ground-truth pairs per measure combination."""
    result = MeasureEffectivenessResult(dataset_name=dataset.profile.name)
    for codes in measure_codes:
        config = config_for(dataset, codes)

        def similarity(left: Record, right: Record, _config=config) -> float:
            return approximate_usim(left.tokens, right.tokens, _config, t=approximation_t).value

        result.scores[codes] = {
            threshold: classify_pairs(truth, similarity, threshold) for threshold in thresholds
        }
    return result


def baseline_effectiveness(
    dataset: SyntheticDataset,
    truth: GroundTruth,
    *,
    thresholds: Sequence[float] = (0.7, 0.75),
    approximation_t: float = 4.0,
) -> Dict[str, Dict[float, PrecisionRecall]]:
    """Reproduce Table 13: ours vs K-Join, AdaptJoin, PKduck, Combination."""
    unified_config = config_for(dataset, "TJS")

    def unified(left: Record, right: Record) -> float:
        return approximate_usim(left.tokens, right.tokens, unified_config, t=approximation_t).value

    scores: Dict[str, Dict[float, PrecisionRecall]] = {}
    for threshold in thresholds:
        kjoin = KJoin(threshold, dataset.taxonomy)
        adapt = AdaptJoin(threshold)
        pkduck = PKDuck(threshold, dataset.rules)

        per_algorithm = {
            "K-Join": kjoin.similarity,
            "AdaptJoin": adapt.similarity,
            "PKduck": pkduck.similarity,
            "Combination": lambda l, r, fns=(kjoin.similarity, adapt.similarity, pkduck.similarity): max(
                fn(l, r) for fn in fns
            ),
            "Ours": unified,
        }
        for name, similarity in per_algorithm.items():
            scores.setdefault(name, {})[threshold] = classify_pairs(truth, similarity, threshold)
    return scores


# --------------------------------------------------------------------- #
# Table 9 — approximation accuracy
# --------------------------------------------------------------------- #
@dataclass
class ApproximationAccuracyResult:
    """Accuracy percentiles per maximal rule size k."""

    per_k: Dict[int, Dict[float, float]] = field(default_factory=dict)
    pair_counts: Dict[int, int] = field(default_factory=dict)


def approximation_accuracy(
    dataset: SyntheticDataset,
    truth: GroundTruth,
    *,
    max_pairs: int = 200,
    t: float = 4.0,
    percentile_points: Sequence[float] = (2, 25, 50, 75, 98),
    partition_limit: int = 2000,
) -> ApproximationAccuracyResult:
    """Reproduce Table 9: ratio of approximate to exact USIM, bucketed by k.

    ``k`` for a pair is the maximal token count of any synonym-rule side or
    taxonomy label applicable to either string; pairs whose exact computation
    exceeds the partition budget are skipped (as the paper restricts itself
    to pairs the exact algorithm can finish).
    """
    config = config_for(dataset, "TJS")
    ratios_by_k: Dict[int, List[float]] = {}
    examined = 0
    for pair in truth.positives():
        if examined >= max_pairs:
            break
        examined += 1
        left, right = pair.left.tokens, pair.right.tokens
        try:
            exact = exact_usim(left, right, config, partition_limit=partition_limit)
        except ExactBudgetExceeded:
            continue
        if exact.value <= 0.0:
            continue
        approx = approximate_usim(left, right, config, t=t)
        k = _pair_rule_size(left, right, config)
        ratio = min(1.0, approx.value / exact.value)
        ratios_by_k.setdefault(k, []).append(ratio)

    result = ApproximationAccuracyResult()
    for k, ratios in sorted(ratios_by_k.items()):
        result.per_k[k] = percentiles(ratios, percentile_points)
        result.pair_counts[k] = len(ratios)
    return result


def _pair_rule_size(left: Sequence[str], right: Sequence[str], config: MeasureConfig) -> int:
    """Maximal applicable rule/label token count over both strings."""
    best = 1
    for tokens in (left, right):
        if config.rules is not None:
            for start, end in config.rules.matching_spans(tokens):
                window = tuple(tokens[start:end])
                for rule in config.rules.rules_with_side(window):
                    best = max(best, rule.max_side_tokens)
        if config.taxonomy is not None:
            for start, end in config.taxonomy.matching_spans(tokens):
                best = max(best, end - start)
    return best


# --------------------------------------------------------------------- #
# Figures 3, 5 — τ trade-off and filtering power
# --------------------------------------------------------------------- #
@dataclass
class TauTradeoffCell:
    """One (θ, τ, method) measurement."""

    theta: float
    tau: int
    method: str
    avg_signature_length: float
    candidate_count: int
    join_seconds: float
    result_count: int


def tau_tradeoff(
    left: RecordCollection,
    right: RecordCollection,
    config: MeasureConfig,
    *,
    thetas: Sequence[float],
    taus: Sequence[int],
    method: str = SignatureMethod.AU_HEURISTIC,
) -> List[TauTradeoffCell]:
    """Reproduce Figure 3: how τ affects signatures, candidates, and time."""
    cells: List[TauTradeoffCell] = []
    for theta in thetas:
        for tau in taus:
            engine = PebbleJoin(config, theta, tau=_effective_tau(method, tau), method=method)
            start = time.perf_counter()
            result = engine.join(left, right)
            elapsed = time.perf_counter() - start
            cells.append(
                TauTradeoffCell(
                    theta=theta,
                    tau=tau,
                    method=method,
                    avg_signature_length=result.statistics.avg_signature_length_left,
                    candidate_count=result.statistics.candidate_count,
                    join_seconds=elapsed,
                    result_count=len(result),
                )
            )
    return cells


def _effective_tau(method: str, tau: int) -> int:
    """U-Filter implies τ = 1 (an explicit larger τ is rejected by the engine)."""
    return 1 if method == SignatureMethod.U_FILTER else tau


def join_time_by_method(
    left: RecordCollection,
    right: RecordCollection,
    config: MeasureConfig,
    *,
    thetas: Sequence[float],
    tau: int = 3,
    methods: Sequence[str] = SignatureMethod.ALL,
) -> Dict[str, Dict[float, JoinResult]]:
    """Reproduce Figures 4 and 5: U-Filter vs AU-heuristic vs AU-DP.

    Both sides are prepared once and shared across every (method, θ) cell,
    so the comparison measures signing + filtering + verification rather
    than repeated pebble generation.
    """
    left_prep = PreparedCollection.prepare(left, config)
    right_prep = PreparedCollection.prepare(right, config)
    order = build_shared_order([left_prep, right_prep])
    results: Dict[str, Dict[float, JoinResult]] = {}
    for method in methods:
        results[method] = {}
        for theta in thetas:
            engine = PebbleJoin(config, theta, tau=_effective_tau(method, tau), method=method)
            results[method][theta] = engine.join(
                left_prep, right_prep, precomputed_order=order
            )
    return results


def join_time_by_measure(
    dataset: SyntheticDataset,
    left: RecordCollection,
    right: RecordCollection,
    *,
    thetas: Sequence[float],
    tau: int = 3,
    measure_codes: Sequence[str] = MEASURE_COMBINATIONS,
    method: str = SignatureMethod.AU_DP,
) -> Dict[str, Dict[float, JoinResult]]:
    """Reproduce Figure 6: AU-Filter (DP) join time per measure combination."""
    results: Dict[str, Dict[float, JoinResult]] = {}
    for codes in measure_codes:
        config = config_for(dataset, codes)
        results[codes] = {}
        for theta in thetas:
            engine = PebbleJoin(config, theta, tau=_effective_tau(method, tau), method=method)
            results[codes][theta] = engine.join(left, right)
    return results


# --------------------------------------------------------------------- #
# Figure 7 / Table 10 — scalability and time breakdown
# --------------------------------------------------------------------- #
def scalability(
    dataset: SyntheticDataset,
    *,
    sizes: Sequence[int],
    theta: float,
    tau: int = 3,
    methods: Sequence[str] = SignatureMethod.ALL,
) -> Dict[str, Dict[int, JoinResult]]:
    """Reproduce Figure 7: join time versus dataset size per method."""
    results: Dict[str, Dict[int, JoinResult]] = {method: {} for method in methods}
    config = config_for(dataset)
    for size in sizes:
        left, right = split_dataset(dataset, size, size)
        left_prep = PreparedCollection.prepare(left, config)
        right_prep = PreparedCollection.prepare(right, config)
        order = build_shared_order([left_prep, right_prep])
        for method in methods:
            engine = PebbleJoin(config, theta, tau=_effective_tau(method, tau), method=method)
            results[method][size] = engine.join(
                left_prep, right_prep, precomputed_order=order
            )
    return results


def time_breakdown(
    dataset: SyntheticDataset,
    *,
    sizes: Sequence[int],
    theta: float,
    tau_universe: Sequence[int] = (1, 2, 3, 4),
    sample_probability: float = 0.1,
    seed: Optional[int] = 11,
) -> Dict[int, Dict[str, float]]:
    """Reproduce Table 10: suggestion / filtering / verification seconds.

    The recommendation and the final join share one preparation, order, and
    full signing (the ``UnifiedJoin(tau="auto")`` flow): suggestion seconds
    include the single full signing at ``max(tau_universe)``, and the final
    join's signing is a cache hit.
    """
    config = config_for(dataset)
    breakdown: Dict[int, Dict[str, float]] = {}
    for size in sizes:
        left, right = split_dataset(dataset, size, size)
        left_prep = PreparedCollection.prepare(left, config)
        right_prep = PreparedCollection.prepare(right, config)
        order = left_prep.shared_order_with(right_prep)

        recommender = TauRecommender(
            PebbleJoin(config, theta, method=SignatureMethod.AU_DP),
            left_probability=sample_probability,
            right_probability=sample_probability,
            burn_in=3,
            max_iterations=10,
            tau_universe=tau_universe,
            seed=seed,
        )
        start = time.perf_counter()
        recommendation = recommender.recommend(left_prep, right_prep, order=order)
        suggestion_seconds = time.perf_counter() - start

        engine = PebbleJoin(config, theta, tau=recommendation.best_tau, method=SignatureMethod.AU_DP)
        result = engine.join(
            left_prep,
            right_prep,
            precomputed_order=order,
            signing_tau=recommendation.signing_tau,
        )
        breakdown[size] = {
            "suggestion": suggestion_seconds,
            "filtering": result.statistics.signing_seconds + result.statistics.filtering_seconds,
            "verification": result.statistics.verification_seconds,
            "best_tau": float(recommendation.best_tau),
            "results": float(len(result)),
        }
    return breakdown


# --------------------------------------------------------------------- #
# Tables 11–12, Figure 8 — parameter recommendation
# --------------------------------------------------------------------- #
def _join_seconds_for_tau(
    left: RecordCollection,
    right: RecordCollection,
    config: MeasureConfig,
    theta: float,
    tau: int,
    method: str,
) -> float:
    engine = PebbleJoin(config, theta, tau=_effective_tau(method, tau), method=method)
    start = time.perf_counter()
    engine.join(left, right)
    return time.perf_counter() - start


def parameter_selection_comparison(
    dataset: SyntheticDataset,
    *,
    thetas: Sequence[float],
    taus: Sequence[int] = (1, 2, 3, 4, 5),
    size: int = 300,
    method: str = SignatureMethod.AU_HEURISTIC,
    sample_probability: float = 0.1,
    seed: Optional[int] = 5,
) -> Dict[float, Dict[str, float]]:
    """Reproduce Table 11: suggested vs mean-random vs worst τ join time."""
    config = config_for(dataset)
    left, right = split_dataset(dataset, size, size)
    left_prep = PreparedCollection.prepare(left, config)
    right_prep = PreparedCollection.prepare(right, config)
    order = left_prep.shared_order_with(right_prep)
    comparison: Dict[float, Dict[str, float]] = {}
    for theta in thetas:
        times = {
            tau: _join_seconds_for_tau(left, right, config, theta, tau, method) for tau in taus
        }

        recommender = TauRecommender(
            PebbleJoin(config, theta, method=method),
            tau_universe=taus,
            left_probability=sample_probability,
            right_probability=sample_probability,
            burn_in=3,
            max_iterations=10,
            seed=seed,
        )
        recommendation = recommender.recommend(left_prep, right_prep, order=order)
        comparison[theta] = {
            "suggested": times[recommendation.best_tau],
            "random_mean": sum(times.values()) / len(times),
            "worst": max(times.values()),
            "best_possible": min(times.values()),
            "suggested_tau": float(recommendation.best_tau),
        }
    return comparison


def suggestion_accuracy(
    dataset: SyntheticDataset,
    *,
    thetas: Sequence[float],
    taus: Sequence[int] = (1, 2, 3, 4, 5),
    runs: int = 10,
    size: int = 300,
    method: str = SignatureMethod.AU_HEURISTIC,
    sample_probability: float = 0.1,
    tolerance_ratio: float = 1.1,
    seed: int = 3,
) -> Dict[float, Dict[str, float]]:
    """Reproduce Table 12: how often the recommender picks a near-optimal τ.

    A recommendation counts as accurate when the join time with the suggested
    τ is within ``tolerance_ratio`` of the best measured τ (the paper counts
    exact hits; the small tolerance absorbs timing noise on small data).
    """
    config = config_for(dataset)
    left, right = split_dataset(dataset, size, size)
    left_prep = PreparedCollection.prepare(left, config)
    right_prep = PreparedCollection.prepare(right, config)
    order = left_prep.shared_order_with(right_prep)
    accuracy: Dict[float, Dict[str, float]] = {}
    for theta in thetas:
        times = {
            tau: _join_seconds_for_tau(left, right, config, theta, tau, method) for tau in taus
        }
        best_time = min(times.values())
        total_join_time = sum(times.values()) / len(times)

        hits = 0
        suggestion_seconds = 0.0
        for run in range(runs):
            recommender = TauRecommender(
                PebbleJoin(config, theta, method=method),
                tau_universe=taus,
                left_probability=sample_probability,
                right_probability=sample_probability,
                burn_in=3,
                max_iterations=8,
                seed=seed + run,
            )
            start = time.perf_counter()
            recommendation = recommender.recommend(left_prep, right_prep, order=order)
            suggestion_seconds += time.perf_counter() - start
            if times[recommendation.best_tau] <= best_time * tolerance_ratio:
                hits += 1
        accuracy[theta] = {
            "accuracy": hits / runs,
            "avg_suggestion_seconds": suggestion_seconds / runs,
            "time_fraction": (suggestion_seconds / runs) / max(total_join_time, 1e-9),
        }
    return accuracy


def sampling_probability_tradeoff(
    dataset: SyntheticDataset,
    *,
    probabilities: Sequence[float],
    theta: float = 0.8,
    taus: Sequence[int] = (1, 2, 3, 4),
    size: int = 400,
    method: str = SignatureMethod.AU_HEURISTIC,
    seed: int = 17,
) -> Dict[float, Dict[str, float]]:
    """Reproduce Figure 8: iterations and suggestion time vs sample probability.

    Each row's ``exact`` (1.0 or 0.0) says whether the recommender ran one
    exact counts pass in place of further samples, which it does once that
    pass is the cheaper one (see :mod:`repro.estimator.recommend`).
    """
    config = config_for(dataset)
    left, right = split_dataset(dataset, size, size)
    left_prep = PreparedCollection.prepare(left, config)
    right_prep = PreparedCollection.prepare(right, config)
    order = left_prep.shared_order_with(right_prep)
    outcome: Dict[float, Dict[str, float]] = {}
    for probability in probabilities:
        recommender = TauRecommender(
            PebbleJoin(config, theta, method=method),
            tau_universe=taus,
            left_probability=probability,
            right_probability=probability,
            burn_in=5,
            max_iterations=100,
            seed=seed,
        )
        start = time.perf_counter()
        recommendation = recommender.recommend(left_prep, right_prep, order=order)
        elapsed = time.perf_counter() - start
        outcome[probability] = {
            "iterations": float(recommendation.iterations),
            "suggestion_seconds": elapsed,
            "best_tau": float(recommendation.best_tau),
            "exact": float(recommendation.exact),
        }
    return outcome


# --------------------------------------------------------------------- #
# Table 14 — join time against baselines
# --------------------------------------------------------------------- #
def baseline_join_time(
    dataset: SyntheticDataset,
    *,
    thetas: Sequence[float],
    size: int = 300,
    tau: int = 2,
) -> Dict[str, Dict[float, float]]:
    """Reproduce Table 14: grouped join-time comparison against baselines.

    Groups follow the paper: K-Join vs Ours(T), AdaptJoin vs Ours(J), PKduck
    vs Ours(S), Combination vs Ours(TJS).
    """
    left, right = split_dataset(dataset, size, size)
    timings: Dict[str, Dict[float, float]] = {}

    def record(name: str, theta: float, seconds: float) -> None:
        timings.setdefault(name, {})[theta] = seconds

    for theta in thetas:
        kjoin = KJoin(theta, dataset.taxonomy)
        adapt = AdaptJoin(theta)
        pkduck = PKDuck(theta, dataset.rules)
        combination = CombinationJoin([kjoin, adapt, pkduck])

        for name, algorithm in (
            ("K-Join", kjoin),
            ("AdaptJoin", adapt),
            ("PKduck", pkduck),
            ("Combination", combination),
        ):
            start = time.perf_counter()
            algorithm.join(left, right)
            record(name, theta, time.perf_counter() - start)

        for codes, label in (("T", "Ours (T)"), ("J", "Ours (J)"), ("S", "Ours (S)"), ("TJS", "Ours (TJS)")):
            config = config_for(dataset, codes)
            engine = PebbleJoin(config, theta, tau=tau, method=SignatureMethod.AU_DP)
            start = time.perf_counter()
            engine.join(left, right)
            record(label, theta, time.perf_counter() - start)
    return timings
