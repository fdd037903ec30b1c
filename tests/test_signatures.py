"""Tests for signature selection (U-Filter, AU-heuristic, AU-DP)."""

import bisect
import functools
import math
import random
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.measures import Measure, MeasureConfig
from repro.core.segments import min_partition_size
from repro.datasets import MED_PROFILE, generate_dataset
from repro.join.global_order import GlobalOrder
from repro.join.pebbles import Pebble, generate_pebbles
from repro.join.prepared import PreparedCollection
from repro.join.signatures import (
    SignatureMethod,
    accumulated_similarity_profile,
    select_signature_prefix,
    sign_record,
)
from repro.records import Record, RecordCollection

_EPSILON = 1e-9
_AU_METHODS = (SignatureMethod.AU_HEURISTIC, SignatureMethod.AU_DP)
_TAUS = range(1, 7)
_THETAS = (0.7, 0.8, 0.9)


# ---------------------------------------------------------------------- #
# The historical selection walk, verbatim: every step rebuilds the DP.
# ---------------------------------------------------------------------- #
class _ReferenceSegmentMeasureState:
    """Per (segment, measure) bookkeeping for the incremental AS computation.

    ``suffix_sum`` accumulates the weights of this group's pebbles that have
    been moved to the removed suffix.  ``prefix_weights`` keeps the weights
    still in the retained prefix, sorted descending so the top-c heaviest can
    be summed in O(c).
    """

    __slots__ = ("suffix_sum", "prefix_weights")

    def __init__(self, weights_desc: List[float]) -> None:
        self.suffix_sum = 0.0
        self.prefix_weights = weights_desc  # sorted descending

    def move_to_suffix(self, weight: float) -> None:
        """Move one pebble of this group from the prefix to the suffix."""
        self.suffix_sum += weight
        # Remove one occurrence of ``weight`` from the descending list.
        index = bisect.bisect_left([-w for w in self.prefix_weights], -weight)
        # The bisect above gives the first position with value <= weight in
        # descending order; scan forward to the exact occurrence.
        while index < len(self.prefix_weights) and self.prefix_weights[index] != weight:
            index += 1
        if index < len(self.prefix_weights):
            del self.prefix_weights[index]

    def top_prefix_sum(self, count: int) -> float:
        """Sum of the ``count`` heaviest prefix weights of this group."""
        if count <= 0:
            return 0.0
        return sum(self.prefix_weights[:count])


class _ReferenceSelectionState:
    """Incremental state shared by the three selection strategies."""

    def __init__(
        self,
        pebbles: Sequence[Pebble],
        segment_count: int,
        enabled_measures: Sequence[Measure],
    ) -> None:
        self.pebbles = pebbles
        self.segment_count = segment_count
        self.measures = list(enabled_measures)
        # Group pebbles by (segment, measure).
        grouped: Dict[Tuple[int, Measure], List[float]] = {}
        for pebble in pebbles:
            grouped.setdefault((pebble.segment_index, pebble.measure), []).append(pebble.weight)
        self.states: Dict[Tuple[int, Measure], _ReferenceSegmentMeasureState] = {
            key: _ReferenceSegmentMeasureState(sorted(weights, reverse=True))
            for key, weights in grouped.items()
        }
        # Per-segment current max over measures of the suffix sum, plus total.
        self.segment_max: Dict[int, float] = {}
        self.accumulated = 0.0
        # Global prefix weights (descending) for the heuristic's TW bound.
        self.global_prefix_weights: List[float] = sorted(
            (pebble.weight for pebble in pebbles), reverse=True
        )

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #
    def move_position_to_suffix(self, position: int) -> None:
        """Move the pebble at ``position`` from the prefix to the suffix."""
        pebble = self.pebbles[position]
        key = (pebble.segment_index, pebble.measure)
        state = self.states[key]
        state.move_to_suffix(pebble.weight)
        # Update the per-segment max over measures.
        segment = pebble.segment_index
        new_max = max(
            self.states[(segment, measure)].suffix_sum
            for measure in self.measures
            if (segment, measure) in self.states
        )
        old_max = self.segment_max.get(segment, 0.0)
        if new_max != old_max:
            self.accumulated += new_max - old_max
            self.segment_max[segment] = new_max
        # Update the global prefix multiset.
        index = bisect.bisect_left([-w for w in self.global_prefix_weights], -pebble.weight)
        while (
            index < len(self.global_prefix_weights)
            and self.global_prefix_weights[index] != pebble.weight
        ):
            index += 1
        if index < len(self.global_prefix_weights):
            del self.global_prefix_weights[index]

    # ------------------------------------------------------------------ #
    # bounds
    # ------------------------------------------------------------------ #
    def accumulated_similarity(self) -> float:
        """The current AS value (Definition 4) of the removed suffix."""
        return self.accumulated

    def top_global_prefix_sum(self, count: int) -> float:
        """Sum of the ``count`` heaviest pebbles still in the prefix."""
        if count <= 0:
            return 0.0
        return sum(self.global_prefix_weights[:count])

    def dp_bound(self, extra_pebbles: int) -> float:
        """The DP bound ``W_i[t, τ−1]`` of Algorithm 5.

        Computes, per segment, the tight increment of inserting up to ``c``
        prefix pebbles (Equations 13–14) and combines the per-segment
        options with the knapsack-style recurrence of Equation 12.
        """
        if extra_pebbles <= 0:
            return 0.0
        # accessory[p][c] = V_i[p, c] for segment p.
        accessory: List[List[float]] = []
        for segment in range(self.segment_count):
            row = [0.0] * (extra_pebbles + 1)
            base_options: List[Tuple[float, _ReferenceSegmentMeasureState]] = []
            for measure in self.measures:
                state = self.states.get((segment, measure))
                if state is not None:
                    base_options.append((state.suffix_sum, state))
            if not base_options:
                accessory.append(row)
                continue
            r_zero = max(suffix for suffix, _ in base_options)
            for c in range(1, extra_pebbles + 1):
                r_c = max(suffix + state.top_prefix_sum(c) for suffix, state in base_options)
                row[c] = max(0.0, r_c - r_zero)
            accessory.append(row)

        # W[p][d] over segments with the Equation-12 recurrence; only the
        # previous row is needed at any time.
        previous = [0.0] * (extra_pebbles + 1)
        for segment in range(self.segment_count):
            current = [0.0] * (extra_pebbles + 1)
            seg_row = accessory[segment]
            for d in range(extra_pebbles + 1):
                best = 0.0
                for c in range(d + 1):
                    candidate = previous[d - c] + seg_row[c]
                    if candidate > best:
                        best = candidate
                current[d] = best
            previous = current
        return previous[extra_pebbles]


def _reference_select_signature_prefix(
    pebbles: Sequence[Pebble],
    segment_count: int,
    min_partitions: int,
    theta: float,
    *,
    tau: int = 1,
    method: str = SignatureMethod.U_FILTER,
    enabled_measures: Sequence[Measure] = (Measure.JACCARD, Measure.SYNONYM, Measure.TAXONOMY),
) -> int:
    """Return the signature prefix length for a sorted pebble list.

    This is the common core of Algorithms 2, 4, and 5: walk from the tail of
    the pebble list towards the head, moving pebbles to the removed suffix
    while the similarity mass reachable without the retained prefix stays
    below ``MP(S)·θ``; the strategies differ only in the credit they grant
    the retained prefix (0, top τ−1 weights, or the DP bound).
    """
    SignatureMethod.validate(method)
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must be in [0, 1]")
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if method == SignatureMethod.U_FILTER:
        tau = 1

    total = len(pebbles)
    if total == 0:
        return 0
    target = min_partitions * theta
    state = _ReferenceSelectionState(pebbles, segment_count, enabled_measures)

    for position in range(total - 1, -1, -1):
        state.move_position_to_suffix(position)
        accumulated = state.accumulated_similarity()
        if method == SignatureMethod.U_FILTER:
            credit = 0.0
        elif method == SignatureMethod.AU_HEURISTIC:
            credit = state.top_global_prefix_sum(tau - 1)
        else:  # AU_DP
            credit = state.dp_bound(tau - 1)
        if accumulated + credit >= target - _EPSILON:
            # The pebble at ``position`` cannot be removed: keep it and
            # everything before it.
            return position + 1
    # Every pebble could be removed: the record cannot reach θ at all.
    return 0


@functools.lru_cache(maxsize=None)
def _swept_records():
    """(label, sorted pebbles, segments, token count, measures) of MED records.

    MED records under J/S/T/TJS and both order strategies (twelve records
    per configuration, spread over the length range).
    """
    records = []
    dataset = generate_dataset(MED_PROFILE, count=60, seed=3)
    for codes in ("J", "S", "T", "TJS"):
        config = MeasureConfig.from_codes(
            codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
        )
        prepared = PreparedCollection.prepare(dataset.records, config)
        enabled = sorted(config.enabled, key=lambda measure: measure.value)
        by_length = sorted(prepared.prepared_records, key=lambda rec: len(rec.pebbles))
        chosen = by_length[:: len(by_length) // 12][:12]
        for strategy in ("frequency", "weight"):
            order = GlobalOrder(
                strategy, (rec.pebbles for rec in prepared.prepared_records)
            )
            for rec in chosen:
                records.append((
                    f"{codes}/{strategy}/{rec.record.record_id}",
                    order.sort_pebbles(rec.pebbles),
                    tuple(rec.segments),
                    len(rec.record.tokens),
                    enabled,
                ))
    return tuple(records)


def _swept_lists():
    """(label, sorted pebbles, segment count, MP(S), measures) to sweep.

    The records of :func:`_swept_records` with their exact ``MP(S)``, then
    seeded random pebble lists with tied weights, single-segment lists, and
    empty lists.
    """
    for label, pebbles, segments, token_count, enabled in _swept_records():
        yield (
            label,
            pebbles,
            len(segments),
            min_partition_size(token_count, segments),
            enabled,
        )
    rng = random.Random(17)
    measures = sorted(Measure, key=lambda measure: measure.value)
    weights = (0.1, 0.125, 0.2, 0.25, 1 / 3, 0.5, 1.0)
    for case in range(120):
        segments = 1 if case % 4 == 0 else rng.randint(2, 6)
        pebbles = [
            Pebble(("r", f"{case}.{i}"), rng.choice(weights), rng.randrange(segments),
                   rng.choice(measures))
            for i in range(rng.randint(1, 40))
        ]
        yield f"random/{case}", pebbles, segments, rng.randint(1, segments), measures
    yield "empty/0", [], 0, 0, measures
    yield "empty/1", [], 1, 1, measures


@pytest.fixture(scope="module")
def selection_sweep():
    """``{(label, θ, method): [(length, reference length) per τ 1–6]}``."""
    table = {}
    for label, pebbles, segment_count, min_partitions, measures in _swept_lists():
        for theta in _THETAS:
            for method in SignatureMethod.ALL:
                table[label, theta, method] = [
                    tuple(
                        select(pebbles, segment_count, min_partitions, theta,
                               tau=tau, method=method, enabled_measures=measures)
                        for select in (select_signature_prefix,
                                       _reference_select_signature_prefix)
                    )
                    for tau in _TAUS
                ]
    return table


def _signed(record_text, config, theta, tau, method, corpus=None):
    """Helper: sign a single record against an order built from a small corpus."""
    corpus_texts = corpus or [record_text]
    collection = RecordCollection.from_strings(corpus_texts + [record_text])
    order = GlobalOrder(
        pebble_lists=(generate_pebbles(record.tokens, config)[1] for record in collection)
    )
    target = collection[len(collection) - 1]
    return sign_record(target, config, order, theta, tau=tau, method=method)


class TestAccumulatedSimilarity:
    def test_profile_is_monotone_decreasing(self, figure1_config):
        _, pebbles = generate_pebbles(("espresso", "cafe", "helsinki"), figure1_config)
        order = GlobalOrder(pebble_lists=[pebbles])
        sorted_pebbles = order.sort_pebbles(pebbles)
        profile = accumulated_similarity_profile(sorted_pebbles, 3)
        for i in range(len(profile) - 1):
            assert profile[i] >= profile[i + 1] - 1e-12

    def test_full_suffix_counts_every_segment_once(self, figure1_config):
        # With all pebbles removed, AS equals the sum over segments of the best
        # single-measure weight mass, which is >= 1 per segment here.
        _, pebbles = generate_pebbles(("espresso", "cafe", "helsinki"), figure1_config)
        profile = accumulated_similarity_profile(pebbles, 3)
        assert profile[0] >= 3.0 - 1e-9


class TestSignaturePrefixSelection:
    def test_u_filter_keeps_prefix_that_blocks_removal(self, figure1_config):
        signed = _signed("espresso cafe helsinki", figure1_config, 0.8, 1,
                         SignatureMethod.U_FILTER)
        # Example 6 keeps 7 of 23 pebbles under a corpus-frequency order; with
        # our tiny corpus the exact count differs but must be a proper prefix.
        assert 0 < signed.signature_length < len(signed.pebbles)

    def test_higher_tau_never_shortens_signature(self, figure1_config, selection_sweep):
        # Signatures nest in τ: the prefix for τ is a prefix of the one for τ+1.
        for method in _AU_METHODS:
            lengths = [
                _signed("espresso cafe helsinki", figure1_config, 0.8, tau,
                        method).signature_length
                for tau in _TAUS
            ]
            assert lengths == sorted(lengths), method
        for (label, theta, method), row in selection_sweep.items():
            if method in _AU_METHODS:
                lengths = [length for length, _ in row]
                assert lengths == sorted(lengths), (label, theta, method)

    def test_dp_signature_never_longer_than_heuristic(self, figure1_config, selection_sweep):
        for tau in (2, 3, 4):
            heuristic = _signed("espresso cafe helsinki", figure1_config, 0.8, tau,
                                SignatureMethod.AU_HEURISTIC)
            dp = _signed("espresso cafe helsinki", figure1_config, 0.8, tau,
                         SignatureMethod.AU_DP)
            assert dp.signature_length <= heuristic.signature_length
        for (label, theta, method), row in selection_sweep.items():
            if method == SignatureMethod.AU_DP:
                heuristic = selection_sweep[label, theta, SignatureMethod.AU_HEURISTIC]
                for tau, ((dp, _), (bound, _)) in zip(_TAUS, zip(row, heuristic)):
                    assert dp <= bound, (label, theta, tau)

    def test_higher_theta_shortens_or_keeps_signature(self, figure1_config):
        low = _signed("espresso cafe helsinki", figure1_config, 0.7, 1,
                      SignatureMethod.U_FILTER)
        high = _signed("espresso cafe helsinki", figure1_config, 0.95, 1,
                       SignatureMethod.U_FILTER)
        assert high.signature_length <= low.signature_length

    def test_invalid_inputs(self, figure1_config):
        _, pebbles = generate_pebbles(("cafe",), figure1_config)
        with pytest.raises(ValueError):
            select_signature_prefix(pebbles, 1, 1, 1.5)
        with pytest.raises(ValueError):
            select_signature_prefix(pebbles, 1, 1, 0.8, tau=0)
        with pytest.raises(ValueError):
            select_signature_prefix(pebbles, 1, 1, 0.8, method="magic")

    def test_empty_pebbles(self, figure1_config):
        assert select_signature_prefix([], 0, 0, 0.8) == 0

    def test_u_filter_ignores_tau(self, figure1_config):
        one = _signed("espresso cafe helsinki", figure1_config, 0.8, 1, SignatureMethod.U_FILTER)
        five = _signed("espresso cafe helsinki", figure1_config, 0.8, 5, SignatureMethod.U_FILTER)
        assert one.signature_length == five.signature_length

    @settings(max_examples=20, deadline=None)
    @given(theta=st.floats(min_value=0.5, max_value=0.99))
    def test_signature_is_prefix_of_sorted_pebbles(self, figure1_config, theta):
        signed = _signed("coffee shop latte helsingki", figure1_config, theta, 2,
                         SignatureMethod.AU_DP)
        assert signed.signature == signed.pebbles[: signed.signature_length]

    def test_signed_record_properties(self, figure1_config):
        signed = _signed("coffee shop latte", figure1_config, 0.8, 2, SignatureMethod.AU_DP)
        assert all(key in {p.key for p in signed.pebbles} for key in signed.signature_keys)


class TestSelectionOracle:
    """The gated walk keeps exactly the prefixes of the historical walk."""

    def test_swept_lists_match_reference(self, selection_sweep):
        mismatches = [
            (label, theta, method, tau, got, expected)
            for (label, theta, method), row in selection_sweep.items()
            for tau, (got, expected) in zip(_TAUS, row)
            if got != expected
        ]
        assert not mismatches, mismatches[:5]
        # The sweep reaches real DP work: AU-DP prefixes shorter than the
        # heuristic's, and walks that stop partway through the list.
        assert any(
            row[tau - 1][0] < selection_sweep[label, theta, SignatureMethod.AU_HEURISTIC][tau - 1][0]
            for (label, theta, method), row in selection_sweep.items()
            if method == SignatureMethod.AU_DP
            for tau in _TAUS
        )


def _paper_min_partition_size(token_count, segments):
    """Algorithm 2's ``GetMinPartitionSize`` (Lines 6–12), the oracle.

    The greedy set cover of the token positions, divided by its
    ``ln n + 1`` approximation factor, where ``n`` is the token count of
    the largest segment.
    """
    uncovered = set(range(token_count))
    if not uncovered:
        return 0
    ordered = sorted(segments, key=lambda segment: (-len(segment), segment.span.start))
    cover = 0
    while uncovered:
        best = max(ordered, key=lambda segment: len(uncovered & set(segment.span.positions())))
        uncovered -= set(best.span.positions())
        cover += 1
    largest = max((len(segment) for segment in segments), default=1)
    return max(1, math.ceil(cover / (math.log(largest) + 1.0)))


class TestExactPartitionSize:
    """Signing with the exact ``MP(S)`` only ever shortens the paper's prefixes."""

    def test_exact_minimum_never_lengthens_the_paper_prefix(self, selection_sweep):
        raised = 0
        for label, pebbles, segments, token_count, measures in _swept_records():
            exact = min_partition_size(token_count, segments)
            paper = _paper_min_partition_size(token_count, segments)
            assert exact >= paper, label
            raised += exact > paper
            for theta in _THETAS:
                for method in SignatureMethod.ALL:
                    for tau, (length, _) in zip(_TAUS, selection_sweep[label, theta, method]):
                        paper_length = select_signature_prefix(
                            pebbles, len(segments), paper, theta,
                            tau=tau, method=method, enabled_measures=measures,
                        )
                        assert length <= paper_length, (label, theta, method, tau)
        # The sweep reaches records where the two definitions differ.
        assert raised


class TestFilterCorrectness:
    """The central safety property: filtering must not lose similar pairs.

    Lemma 1 / Lemma 2 guarantee that, for moderate τ, any pair with
    USIM ≥ θ shares at least τ signature pebbles.  We verify this against
    brute-force verification on the tiny synthetic dataset.
    """

    @pytest.mark.parametrize("method,tau", [
        (SignatureMethod.U_FILTER, 1),
        (SignatureMethod.AU_HEURISTIC, 2),
        (SignatureMethod.AU_DP, 2),
        (SignatureMethod.AU_DP, 3),
    ])
    def test_no_false_negatives_against_brute_force(self, tiny_dataset, method, tau):
        from repro.core.approximation import approximate_usim
        from repro.evaluation.experiments import config_for
        from repro.join.aufilter import PebbleJoin

        config = config_for(tiny_dataset)
        theta = 0.75
        left = tiny_dataset.records.subset(range(0, 30))
        right = tiny_dataset.records.subset(range(30, 60))

        engine = PebbleJoin(config, theta, tau=tau, method=method)
        result = engine.join(left, right)
        found = result.pair_ids()

        # Brute force: verify every pair with the same similarity routine.
        expected = set()
        for left_record in left:
            for right_record in right:
                value = approximate_usim(left_record.tokens, right_record.tokens, config).value
                if value >= theta:
                    expected.add((left_record.record_id, right_record.record_id))
        assert expected.issubset(found)
