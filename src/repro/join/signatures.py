"""Pebble signature selection: U-Filter, AU-Filter heuristic, AU-Filter DP.

Given a record's pebbles sorted by the global order, signature selection
keeps the shortest prefix such that any record similar to it (USIM ≥ θ) must
share at least τ pebbles with the prefix:

* **U-Filter** (Algorithm 2, τ = 1) — remove pebbles from the tail while the
  accumulated similarity of removed pebbles stays below ``MP(S)·θ``.  The
  paper estimates the minimal partition size ``MP(S)`` with a greedy set
  cover; segments are token intervals, so the walk uses the exact minimum
  of :func:`~repro.core.segments.min_partition_size` instead, the same
  ``MP(S)`` the verification bounds divide by.  It is never below the
  estimate, so every prefix is a prefix of the paper's and no answer
  changes (the argument is in that function's docs).
* **AU-Filter heuristic** (Algorithm 4) — additionally credit the τ−1
  heaviest pebbles of the remaining prefix, so the prefix can stay shorter
  while guaranteeing τ overlaps.
* **AU-Filter DP** (Algorithm 5) — replace the τ−1-heaviest credit with a
  per-segment dynamic program that bounds the similarity increment of
  inserting d pebbles far more tightly (Equations 12–14), yielding even
  shorter signatures.

The accumulated similarity ``AS(i, S)`` of Definition 4 is maintained
incrementally while pebbles move from the retained prefix to the removed
suffix, so a U-Filter or heuristic step costs ``O(#measures + τ)`` plus its
list deletions.  A DP step rebuilds every segment's accessory row and the
Equation-12 knapsack, ``O(#segments · #measures · τ²)``, so the DP walk runs
it only where it could stop the walk.  The DP credit never exceeds the
heuristic's, and the heuristic's never exceeds the record's ``τ−1``
heaviest pebble weights, computed once per record.  At a step where the
accumulated similarity plus that ceiling stays below ``MP(S)·θ``, no credit
can stop the walk, so the DP is skipped.  The gate is exact: it skips only
steps the DP would pass, and a ``1e-9`` slack, far above the rounding error
of the DP's sums, keeps it exact in floating point.  On 500 records of the
benchmark's MED-like corpus (q=3) it leaves the DP 1.6% of the walk's steps
under J at θ=0.9, τ=2, and 13% under TJS at θ=0.8, τ=3.
"""

from __future__ import annotations

import bisect
import numbers
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.measures import Measure, MeasureConfig
from ..core.segments import Segment, min_partition_size
from ..records import Record
from .global_order import GlobalOrder
from .pebbles import Pebble, PebbleKey, generate_pebbles

__all__ = [
    "SignatureMethod",
    "SignedRecord",
    "check_tau",
    "select_signature_prefix",
    "sign_record",
    "accumulated_similarity_profile",
]

_EPSILON = 1e-9
#: Extra room the DP gate leaves the heaviest-weight ceiling.  The DP credit
#: is a few sums of at most ``τ−1`` weights, so its rounding error is orders
#: of magnitude below this; a step the gate skips can never stop the walk.
_CEILING_SLACK = 1e-9


def _remove_descending(values: List[float], value: float) -> None:
    """Delete one occurrence of ``value`` from the descending list ``values``."""
    index = bisect.bisect_left(values, -value, key=operator.neg)
    if index < len(values) and values[index] == value:
        del values[index]


class SignatureMethod:
    """Names of the three signature-selection strategies."""

    U_FILTER = "u-filter"
    AU_HEURISTIC = "au-heuristic"
    AU_DP = "au-dp"

    ALL = (U_FILTER, AU_HEURISTIC, AU_DP)

    @classmethod
    def validate(cls, method: str) -> str:
        if method not in cls.ALL:
            raise ValueError(f"unknown signature method {method!r}; expected one of {cls.ALL}")
        return method


def check_tau(tau: object, name: str = "tau") -> int:
    """``tau`` when it is an integer ``>= 1``; raise ``ValueError`` otherwise.

    τ counts shared signature pebbles and cuts the heaviest-weight credit of
    the signature walk as a slice, so a float — NaN or fractional — and a
    bool are rejected even when integral in value.
    """
    if isinstance(tau, bool) or not isinstance(tau, numbers.Integral) or tau < 1:
        raise ValueError(f"{name} must be a positive integer; got {tau!r}")
    return int(tau)


@dataclass(frozen=True)
class SignedRecord:
    """A record together with its pebbles and selected signature.

    Attributes
    ----------
    record:
        The underlying record.
    pebbles:
        All pebbles, sorted by the global order.
    signature_length:
        Length of the retained prefix.
    """

    record: Record
    pebbles: Tuple[Pebble, ...]
    signature_length: int

    @property
    def signature(self) -> Tuple[Pebble, ...]:
        """The retained signature pebbles (prefix of the sorted list)."""
        return self.pebbles[: self.signature_length]

    @property
    def signature_keys(self) -> Set[PebbleKey]:
        """Distinct keys of the signature pebbles (what the index stores)."""
        return {pebble.key for pebble in self.signature}

    @property
    def signature_key_sequence(self) -> Tuple[PebbleKey, ...]:
        """Signature keys in prefix order, per-occurrence duplicates kept.

        This is the filtering protocol: the inverted index and the flat
        encoding (:mod:`repro.join.flat`) post exactly this sequence and the
        probe loop streams it — none of them reads a signature pebble's
        weight, segment, or measure.
        Computed on demand (one small tuple per record per indexing or
        probing pass) rather than cached, so pickled signed records never
        grow a shadow copy of their prefix.
        """
        return tuple(pebble.key for pebble in self.pebbles[: self.signature_length])


class _SegmentMeasureState:
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
        _remove_descending(self.prefix_weights, weight)

    def top_prefix_sum(self, count: int) -> float:
        """Sum of the ``count`` heaviest prefix weights of this group."""
        if count <= 0:
            return 0.0
        return sum(self.prefix_weights[:count])


class _SelectionState:
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
        self.states: Dict[Tuple[int, Measure], _SegmentMeasureState] = {
            key: _SegmentMeasureState(sorted(weights, reverse=True))
            for key, weights in grouped.items()
        }
        # Per-segment current max over measures of the suffix sum, plus total.
        self.segment_max: Dict[int, float] = {}
        self.accumulated = 0.0

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

    # ------------------------------------------------------------------ #
    # bounds
    # ------------------------------------------------------------------ #
    def accumulated_similarity(self) -> float:
        """The current AS value (Definition 4) of the removed suffix."""
        return self.accumulated

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
            base_options: List[Tuple[float, _SegmentMeasureState]] = []
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


def select_signature_prefix(
    pebbles: Sequence[Pebble],
    segment_count: int,
    partition_size: int,
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
    the retained prefix (0, top τ−1 weights, or the DP bound).  The DP runs
    only at steps the record's τ−1 heaviest weights could stop (see the
    module docs).  ``partition_size`` is ``MP(S)``: any lower bound on the
    size of the record's well-defined partitions keeps the walk sound, and
    :func:`sign_record` passes the exact minimum.
    """
    SignatureMethod.validate(method)
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must be in [0, 1]")
    tau = check_tau(tau)
    if method == SignatureMethod.U_FILTER:
        tau = 1

    total = len(pebbles)
    if total == 0:
        return 0
    target = partition_size * theta
    state = _SelectionState(pebbles, segment_count, enabled_measures)
    # The prefix weights, descending: the heuristic credits their head, and
    # the whole record's head is the ceiling that gates the DP.
    prefix_weights = sorted((pebble.weight for pebble in pebbles), reverse=True)
    gate = target - _EPSILON - _CEILING_SLACK - sum(prefix_weights[: tau - 1])

    for position in range(total - 1, -1, -1):
        state.move_position_to_suffix(position)
        accumulated = state.accumulated_similarity()
        if method == SignatureMethod.U_FILTER:
            credit = 0.0
        elif method == SignatureMethod.AU_HEURISTIC:
            _remove_descending(prefix_weights, pebbles[position].weight)
            credit = sum(prefix_weights[: tau - 1])
        elif accumulated < gate:
            continue  # not even the ceiling credit could stop the walk here
        else:
            credit = state.dp_bound(tau - 1)
        if accumulated + credit >= target - _EPSILON:
            # The pebble at ``position`` cannot be removed: keep it and
            # everything before it.
            return position + 1
    # Every pebble could be removed: the record cannot reach θ at all.
    return 0


def accumulated_similarity_profile(
    pebbles: Sequence[Pebble],
    segment_count: int,
    enabled_measures: Sequence[Measure] = (Measure.JACCARD, Measure.SYNONYM, Measure.TAXONOMY),
) -> List[float]:
    """Return ``AS`` for every suffix start position (diagnostic helper).

    ``result[i]`` is the accumulated similarity of the suffix starting at
    0-based position ``i`` (``result[len(pebbles)] == 0``).  Used by tests
    and by the worked-example documentation.
    """
    state = _SelectionState(pebbles, segment_count, enabled_measures)
    values = [0.0] * (len(pebbles) + 1)
    for position in range(len(pebbles) - 1, -1, -1):
        state.move_position_to_suffix(position)
        values[position] = state.accumulated_similarity()
    return values


def sign_record(
    record: Record,
    config: MeasureConfig,
    order: GlobalOrder,
    theta: float,
    *,
    tau: int = 1,
    method: str = SignatureMethod.U_FILTER,
    segments: Optional[Sequence[Segment]] = None,
    pebbles: Optional[Sequence[Pebble]] = None,
) -> SignedRecord:
    """Generate pebbles for ``record``, sort them, and select its signature.

    ``segments`` and ``pebbles`` may be supplied when the caller has
    already computed them (see
    :class:`~repro.join.prepared.PreparedCollection`); they must be passed
    together.  Pebble generation is the largest part of signing: on the
    benchmark's MED-like corpus (q=3) it costs 1.3–1.6× the selection walk
    for J records (θ=0.9, τ=2) and 2.2–2.4× for TJS records (θ=0.8, τ=3).
    Reusing them makes re-signing under a different (θ, τ, method) cost a
    sort, the linear ``MP(S)`` DP over the segments, and a walk.
    """
    if (segments is None) != (pebbles is None):
        raise ValueError("segments and pebbles must be supplied together")
    if segments is None or pebbles is None:
        segments, pebbles = generate_pebbles(record.tokens, config)
    sorted_pebbles = order.sort_pebbles(pebbles)
    prefix_length = select_signature_prefix(
        sorted_pebbles,
        len(segments),
        min_partition_size(len(record.tokens), segments),
        theta,
        tau=tau,
        method=method,
        enabled_measures=sorted(config.enabled, key=lambda measure: measure.value),
    )
    return SignedRecord(
        record=record,
        pebbles=tuple(sorted_pebbles),
        signature_length=prefix_length,
    )
