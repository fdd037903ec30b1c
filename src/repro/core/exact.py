"""Exact (exponential-time) computation of the unified similarity.

Computing USIM exactly is NP-hard (Theorem 1), but small instances — short
strings or few applicable rules — can be solved by enumerating all pairs of
well-defined partitions and taking the best Equation-6 value.  The exact
solver exists for three reasons:

* it defines the ground truth against which the approximation ratio of
  Algorithm 1 is measured (Table 9 of the paper),
* it anchors the property-based tests (the approximation must never exceed
  the exact value and must respect the worst-case bound),
* tiny verification workloads can afford it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .aggregation import SimilarityBreakdown, table_similarity
from .measures import Measure, MeasureConfig
from .segments import enumerate_partitions, enumerate_segments

__all__ = ["exact_usim", "ExactBudgetExceeded"]

#: Default cap on the number of partitions enumerated per string.  Exceeding
#: it raises :class:`ExactBudgetExceeded`.
DEFAULT_PARTITION_LIMIT = 5000


class ExactBudgetExceeded(RuntimeError):
    """Raised when exact enumeration would exceed the configured budget."""


def exact_usim(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    config: MeasureConfig,
    *,
    partition_limit: int = DEFAULT_PARTITION_LIMIT,
) -> SimilarityBreakdown:
    """Compute USIM exactly by enumerating all well-defined partition pairs.

    Parameters
    ----------
    left_tokens, right_tokens:
        Token sequences of the two strings.
    config:
        Measure configuration (knowledge sources + enabled measures).
    partition_limit:
        Maximum number of partitions enumerated for each string.  The number
        of partition *pairs* examined is the product of the two counts.

    Returns
    -------
    The best :class:`SimilarityBreakdown` over all partition pairs.
    """
    if not left_tokens or not right_tokens:
        return SimilarityBreakdown(0.0, (), (), ())

    rules = config.rules if config.uses(Measure.SYNONYM) else None
    taxonomy = config.taxonomy if config.uses(Measure.TAXONOMY) else None

    left_segments = enumerate_segments(left_tokens, rules=rules, taxonomy=taxonomy)
    right_segments = enumerate_segments(right_tokens, rules=rules, taxonomy=taxonomy)

    try:
        left_partitions = list(
            enumerate_partitions(left_tokens, left_segments, limit=partition_limit)
        )
        right_partitions = list(
            enumerate_partitions(right_tokens, right_segments, limit=partition_limit)
        )
    except RuntimeError as error:
        raise ExactBudgetExceeded(str(error)) from error

    # Partitions share their segments: each segment pair's msim once.
    table = [
        [config.msim(left.tokens, right.tokens) for right in right_segments]
        for left in left_segments
    ]
    left_rows = {segment.span: index for index, segment in enumerate(left_segments)}
    right_rows = {segment.span: index for index, segment in enumerate(right_segments)}
    best: Optional[SimilarityBreakdown] = None
    for left_partition in left_partitions:
        for right_partition in right_partitions:
            breakdown = table_similarity(
                left_partition, right_partition, table, left_rows, right_rows
            )
            if best is None or breakdown.value > best.value:
                best = breakdown
    assert best is not None  # both partition lists are non-empty for non-empty input
    return best
