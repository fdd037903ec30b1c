"""Independent Bernoulli sampling (Section 4.1).

Every row of an input is kept independently with a fixed probability.  A
pair of records therefore survives with probability ``p_s · p_t``, which
makes ``T'_τ / (p_s · p_t)`` and ``V'_τ / (p_s · p_t)`` unbiased estimators
of the full-data filtering and candidate cardinalities (Equation 17).
"""

from __future__ import annotations

import random
from typing import List

__all__ = ["bernoulli_rows", "scale_estimate"]


def bernoulli_rows(count: int, probability: float, rng: random.Random) -> List[int]:
    """The rows of ``range(count)`` a Bernoulli sample keeps, ascending.

    Draws exactly one ``rng.random()`` per row, in row order, so a seeded
    ``rng`` makes the sample — and everything estimated from it —
    reproducible.
    """
    if not 0.0 < probability <= 1.0:
        raise ValueError("probability must be in (0, 1]")
    return [row for row in range(count) if rng.random() < probability]


def scale_estimate(sampled_value: float, left_probability: float, right_probability: float) -> float:
    """Scale a value measured on samples up to the full data (Eq. 17)."""
    scale = left_probability * right_probability
    if scale <= 0.0:
        raise ValueError("sampling probabilities must be positive")
    return sampled_value / scale
