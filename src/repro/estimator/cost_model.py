"""Join cost model ``C_τ = c_f · T_τ + c_v · V_τ`` (Equations 15–16, 22).

``T_τ`` is the number of posting-list pair combinations the filter touches
and ``V_τ`` the number of candidates verified.  ``c_f`` and ``c_v`` are the
per-unit costs of the two phases, assumed constant with respect to τ.  The
model also combines the online statistics of both estimators into the mean,
variance, and confidence interval of the total cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .online_stats import OnlineStatistics

__all__ = ["CostModel", "CostEstimate"]


@dataclass
class CostEstimate:
    """Aggregated cost estimate for one τ value."""

    tau: int
    mean_cost: float
    variance: float
    iterations: int
    mean_processed: float
    mean_candidates: float

    def confidence_interval(self, t_quantile: float) -> Tuple[float, float]:
        """Equation 23: ``mean ± t* · σ / √n``."""
        if self.iterations == 0:
            return (0.0, 0.0)
        margin = t_quantile * math.sqrt(max(self.variance, 0.0) / self.iterations)
        return self.mean_cost - margin, self.mean_cost + margin


class CostModel:
    """Accumulates per-τ estimates of filtering and verification cardinality.

    Parameters
    ----------
    filter_cost, verify_cost:
        The per-pair constants ``c_f`` and ``c_v``, each finite and > 0
        (``ValueError`` otherwise).  Their ratio is what matters for τ
        selection; the defaults reflect that verifying one candidate (an
        approximate USIM computation) is orders of magnitude more expensive
        than one posting-combination increment.
    """

    def __init__(self, *, filter_cost: float = 1.0, verify_cost: float = 50.0) -> None:
        # Written so that NaN fails the comparisons.
        if not (0 < filter_cost < math.inf and 0 < verify_cost < math.inf):
            raise ValueError(
                "cost constants must be finite and > 0; got "
                f"filter_cost={filter_cost!r}, verify_cost={verify_cost!r}"
            )
        self.filter_cost = filter_cost
        self.verify_cost = verify_cost
        self._processed: Dict[int, OnlineStatistics] = {}
        self._candidates: Dict[int, OnlineStatistics] = {}

    # ------------------------------------------------------------------ #
    # accumulation
    # ------------------------------------------------------------------ #
    def observe(self, tau: int, estimated_processed: float, estimated_candidates: float) -> None:
        """Record one iteration's scaled estimates ``T̂_τ`` and ``V̂_τ``."""
        self._processed.setdefault(tau, OnlineStatistics()).update(estimated_processed)
        self._candidates.setdefault(tau, OnlineStatistics()).update(estimated_candidates)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def cost(self, processed: float, candidates: float) -> float:
        """Equation 15 on point values."""
        return self.filter_cost * processed + self.verify_cost * candidates

    def estimate(self, tau: int) -> CostEstimate:
        """The current aggregated estimate for ``tau`` (Equation 22)."""
        processed = self._processed.get(tau, OnlineStatistics())
        candidates = self._candidates.get(tau, OnlineStatistics())
        mean_cost = self.filter_cost * processed.mean + self.verify_cost * candidates.mean
        variance = (
            self.filter_cost ** 2 * processed.variance
            + self.verify_cost ** 2 * candidates.variance
        )
        return CostEstimate(
            tau=tau,
            mean_cost=mean_cost,
            variance=variance,
            iterations=min(processed.count, candidates.count),
            mean_processed=processed.mean,
            mean_candidates=candidates.mean,
        )

    def estimates(self) -> Dict[int, CostEstimate]:
        """Estimates for every observed τ."""
        taus = set(self._processed) | set(self._candidates)
        return {tau: self.estimate(tau) for tau in sorted(taus)}

    def best_tau(self) -> Optional[int]:
        """The τ with the lowest estimated mean cost (None before any data)."""
        estimates = self.estimates()
        if not estimates:
            return None
        return min(estimates.values(), key=lambda estimate: estimate.mean_cost).tau
