"""Sampling-based recommendation of the overlap constraint τ (Section 4)."""

from .bernoulli import scale_estimate
from .cost_model import CostEstimate, CostModel
from .online_stats import OnlineStatistics, student_t_quantile
from .recommend import RecommendationResult, TauRecommender, recommend_tau

__all__ = [
    "CostEstimate",
    "CostModel",
    "OnlineStatistics",
    "RecommendationResult",
    "TauRecommender",
    "recommend_tau",
    "scale_estimate",
    "student_t_quantile",
]
