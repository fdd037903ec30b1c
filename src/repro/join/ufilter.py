"""U-Filter join (Algorithm 3): the τ = 1 unified set join.

U-Filter is the baseline member of the family: its signatures guarantee that
any pair with USIM ≥ θ shares at least one pebble (Lemma 1), so filtering
only needs a single overlap.  The implementation is a thin specialisation of
:class:`~repro.join.aufilter.PebbleJoin`.
"""

from __future__ import annotations

from ..core.measures import MeasureConfig
from .aufilter import PebbleJoin
from .signatures import SignatureMethod

__all__ = ["UFilterJoin"]


class UFilterJoin(PebbleJoin):
    """Unified set join with single-overlap (U-Filter) signatures."""

    def __init__(
        self,
        config: MeasureConfig,
        theta: float,
        *,
        order_strategy: str = "frequency",
        approximation_t: float = 4.0,
    ) -> None:
        super().__init__(
            config,
            theta,
            tau=1,
            method=SignatureMethod.U_FILTER,
            order_strategy=order_strategy,
            approximation_t=approximation_t,
        )
