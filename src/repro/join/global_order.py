"""Global pebble ordering (the "global order" of Algorithm 2, Line 1).

Prefix-filter style signature selection needs every record to sort its
pebbles by one corpus-wide order so that "the first *i* pebbles" means the
same thing on both sides of the join.  The paper sorts by ascending pebble
frequency — rare pebbles first — so that the retained prefix consists of the
most selective signature elements.

:class:`GlobalOrder` builds the frequency table over one or more record
collections and provides the sort key.  An alternative weight-descending
order is included for the ablation benchmark.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .pebbles import Pebble, PebbleKey

__all__ = ["GlobalOrder"]


class GlobalOrder:
    """A corpus-wide ordering of pebble keys.

    Parameters
    ----------
    strategy:
        ``"frequency"`` (default) sorts ascending by the number of records a
        pebble key occurs in, breaking ties lexicographically — the paper's
        order.  ``"weight"`` sorts descending by pebble weight (ablation).
    """

    def __init__(self, strategy: str = "frequency") -> None:
        if strategy not in {"frequency", "weight"}:
            raise ValueError("strategy must be 'frequency' or 'weight'")
        self.strategy = strategy
        self._frequencies: Counter = Counter()
        self._mutation_count = 0

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def add_record_pebbles(self, pebbles: Iterable[Pebble]) -> None:
        """Register one record's pebbles (each distinct key counted once)."""
        self._frequencies.update({pebble.key for pebble in pebbles})
        self._mutation_count += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def frequency(self, key: PebbleKey) -> int:
        """Number of registered records containing ``key`` (0 when unseen)."""
        return self._frequencies.get(key, 0)

    @property
    def mutation_count(self) -> int:
        """Number of building calls so far.

        Signature caches (see :class:`~repro.join.prepared.PreparedCollection`)
        key cached signatures by ``(id(order), order.mutation_count, ...)`` so
        that signing against an order that was extended afterwards never
        returns stale signatures.
        """
        return self._mutation_count

    def content_equal(self, other: "GlobalOrder") -> bool:
        """True when ``other`` sorts every pebble list identically.

        The sort key is a pure function of (strategy, frequency table), so
        content-equal orders are interchangeable for signing.  This is what
        lets a signature cache serve signings made under an order object
        that no longer exists — e.g. a shared two-collection order rebuilt
        on a warm store run (shared orders are weakref-cached and never
        persist, but their content is deterministic in the corpus).
        """
        if other is self:
            return True
        return (
            self.strategy == other.strategy
            and self._frequencies == other._frequencies
        )

    def sort_pebbles(self, pebbles: Sequence[Pebble]) -> List[Pebble]:
        """Return ``pebbles`` sorted by this global order.

        Frequency strategy: ascending document frequency (unseen keys count
        as 0 and therefore sort first), ties broken by key for determinism.
        Weight strategy: descending pebble weight, ties broken by key.
        """
        if self.strategy == "frequency":
            return sorted(pebbles, key=lambda p: (self._frequencies.get(p.key, 0), p.key))
        return sorted(pebbles, key=lambda p: (-p.weight, p.key))

    def __len__(self) -> int:
        return len(self._frequencies)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalOrder(strategy={self.strategy!r}, keys={len(self._frequencies)})"
