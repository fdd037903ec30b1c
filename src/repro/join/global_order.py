"""Global pebble ordering (the "global order" of Algorithm 2, Line 1).

Prefix-filter style signature selection needs every record to sort its
pebbles by one corpus-wide order so that "the first *i* pebbles" means the
same thing on both sides of the join.  The paper sorts by ascending pebble
frequency — rare pebbles first — so that the retained prefix consists of the
most selective signature elements.

:class:`GlobalOrder` is an immutable value: its constructor counts the
frequency table over the records' pebble lists, and nothing changes it
afterwards.  Orders compare and hash by (strategy, frequency table) — the
two inputs of the sort key — so equal orders sign every record identically
and one order can key a signing cache directly (see
:meth:`~repro.join.prepared.PreparedCollection.signed`).  An alternative
weight-descending order is included for the ablation benchmark.
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
    pebble_lists:
        One pebble list per record; each list's distinct keys count once.

    Two orders are equal when their strategies and frequency tables are.
    The table holds only positive counts, so dict equality and the hash of
    its item set agree.  The hash is computed on first use and never
    pickled: string hashes are salted per interpreter.
    """

    def __init__(
        self,
        strategy: str = "frequency",
        pebble_lists: Iterable[Iterable[Pebble]] = (),
    ) -> None:
        if strategy not in {"frequency", "weight"}:
            raise ValueError("strategy must be 'frequency' or 'weight'")
        frequencies: Counter = Counter()
        for pebbles in pebble_lists:
            frequencies.update({pebble.key for pebble in pebbles})
        self.strategy = strategy
        self._frequencies: Dict[PebbleKey, int] = dict(frequencies)
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------ #
    # value semantics
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalOrder):
            return NotImplemented
        return self is other or (
            self.strategy == other.strategy
            and self._frequencies == other._frequencies
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.strategy, frozenset(self._frequencies.items())))
        return self._hash

    def __getstate__(self) -> Tuple[str, Dict[PebbleKey, int]]:
        return self.strategy, self._frequencies

    def __setstate__(self, state: Tuple[str, Dict[PebbleKey, int]]) -> None:
        self.strategy, self._frequencies = state
        self._hash = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def frequency(self, key: PebbleKey) -> int:
        """Number of counted records containing ``key`` (0 when unseen)."""
        return self._frequencies.get(key, 0)

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
