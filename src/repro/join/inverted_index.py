"""Inverted index over signature pebbles.

The filtering stage of both join algorithms looks up, for every pebble key
appearing in some signature, the list of record ids whose signature contains
that key.  The index stores each record at most once per key (signatures are
key sets for candidate counting purposes).

Batch joins build an index once and throw it away; the online search index
of :mod:`repro.search` keeps one alive and maintains it under record churn
through :meth:`InvertedIndex.insert_sorted` / :meth:`InvertedIndex.discard`,
which preserve the ascending-id posting invariant the probe loop's self-join
early break relies on.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from .pebbles import PebbleKey
from .signatures import SignedRecord

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Maps pebble keys to the ids of records whose signatures contain them."""

    def __init__(self) -> None:
        self._postings: Dict[PebbleKey, List[int]] = defaultdict(list)
        self._record_count = 0

    @classmethod
    def build(cls, signed_records: Iterable[SignedRecord]) -> "InvertedIndex":
        """Build an index from signed records."""
        index = cls()
        for signed in signed_records:
            index.add(signed)
        return index

    def add(self, signed: SignedRecord) -> None:
        """Add one record's signature pebbles to the index.

        Every pebble *occurrence* is indexed (a key generated by two distinct
        segments posts the record twice), exactly as Algorithm 6 builds its
        inverted lists.  Occurrence-level postings are what makes the
        τ-overlap count an upper bound on the number of matchable signature
        pebbles, so dropping duplicates could cause false negatives.

        Accepts anything exposing ``record`` and the
        ``signature_key_sequence`` protocol of a signed record.
        """
        record_id = signed.record.record_id
        for key in signed.signature_key_sequence:
            self._postings[key].append(record_id)
        self._record_count += 1

    # ------------------------------------------------------------------ #
    # incremental maintenance (the online search index's mutation path)
    # ------------------------------------------------------------------ #
    def insert_sorted(self, signed) -> None:
        """Add one record's signature, keeping posting lists sorted by id.

        :meth:`add` appends — correct only while records arrive in ascending
        id order.  A re-signed record (the search index's lazy re-order can
        change a live record's signature in place) re-enters posting lists
        *mid-range*, so its postings are inserted by binary search instead,
        preserving the sorted invariant at O(log n) probe cost per key.
        Occurrence semantics match :meth:`add`: one posting per signature
        key occurrence.
        """
        record_id = signed.record.record_id
        for key in signed.signature_key_sequence:
            insort(self._postings[key], record_id)
        self._record_count += 1

    def discard(self, signed) -> None:
        """Remove one record's signature postings (one per key occurrence).

        The inverse of :meth:`add` / :meth:`insert_sorted` for the same
        signed record: each occurrence of a key in the signature sequence
        removes one posting of the record under that key.  Posting lists
        are searched by binary search (they are maintained sorted); a list
        emptied by the removal is dropped so the key stops advertising
        itself to probes.
        """
        record_id = signed.record.record_id
        for key in signed.signature_key_sequence:
            postings = self._postings.get(key)
            if postings is None:
                continue
            position = bisect_left(postings, record_id)
            if position < len(postings) and postings[position] == record_id:
                del postings[position]
            if not postings:
                del self._postings[key]
        self._record_count -= 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def postings(self, key: PebbleKey) -> Sequence[int]:
        """Record ids whose signature contains ``key`` (empty when absent)."""
        return self._postings.get(key, ())

    @property
    def raw_postings(self) -> Dict[PebbleKey, List[int]]:
        """The underlying ``key -> [record_id, ...]`` mapping.

        Exposed for the probe-based filter's inner loop, which performs one
        dict lookup per probe pebble; callers must not mutate the mapping.
        Posting lists are in insertion order, so when records are added in
        ascending id order (as :meth:`build` does over a signed collection
        in id order) every list is sorted ascending — the self-join probe
        detects this and breaks out of a posting list at the first
        ``id >= probe_id``.
        """
        return self._postings

    def keys(self) -> Set[PebbleKey]:
        """All indexed pebble keys."""
        return set(self._postings.keys())

    def __contains__(self, key: PebbleKey) -> bool:
        return key in self._postings

    def __len__(self) -> int:
        """Number of distinct indexed keys."""
        return len(self._postings)

    @property
    def record_count(self) -> int:
        """Number of records added to the index."""
        return self._record_count

    @property
    def total_postings(self) -> int:
        """Total size of all posting lists (index footprint indicator)."""
        return sum(len(posting) for posting in self._postings.values())

    def to_flat(self, vocab) -> "FlatPostings":
        """Export the live postings as flat CSR arrays over ``vocab``.

        Keys are interned into ``vocab`` (growing it); each key's posting
        list is copied verbatim, maintained order and all, so a flat scan
        observes exactly what the dict probe loop would — the online
        search index uses this to hand its maintained index to the
        process-pool batch path without a rebuild.  See
        :class:`repro.join.flat.FlatPostings`.
        """
        from .flat import FlatPostings

        return FlatPostings.from_index(self, vocab)

    def common_keys(self, other: "InvertedIndex") -> Set[PebbleKey]:
        """Keys present in both indexes (Line 1/2 of Algorithms 3 and 6)."""
        if len(self._postings) <= len(other._postings):
            return {key for key in self._postings if key in other._postings}
        return {key for key in other._postings if key in self._postings}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvertedIndex(keys={len(self._postings)}, records={self._record_count}, "
            f"postings={self.total_postings})"
        )
