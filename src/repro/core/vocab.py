"""A global integer vocabulary: tokens and pebble keys interned to dense ids.

Every hot-path structure of the join carries pebble keys — ``(measure_code,
text)`` tuples — by value: signature prefixes repeat them per occurrence,
posting maps key whole dicts by them, and every consumer hashes tuples.
:class:`Vocabulary` interns each distinct key **once** into a dense integer
id, so downstream layers can re-encode signature prefixes, posting
lists, and the frozen global order as flat integer arrays (see
:mod:`repro.join.flat`) that index, compare, and ship as machine words.

The vocabulary is append-only: ids are assigned in first-seen order and
never reused or remapped, which is what lets a long-lived holder — the
online :class:`~repro.search.index.SimilarityIndex` keeps one across its
whole add/remove lifetime — grow the table monotonically while every
previously encoded artifact stays valid.  Keys may be any hashable value;
the join uses pebble-key tuples and (where useful) raw token strings.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, List, Optional, Sequence

__all__ = ["Vocabulary"]


class Vocabulary:
    """A bijective ``key <-> dense int id`` table, append-only.

    ``encode`` interns (assigning the next id to unseen keys);
    ``id_of`` looks up without growing, returning ``None`` for unknown
    keys — the probe-side encoding of a join uses it so a probe-only key
    (which can never match an indexed record) maps to a sentinel instead
    of widening the indexed id space.
    """

    __slots__ = ("_ids", "_keys")

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self._ids: dict = {}
        self._keys: List[Hashable] = []
        for key in keys:
            self.encode(key)

    # ------------------------------------------------------------------ #
    # encoding
    # ------------------------------------------------------------------ #
    def encode(self, key: Hashable) -> int:
        """The id of ``key``, interning it (append-only) when unseen."""
        ids = self._ids
        found = ids.get(key)
        if found is None:
            found = len(self._keys)
            ids[key] = found
            self._keys.append(key)
        return found

    def encode_all(self, keys: Iterable[Hashable]) -> List[int]:
        """Encode a key sequence (growing), preserving order and repeats."""
        encode = self.encode
        return [encode(key) for key in keys]

    def id_of(self, key: Hashable) -> Optional[int]:
        """The id of ``key`` without interning; ``None`` when unknown."""
        return self._ids.get(key)

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def decode(self, key_id: int) -> Hashable:
        """The key assigned id ``key_id`` (raises ``IndexError`` if unknown)."""
        if key_id < 0:
            raise IndexError(f"vocabulary ids are non-negative; got {key_id}")
        return self._keys[key_id]

    def decode_all(self, key_ids: Iterable[int]) -> List[Hashable]:
        """Decode an id sequence back to its keys, order and repeats kept."""
        keys = self._keys
        return [keys[key_id] for key_id in key_ids]

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._ids

    def __iter__(self) -> Iterator[Hashable]:
        """The interned keys in id order (id of the i-th yielded key is i)."""
        return iter(self._keys)

    def keys(self) -> Sequence[Hashable]:
        """The interned keys, indexable by id (read-only view by contract)."""
        return self._keys

    # ------------------------------------------------------------------ #
    # pickling: the id assignment is the content, the hash table is derived
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> List[Hashable]:
        return self._keys

    def __setstate__(self, keys: List[Hashable]) -> None:
        self._keys = keys
        self._ids = {key: key_id for key_id, key in enumerate(keys)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary(size={len(self._keys)})"
