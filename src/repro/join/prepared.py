"""Reusable prepared collections: cached pebbles, orders, and signatures.

Every stage of the pebble join pipeline re-derives expensive per-record
artifacts from scratch in the naive formulation: building the global order
generates every record's pebbles, signing generates them again, and the
τ-recommendation of Section 4 used to re-generate and re-sign samples on
every Monte-Carlo iteration.  :class:`PreparedCollection` caches the three
layers explicitly:

1. **Pebbles** (``segments`` and ``pebbles`` per record) — computed once
   per record, independent of θ/τ/method; signing derives the record's
   ``MP(S)`` from its segments with a linear DP.
2. **Global orders** — one :class:`~repro.join.global_order.GlobalOrder` per
   ordering strategy, built in one constructor call from the cached
   pebbles (:func:`build_shared_order` combines several prepared
   collections into one corpus-wide order for two-collection joins).
   Orders are immutable values that compare and hash by (strategy,
   frequency table).
3. **Signatures** — one signed-record list per ``(order, θ, τ, method)``
   key, so repeated joins, the τ-recommender, and the final
   ``tau="auto"`` join all share a single full signing.  The order is
   part of the key by value: a content-equal order rebuilt later (a warm
   store run's shared order, say) finds the same entry.

A prepared collection is bound to one :class:`~repro.core.measures.MeasureConfig`
(pebbles depend on the knowledge sources and gram length); engines check the
binding by *equality* (configs compare by content) before reusing it, so a
collection that crossed a process boundary keeps working.

Prepared collections are picklable by construction — records, segments,
pebbles, global orders, signatures, and cached verification sides all ship
by value (see :meth:`PreparedCollection.__getstate__`) — which is what lets
the process-pool join driver of :mod:`repro.join.parallel` send shards of
prepared state to worker processes.
"""

from __future__ import annotations

import weakref
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.graph import GraphSide
from ..core.measures import MeasureConfig
from ..core.segments import Segment
from ..records import Record, RecordCollection
from .flat import FlatJoinState
from .global_order import GlobalOrder
from .pebbles import Pebble, generate_pebbles
from .signatures import SignedRecord, sign_record

__all__ = ["PreparedCollection", "PreparedRecord", "build_shared_order"]

#: Cap on memoized flat kernel states (each holds CSR copies of a signing).
_FLAT_MEMO_LIMIT = 8


class PreparedRecord:
    """One record's cached signing inputs (pebbles are θ/τ-independent).

    ``graph_side`` holds the record's lazily built verification state (the
    one-sided conflict-graph material of
    :class:`~repro.core.graph.GraphSide`); it reuses the already enumerated
    segments, so verifying the record against many candidates re-derives
    nothing per pair.

    ``pebbles`` is ``None`` on a pebble-free transfer copy (see
    :meth:`PreparedCollection.transfer_copy`): such records can still serve
    verification (segments and graph sides survive) but can never be signed
    or contributed to an order.
    """

    __slots__ = ("record", "segments", "pebbles", "graph_side")

    def __init__(
        self,
        record: Record,
        segments: Sequence[Segment],
        pebbles: Optional[Sequence[Pebble]],
    ) -> None:
        self.record = record
        self.segments = segments
        self.pebbles = pebbles
        self.graph_side: Optional[GraphSide] = None


#: Cache key for one signing: the order (by value) plus (θ, τ, method).
_SignatureKey = Tuple[GlobalOrder, float, int, str]


class PreparedCollection:
    """A record collection with cached pebbles, orders, and signatures.

    Use :meth:`prepare` (or ``PebbleJoin.prepare`` / ``UnifiedJoin.prepare``)
    to build one, then pass it anywhere a plain
    :class:`~repro.records.RecordCollection` is accepted by the join engines.
    The container protocol delegates to the underlying collection, so
    ``prepared[record_id]`` and ``len(prepared)`` behave identically.
    """

    def __init__(self, collection: RecordCollection, config: MeasureConfig) -> None:
        self.collection = collection
        self.config = config
        self.content_version = 0
        self._prepared: List[PreparedRecord] = [
            self._prepare_record(record) for record in collection
        ]
        self._orders: Dict[str, GlobalOrder] = {}
        self._signatures: Dict[_SignatureKey, List[SignedRecord]] = {}
        # Partner collections are held weakly so a long-lived collection
        # joined against many short-lived partners does not pin them (their
        # shared orders die with them; our own signatures under those orders
        # can be released with clear_caches()).
        self._shared_orders: Dict[
            Tuple[int, str], Tuple["weakref.ref[PreparedCollection]", GlobalOrder]
        ] = {}
        # Identity-keyed memo of encoded flat kernel states per signed-side
        # pair (see flat_state()): strong references to the signed lists
        # guard id reuse; cleared with every cache clear / content bump.
        self._flat_states: Dict[
            Tuple[int, int, bool], Tuple[object, object, FlatJoinState]
        ] = {}
        # True only on pebble-free transfer copies (see transfer_copy()).
        self._pebble_free = False

    @classmethod
    def prepare(cls, collection: RecordCollection, config: MeasureConfig) -> "PreparedCollection":
        """Prepare a collection (generates every record's pebbles once)."""
        return cls(collection, config)

    # ------------------------------------------------------------------ #
    # transfer copies (worker payloads)
    # ------------------------------------------------------------------ #
    def transfer_copy(self) -> "PreparedCollection":
        """A shallow, pebble-free payload view of this collection.

        The copy shares the records, segments, and any already-built graph
        sides with the original (workers need those for verification) and
        drops everything a worker does not read: cached orders, shared
        orders, every signature-cache entry, and the per-record pebble lists
        — the dominant payload term, since workers receive the filter stage
        as flat integer arrays and never sign.  A pebble-free copy refuses
        to sign or contribute to an order (loudly, via
        :meth:`_require_pebbles`).  The caller's collection is never mutated.
        """
        clone = PreparedCollection.__new__(PreparedCollection)
        clone.collection = self.collection
        clone.config = self.config
        slim: List[PreparedRecord] = []
        for prepared in self._prepared:
            record = PreparedRecord(prepared.record, prepared.segments, None)
            record.graph_side = prepared.graph_side
            slim.append(record)
        clone._prepared = slim
        clone._orders = {}
        clone._signatures = {}
        clone._shared_orders = {}
        clone._flat_states = {}
        clone._pebble_free = True
        clone.content_version = self.content_version
        return clone

    def _require_pebbles(self, operation: str) -> None:
        if self._pebble_free:
            raise RuntimeError(
                f"cannot {operation} on a pebble-free transfer copy: worker "
                "payloads drop the per-record pebble lists (workers only "
                "filter and verify)"
            )

    # ------------------------------------------------------------------ #
    # pickling (process-pool workers receive prepared state by value)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Make the collection picklable for process-pool join workers.

        Two identity-keyed caches are dropped: ``_shared_orders`` holds
        weakrefs (and its partners are not part of this pickle anyway), and
        ``_flat_states`` keys on the ids of signed lists.  Everything else —
        records, pebbles, cached orders, signatures keyed by order value,
        and any already-built graph sides — ships as it is, so a worker
        starts with a warm cache.
        """
        state = dict(self.__dict__)
        state["_shared_orders"] = {}
        state["_flat_states"] = {}
        return state

    def _prepare_record(self, record: Record) -> PreparedRecord:
        segments, pebbles = generate_pebbles(record.tokens, self.config)
        return PreparedRecord(record, segments, pebbles)

    # ------------------------------------------------------------------ #
    # growth (online ingestion)
    # ------------------------------------------------------------------ #
    def extend_with(self, records: Sequence[Record]) -> List[PreparedRecord]:
        """Append new records and prepare them (pebbles, bounds) in place.

        The records must continue the dense id sequence (the underlying
        collection enforces this before anything is added).  Appending
        changes the collection's content, so every derived cache — orders,
        signatures, shared orders — is dropped (the per-record pebbles and
        graph sides of existing records survive untouched), and
        :attr:`content_version` is bumped so holders of content-derived
        state (the store's fingerprint memo) can detect the mutation.
        Returns the newly prepared records.
        """
        self._require_pebbles("extend")
        additions = list(records)
        self.collection.extend(additions)
        prepared = [self._prepare_record(record) for record in additions]
        self._prepared.extend(prepared)
        self.clear_caches()
        self.content_version += 1
        return prepared

    # ------------------------------------------------------------------ #
    # container protocol (delegates to the underlying collection)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.collection)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.collection)

    def __getitem__(self, record_id: int) -> Record:
        return self.collection[record_id]

    def require_config(self, config: MeasureConfig) -> "PreparedCollection":
        """This collection, once it is checked to be bound to ``config``.

        Configs compare by content, so a collection bound to an equal config
        (one that crossed a process boundary, say) qualifies.
        """
        if self.config is not config and self.config != config:
            raise ValueError(
                "the prepared collection is bound to a different MeasureConfig; "
                "prepare it under this config (or an equal one)"
            )
        return self

    @property
    def prepared_records(self) -> Sequence[PreparedRecord]:
        """The cached per-record pebble artifacts, in record-id order."""
        return self._prepared

    def graph_side(self, record_id: int) -> GraphSide:
        """The record's cached verification state, built on first request.

        The side reuses the record's already enumerated segments, so a
        record probed against ``k`` candidates pays its segment, gram-set,
        and overlap bookkeeping once instead of ``k`` times.
        """
        prepared = self._prepared[record_id]
        side = prepared.graph_side
        if side is None:
            side = GraphSide(
                prepared.record.tokens, self.config, segments=prepared.segments
            )
            prepared.graph_side = side
        return side

    # ------------------------------------------------------------------ #
    # orders
    # ------------------------------------------------------------------ #
    def pebble_lists(self) -> Iterator[Sequence[Pebble]]:
        """Every record's cached pebble list, in record-id order.

        This is what a :class:`GlobalOrder` is built from.
        """
        self._require_pebbles("build an order")
        return (prepared.pebbles for prepared in self._prepared)

    def build_order(self, strategy: str = "frequency") -> GlobalOrder:
        """A single-collection global order, cached per strategy."""
        order = self._orders.get(strategy)
        if order is None:
            order = GlobalOrder(strategy, self.pebble_lists())
            self._orders[strategy] = order
        return order

    def shared_order_with(
        self, other: "PreparedCollection", strategy: str = "frequency"
    ) -> GlobalOrder:
        """A corpus-wide order over this collection and ``other``, cached.

        Repeated two-collection joins over the same prepared pair reuse one
        order object instead of counting both corpora again.  The cache is
        mirrored on both collections, so ``a.shared_order_with(b)`` and
        ``b.shared_order_with(a)`` return the same order (pebble frequencies
        are symmetric in the contribution order).
        """
        if other is self:
            return self.build_order(strategy)
        # Identity-guarded cache (`entry[0]() is other` below); the weakref
        # callback purges the key, so a recycled id can never be served.
        entry = self._shared_orders.get((id(other), strategy))  # repro: ignore[id-keyed-container]
        if entry is not None and entry[0]() is other:
            return entry[1]
        order = build_shared_order([self, other], strategy)
        self._store_shared_order(other, strategy, order)
        other._store_shared_order(self, strategy, order)
        return order

    def _store_shared_order(
        self, partner: "PreparedCollection", strategy: str, order: GlobalOrder
    ) -> None:
        """Cache a shared order, auto-purging when the partner dies.

        The weakref callback drops the entry and every signature keyed by
        that order object: once the partner is gone, keeping those signings
        would be a leak.
        """
        # The partner's weakref in the value guards a recycled id.
        key = (id(partner), strategy)  # repro: ignore[id-keyed-container]
        owner_ref = weakref.ref(self)

        def _purge(_dead, owner_ref=owner_ref, key=key, order=order):
            owner = owner_ref()
            if owner is None:
                return
            entry = owner._shared_orders.get(key)
            if entry is not None and entry[1] is order:
                del owner._shared_orders[key]
            stale = [k for k in owner._signatures if k[0] is order]
            for stale_key in stale:
                del owner._signatures[stale_key]

        self._shared_orders[key] = (weakref.ref(partner, _purge), order)

    def clear_caches(self) -> None:
        """Release all cached orders and signatures (pebbles are kept).

        The caches are unbounded by design — one signing per distinct
        (order, θ, τ, method) combination — which is exactly right for a
        bounded set of configurations but accumulates when one long-lived
        collection is joined against an endless stream of partners.  Such
        callers can drop the derived state between partners; re-preparing
        pebbles, the expensive part, is not needed.
        """
        self._orders.clear()
        self._signatures.clear()
        self._shared_orders.clear()
        self._flat_states.clear()

    # ------------------------------------------------------------------ #
    # signatures
    # ------------------------------------------------------------------ #
    def signed(
        self,
        order: GlobalOrder,
        theta: float,
        tau: int,
        method: str,
    ) -> List[SignedRecord]:
        """Sign every record under ``order``, caching per (order, θ, τ, method).

        The order is part of the key by value, so a content-equal order — a
        shared two-collection order rebuilt on a warm store run, say — finds
        the signing cached under its twin.
        """
        key = (order, theta, tau, method)
        signed = self._signatures.get(key)
        if signed is not None:
            return signed
        self._require_pebbles("sign")
        signed = [
            sign_record(
                prepared.record,
                self.config,
                order,
                theta,
                tau=tau,
                method=method,
                segments=prepared.segments,
                pebbles=prepared.pebbles,
            )
            for prepared in self._prepared
        ]
        self._signatures[key] = signed
        return signed

    def flat_state(
        self,
        index_signed: Sequence[SignedRecord],
        probe_signed: Sequence[SignedRecord],
        *,
        postings_ascending: bool,
    ) -> FlatJoinState:
        """The encoded filter-kernel state for a signed side pair, memoized.

        ``index_signed`` must be a signing of *this* collection (it owns the
        memo); ``probe_signed`` may be the same list (self-join) or the
        partner side's signing.  Entries key on the signed lists' identity —
        signed lists are themselves cached per (order, θ, τ, method), so
        repeated joins over one preparation hit without re-encoding — and
        every invalidation path (``extend_with`` content bumps,
        :meth:`clear_caches`) drops the memo wholesale.

        The τ recommender and the join share the memo: both resolve the
        state through ``PebbleJoin._flat_filter_state``, so an
        ``UnifiedJoin(tau="auto")`` join encodes its signed sides once.
        """
        # Strong refs to both lists in the value guard against id reuse.
        key = (id(index_signed), id(probe_signed), postings_ascending)  # repro: ignore[id-keyed-container]
        entry = self._flat_states.get(key)
        if (
            entry is not None
            and entry[0] is index_signed
            and entry[1] is probe_signed
        ):
            return entry[2]
        state = FlatJoinState.from_signed_sides(
            index_signed, probe_signed, postings_ascending=postings_ascending
        )
        if len(self._flat_states) >= _FLAT_MEMO_LIMIT:
            self._flat_states.clear()
        self._flat_states[key] = (index_signed, probe_signed, state)
        return state

    @property
    def cached_signature_count(self) -> int:
        """Number of distinct (order, θ, τ, method) signings held in cache."""
        return len(self._signatures)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PreparedCollection(records={len(self)}, orders={len(self._orders)}, "
            f"signings={len(self._signatures)})"
        )


def build_shared_order(
    prepared: Sequence[PreparedCollection], strategy: str = "frequency"
) -> GlobalOrder:
    """Build one corpus-wide order over several prepared collections.

    Duplicate entries (e.g. the same prepared collection passed twice for a
    self-join) are contributed only once, matching how
    ``PebbleJoin.build_order`` treats a self-join.
    """
    contributed: List[PreparedCollection] = []
    for collection in prepared:
        if not any(collection is existing for existing in contributed):
            contributed.append(collection)
    return GlobalOrder(
        strategy,
        chain.from_iterable(collection.pebble_lists() for collection in contributed),
    )
