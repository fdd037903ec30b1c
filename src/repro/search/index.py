"""The online similarity-search index: single-record queries over a corpus.

Every other path in the framework is batch-shaped — prepare two whole
collections, join once, exit.  :class:`SimilarityIndex` is the serving
counterpart: a long-lived, queryable object wrapping a prepared corpus, its
frozen global order, and the per-record signatures selected under it (each
also kept as one vocabulary-encoded row of key ids), so "which records
match this one record, right now?" is answered by signing *one* probe and
streaming it through the members' flat postings — not by re-running a
join.

Query semantics
---------------
The index is built at a base ``(θ, τ, method)``; its member signatures
guarantee that any pair with unified similarity ≥ θ shares ≥ τ signature
pebbles.  A query may therefore *tighten* but never loosen the contract:
``query(probe, theta=θ', tau=τ')`` serves any θ' ≥ θ and τ' ≤ τ.  Results
are **bit-identical** to the corresponding batch join restricted to the
probe record — the same filter counters, the same tiered verification
cascade (:meth:`~repro.join.verification.UnifiedVerifier.verify_prepared_pair`),
the same :class:`~repro.join.verification.VerificationStats` — which the
randomized equivalence tests enforce across measures, self-join corpora,
and mutation histories.  :meth:`query_topk` additionally orders candidates
by the pebble-derived :func:`~repro.core.graph.usim_upper_bound` and stops
verifying once the k-th best verified similarity strictly beats every
remaining bound (:func:`~repro.core.topk.bounded_top_k` — exact, ties
included).

Incremental maintenance
-----------------------
:meth:`add` and :meth:`remove` update the prepared state, signatures, and
encoded rows in place.  The flat postings every query probes are a pure
function of the live members' rows: the first query of each serving epoch
derives them with the same counting sort a batch join uses, so nothing is
maintained per key.  Correctness never depends on the order being "fresh":
signatures are valid under *any* fixed total key order as long as every
member and every probe use the same one, so mutations sign new records
under the frozen order and stay exact.  What drifts is *selectivity* —
frequencies move as the corpus churns — so the index tracks staleness
(mutations since the order was last built over the live corpus) and, past
``drift_threshold``, re-orders: it rebuilds the order over the live corpus
and re-signs and re-encodes every live member, exactly as :meth:`rebuild`
does.  Re-signing only the members whose pebble sort moved would save
little, because a new order moves nearly every member's sort.

Persistence
-----------
:meth:`snapshot` writes the index (prepared corpus, order, and one prefix
length per member) into a :class:`~repro.store.PreparedStore` keyed by a
content fingerprint; :meth:`load` brings it back in one validated file
read and re-derives signatures and rows from those, so a service restart
costs an unpickle, not a corpus preparation.
"""

from __future__ import annotations

import hashlib
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.graph import GraphSide, usim_upper_bound
from ..core.measures import MeasureConfig
from ..core.tokenizer import default_tokenizer
from ..core.topk import bounded_top_k
from ..core.vocab import Vocabulary
from ..join.flat import FlatPostings, FlatSignatures, FlatJoinState
from ..join.global_order import GlobalOrder
from ..join.kernels import probe_span, resolve_kernel
from ..join.pebbles import generate_pebbles
from ..join.prepared import PreparedCollection, PreparedRecord
from ..join.signatures import SignatureMethod, SignedRecord, sign_record
from ..join.supervision import ExecutionReport, SupervisorPolicy
from ..join.verification import UnifiedVerifier, VerificationStats, VerifiedPair
from ..records import Record, RecordCollection
from ..telemetry import Telemetry, resolve_telemetry

__all__ = [
    "ConcurrentMutationError",
    "QueryMatch",
    "QueryResult",
    "BatchQueryResult",
    "SimilarityIndex",
]


class ConcurrentMutationError(RuntimeError):
    """The index was mutated while another operation was in flight.

    :class:`SimilarityIndex` is not a thread-safe object; it *is* a
    long-lived serving object, so silent interleaving of ``add``/``remove``
    with an in-flight query (or with each other) would corrupt members or
    return a row of no coherent corpus state.  Instead of corrupting
    silently, mutations take a non-blocking guard and queries snapshot the
    serving epoch — either side detecting an overlap raises this error,
    leaving the index itself consistent.
    """

#: Anything a query accepts as the probe: raw text, a token sequence, or a
#: ready-made record (its id is ignored — probes are external by definition).
Probe = Union[str, Sequence[str], Record]


@dataclass(frozen=True)
class QueryMatch:
    """One query answer: a live member id and its verified similarity."""

    record_id: int
    similarity: float


@dataclass
class QueryResult:
    """One query's answers plus its cost profile.

    ``matches`` are in candidate-emission order for threshold queries and
    in ``(-similarity, record_id)`` order for top-k queries.
    ``verification`` is the query's own cascade-counter delta (the same
    counters also accumulate on the index's verifier); ``bound_skipped``
    counts candidates the top-k early stop never had to verify.
    """

    matches: List[QueryMatch]
    candidate_count: int
    processed_pairs: int
    verification: VerificationStats
    seconds: float
    bound_skipped: int = 0

    def ids(self) -> List[int]:
        """The matched member ids, in result order."""
        return [match.record_id for match in self.matches]

    def __len__(self) -> int:
        return len(self.matches)


@dataclass
class BatchQueryResult:
    """The answers of one :meth:`SimilarityIndex.query_batch` call.

    ``pairs`` holds one :class:`~repro.join.verification.VerifiedPair` per
    match with ``left_id`` the probe's position in the query batch and
    ``right_id`` the member id, concatenated probe-major — exactly the
    serial per-probe emission order at every executor and worker count.

    ``execution`` is the supervisor's :class:`~repro.join.supervision.
    ExecutionReport` for ``executor="process"`` calls (all-zero when the
    run was clean) and ``None`` on the serial path.
    """

    pairs: List[VerifiedPair]
    probe_count: int
    candidate_count: int
    processed_pairs: int
    verification: VerificationStats
    seconds: float
    execution: Optional[ExecutionReport] = None

    def by_probe(self) -> Dict[int, List[QueryMatch]]:
        """Group the pairs into per-probe match lists."""
        grouped: Dict[int, List[QueryMatch]] = {}
        for pair in self.pairs:
            grouped.setdefault(pair.left_id, []).append(
                QueryMatch(pair.right_id, pair.similarity)
            )
        return grouped

    def __len__(self) -> int:
        return len(self.pairs)


class _ProbeState:
    """One probe's signing and verification material (built per query)."""

    __slots__ = ("record", "segments", "signed", "side")

    def __init__(self, index: "SimilarityIndex", record: Record) -> None:
        config = index.config
        segments, pebbles = generate_pebbles(record.tokens, config)
        self.record = record
        self.segments = segments
        self.signed = sign_record(
            record,
            config,
            index._order,
            index.theta,
            tau=index.tau,
            method=index.method,
            segments=segments,
            pebbles=pebbles,
        )
        self.side = GraphSide(record.tokens, config, segments=segments)


class SimilarityIndex:
    """A long-lived, incrementally maintained similarity-search index.

    Parameters
    ----------
    collection:
        The corpus: a raw :class:`~repro.records.RecordCollection` or an
        already prepared one.  The index takes ownership of the prepared
        state — it is mutated in place by :meth:`add` / :meth:`remove`.
    config:
        The measure configuration; defaults to a prepared collection's
        bound config (required for raw collections).
    theta, tau, method:
        The base signing contract.  Queries may raise θ and lower τ but
        never the reverse (the signatures would stop guaranteeing recall).
    drift_threshold:
        Mutated-fraction of the live corpus (since the order was last
        built) that triggers the lazy re-order/re-sign; ``None`` disables
        automatic re-ordering (:meth:`rebuild` remains available).  Purely
        a performance knob: answers are identical at any threshold.
    adaptive_verification:
        Enable the verifier's adaptive tier controller (see
        :class:`~repro.join.verification.UnifiedVerifier`): at high θ the
        lower-bound tier rarely clears the candidates that survive the
        maxima bound, and a long-lived serving index pays it on each of
        them in every query — adaptivity sheds it after the first window.
        Answers are identical either way; only the per-tier counters (and
        latency) change.
    kernel:
        Filter-kernel selection for every probe — single queries, top-k,
        member queries, serial and process batch queries: ``"auto"`` (the
        vectorized numpy kernel when numpy is importable, else the
        pure-Python loop), ``"numpy"``, or ``"python"``.  Bit-identical
        answers either way (see :mod:`repro.join.kernels`).
    telemetry:
        A :class:`~repro.telemetry.Telemetry` bundle queries and writes
        report to — latency histograms, candidate/verified counters, the
        staleness gauge, epoch rejections, batch-query trace spans, and
        the add/remove/re-order counters and re-order histogram (defaults
        to the process-wide bundle; see ``docs/observability.md``).
    """

    def __init__(
        self,
        collection: Union[RecordCollection, PreparedCollection],
        config: Optional[MeasureConfig] = None,
        *,
        theta: float = 0.8,
        tau: int = 1,
        method: str = SignatureMethod.AU_DP,
        approximation_t: float = 4.0,
        order_strategy: str = "frequency",
        drift_threshold: Optional[float] = 0.25,
        adaptive_verification: bool = False,
        kernel: str = "auto",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        if tau < 1:
            raise ValueError("tau must be a positive integer")
        SignatureMethod.validate(method)
        if method == SignatureMethod.U_FILTER and tau > 1:
            raise ValueError(
                "the U-Filter method implies tau=1; got "
                f"tau={tau} — pass tau=1 or use an AU-Filter method"
            )
        if drift_threshold is not None and drift_threshold <= 0.0:
            raise ValueError("drift_threshold must be positive (or None)")
        if isinstance(collection, PreparedCollection):
            if config is not None and config != collection.config:
                raise ValueError(
                    "the prepared collection is bound to a different "
                    "MeasureConfig than the one supplied"
                )
            prepared = collection
            config = collection.config
        else:
            if config is None:
                raise ValueError("a raw collection needs an explicit config")
            prepared = PreparedCollection.prepare(collection, config)
        self.prepared = prepared
        self.config = config
        self.theta = theta
        self.tau = tau
        self.method = method
        self.approximation_t = approximation_t
        self.order_strategy = order_strategy
        self.drift_threshold = drift_threshold
        self.adaptive_verification = adaptive_verification
        resolve_kernel(kernel)  # validate eagerly: typos fail at construction
        self.kernel = kernel
        # Stored raw and resolved lazily: a pickled index must not drag a
        # telemetry bundle (and its collected spans) across processes.
        self._telemetry = telemetry
        self.verifier = UnifiedVerifier(
            config, theta, t=approximation_t, adaptive=adaptive_verification
        )

        self._live: List[bool] = [True] * len(prepared)
        self._signed: List[Optional[SignedRecord]] = [None] * len(prepared)
        # Each live member's signature key sequence encoded against the
        # persistent vocabulary (``None`` for tombstones); the per-epoch
        # flat postings are derived from these rows.
        self._rows: List[Optional[array]] = [None] * len(prepared)
        self._order = GlobalOrder(order_strategy)
        self._mutations_since_order = 0
        self._order_live_basis = 0
        self.reorder_count = 0
        self.resigned_records = 0
        # Serving epoch: bumped by every mutation of the member side (add,
        # remove, re-order, rebuild) so derived serving state — the memoised
        # process-pool plan views — can invalidate without re-deriving.
        self._epoch = 0
        self._plan_cache: Optional[Tuple[int, PreparedCollection]] = None
        # Per-epoch flat postings over the live rows: the filter kernel
        # every serial query probes through (the process-pool plan reuses
        # them), derived again only after a mutation bumps the epoch.
        self._flat_cache: Optional[Tuple[int, FlatPostings]] = None
        # The persistent integer vocabulary: append-only across the whole
        # add/remove lifetime, so every flat artifact derived at any epoch
        # keeps valid ids (removed keys keep theirs and simply go postless).
        self._vocab = Vocabulary()
        # Warm process pool for batch queries; created lazily, closed with
        # the index (see close()).
        self._warm_pool = None
        # Re-entrancy guard: mutations hold this (non-blocking) so an
        # overlapping mutation fails loudly instead of corrupting members.
        self._mutation_lock = threading.Lock()
        self._build_from_prepared()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _sign_member(self, prepared: PreparedRecord) -> SignedRecord:
        return sign_record(
            prepared.record,
            self.config,
            self._order,
            self.theta,
            tau=self.tau,
            method=self.method,
            segments=prepared.segments,
            pebbles=prepared.pebbles,
            min_partitions=prepared.min_partitions,
        )

    def _encode_row(self, signed: SignedRecord) -> array:
        """A member's signature key sequence as persistent vocabulary ids."""
        encode = self._vocab.encode
        return array("i", [encode(key) for key in signed.signature_key_sequence])

    def _build_from_prepared(self) -> None:
        """(Re)derive order, signatures, and rows over the live corpus.

        Every build after the constructor's is a re-order — a drift
        re-order or :meth:`rebuild` — and is counted and timed here: in
        ``reorder_count`` and ``resigned_records``, and in the
        ``search.reorders`` counter and ``search.reorder_seconds`` histogram.
        """
        start = time.perf_counter()
        order = GlobalOrder(self.order_strategy)
        records = self.prepared.prepared_records
        for record_id, prepared in enumerate(records):
            if self._live[record_id]:
                order.add_record_pebbles(prepared.pebbles)
        self._order = order
        signed_count = 0
        for record_id, prepared in enumerate(records):
            if not self._live[record_id]:
                self._signed[record_id] = self._rows[record_id] = None
                continue
            signed = self._sign_member(prepared)
            self._signed[record_id] = signed
            self._rows[record_id] = self._encode_row(signed)
            signed_count += 1
        self._mutations_since_order = 0
        self._order_live_basis = self.live_count
        if self._epoch:  # epoch 0 is the constructor's first signing
            self.reorder_count += 1
            self.resigned_records += signed_count
            metrics = self.telemetry.metrics
            metrics.counter("search.reorders").add()
            metrics.histogram("search.reorder_seconds").observe(
                time.perf_counter() - start
            )
        self._epoch += 1

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def live_count(self) -> int:
        """Number of records currently served (tombstones excluded)."""
        return sum(self._live)

    def __len__(self) -> int:
        return self.live_count

    def __contains__(self, record_id: int) -> bool:
        return 0 <= record_id < len(self._live) and self._live[record_id]

    def live_ids(self) -> List[int]:
        """The served member ids, ascending (ids are never reused)."""
        return [record_id for record_id, live in enumerate(self._live) if live]

    @property
    def staleness(self) -> float:
        """Mutated fraction of the live corpus since the last re-order."""
        return self._mutations_since_order / max(self._order_live_basis, 1)

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry bundle queries report to (module default if unset)."""
        return resolve_telemetry(self._telemetry)

    @property
    def stats(self) -> VerificationStats:
        """Cumulative cascade counters across every query served."""
        return self.verifier.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimilarityIndex(live={self.live_count}, theta={self.theta}, "
            f"tau={self.tau}, method={self.method!r}, "
            f"staleness={self.staleness:.2f})"
        )

    # ------------------------------------------------------------------ #
    # mutation / read-consistency guards
    # ------------------------------------------------------------------ #
    @contextmanager
    def _mutating(self):
        """Exclusive, non-blocking hold for one mutation entry point."""
        if not self._mutation_lock.acquire(blocking=False):
            raise ConcurrentMutationError(
                "another mutation of this SimilarityIndex is already in "
                "flight; add/remove/rebuild must not overlap"
            )
        try:
            yield
        finally:
            self._mutation_lock.release()

    def _record_query_metrics(self, result) -> None:
        """Fold one answered query into the metrics registry.

        ``search.verified`` counts candidates that entered the verification
        cascade (the stats block's ``candidates``), and the tier counters
        add the block's own, once per query; the staleness gauge tracks
        drift so a long-serving index shows when re-ordering is due.
        """
        metrics = self.telemetry.metrics
        verification = result.verification
        metrics.counter("search.queries").add()
        metrics.counter("search.candidates").add(result.candidate_count)
        metrics.counter("search.verified").add(verification.candidates)
        metrics.counter("search.upper_bound_prunes").add(verification.upper_bound_prunes)
        metrics.counter("search.lower_bound_skips").add(verification.lower_bound_skips)
        metrics.counter("search.graphs_built").add(verification.graphs_built)
        metrics.histogram("search.query_seconds").observe(result.seconds)
        metrics.gauge("search.staleness").set(self.staleness)

    def _begin_read(self) -> int:
        return self._epoch

    def _end_read(self, epoch: int) -> None:
        if self._epoch != epoch:
            self.telemetry.metrics.counter("search.epoch_rejections").add()
            raise ConcurrentMutationError(
                "the index was mutated while a query was in flight; the "
                "query's answer would span two corpus states"
            )

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def _resolve_query(self, theta: Optional[float], tau: Optional[int]) -> Tuple[float, int]:
        theta_q = self.theta if theta is None else float(theta)
        # Written so that NaN fails both comparisons.
        if not theta_q <= 1.0:
            raise ValueError(f"theta must be in [0, 1]; got theta={theta_q}")
        if not theta_q >= self.theta:
            raise ValueError(
                f"the index is signed for theta >= {self.theta}; its "
                f"signatures cannot guarantee recall at theta={theta_q} — "
                "build an index at the lower threshold"
            )
        tau_q = self.tau if tau is None else int(tau)
        if not 1 <= tau_q <= self.tau:
            raise ValueError(
                f"query tau must be in [1, {self.tau}] (the index's signing "
                f"tau); got {tau_q}"
            )
        return theta_q, tau_q

    def _probe_record(self, probe: Probe) -> Record:
        if isinstance(probe, Record):
            return Record(record_id=0, text=probe.text, tokens=probe.tokens)
        if isinstance(probe, str):
            return Record(
                record_id=0,
                text=probe,
                tokens=tuple(default_tokenizer.tokenize(probe)),
            )
        tokens = tuple(probe)
        return Record(record_id=0, text=" ".join(tokens), tokens=tokens)

    def _member_side(self, record_id: int) -> GraphSide:
        return self.prepared.graph_side(record_id)

    def _flat_postings(self) -> FlatPostings:
        """The live members' flat postings, memoised per epoch.

        A pure function of the live rows: the counting sort of
        :meth:`~repro.join.flat.FlatPostings.from_flat` over the rows in
        ascending id order, so every posting list is ascending.  Every
        serial probe (and the process-pool plan) runs the filter kernel
        over it; the persistent vocabulary keeps ids stable across epochs
        and any mutation bumps the epoch and invalidates.
        """
        cache = self._flat_cache
        if cache is not None and cache[0] == self._epoch:
            return cache[1]
        live = [record_id for record_id, row in enumerate(self._rows) if row is not None]
        members = FlatSignatures.from_rows(
            self._vocab, live, [self._rows[record_id] for record_id in live]
        )
        postings = FlatPostings.from_flat(members, len(self._vocab))
        self._flat_cache = (self._epoch, postings)
        return postings

    def _probe_members(
        self, signed_probes: Sequence[SignedRecord], tau_q: int
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Stream signed probes through the member postings (kernel layer).

        Probes encode non-growing against the persistent vocabulary
        (probe-only keys become the no-postings sentinel), and candidates
        come back probe-major as ``(probe_id, member_id)``.
        """
        postings = self._flat_postings()
        probe_flat = FlatSignatures.from_signed(
            signed_probes, self._vocab, grow=False
        )
        return probe_span(
            postings,
            probe_flat,
            0,
            len(probe_flat),
            tau_q,
            probe_is_left=True,
            exclude_self_pairs=False,
            postings_ascending=True,
            # Member ids are dense in the underlying collection, so this
            # bounds every posted id without scanning the data.
            counts_size=len(self.prepared),
            kernel=self.kernel,
        )

    def _finish_stats(self, local: VerificationStats) -> None:
        self.verifier.stats.merge(local)
        self.verifier.verified_count += local.candidates

    def _verify_against_member(
        self,
        probe_record: Record,
        probe_side: GraphSide,
        member_id: int,
        local: VerificationStats,
        *,
        member_is_left: bool,
    ) -> Optional[float]:
        """One probe/member pair through the cascade, in join orientation.

        ``member_is_left`` mirrors the batch reference exactly: a self-join
        reports pairs as ``(lower_id, higher_id)``, so a member query
        orients each pair by id; an external probe plays the left role of a
        two-collection join.  Orientation is semantically irrelevant when
        the measure is symmetric, but bit-identity is the contract, so the
        index never relies on that.
        """
        member_record = self.prepared[member_id]
        member_side = self._member_side(member_id)
        if member_is_left:
            pair = self.verifier.verify_prepared_pair(
                member_record, probe_record, member_side, probe_side, local
            )
        else:
            pair = self.verifier.verify_prepared_pair(
                probe_record, member_record, probe_side, member_side, local
            )
        return None if pair is None else pair.similarity

    def query(
        self,
        probe: Probe,
        *,
        theta: Optional[float] = None,
        tau: Optional[int] = None,
    ) -> QueryResult:
        """All live members with unified similarity ≥ θ to an external probe.

        Equivalent to joining ``{probe}`` against the live corpus at
        ``(theta, tau)`` and reading the probe's row — same pairs, same
        similarities, same cascade counters — for the price of signing one
        record and probing the standing postings.
        """
        theta_q, tau_q = self._resolve_query(theta, tau)
        start = time.perf_counter()
        epoch = self._begin_read()
        state = _ProbeState(self, self._probe_record(probe))
        candidates, processed = self._probe_members([state.signed], tau_q)
        partners = [member_id for _, member_id in candidates]
        local = VerificationStats()
        matches: List[QueryMatch] = []
        for member_id in partners:
            similarity = self._verify_against_member(
                state.record, state.side, member_id, local, member_is_left=False
            )
            if similarity is not None and similarity >= theta_q:
                matches.append(QueryMatch(member_id, similarity))
        self._end_read(epoch)
        self._finish_stats(local)
        result = QueryResult(
            matches=matches,
            candidate_count=len(partners),
            processed_pairs=processed,
            verification=local,
            seconds=time.perf_counter() - start,
        )
        self._record_query_metrics(result)
        return result

    def query_member(
        self,
        record_id: int,
        *,
        theta: Optional[float] = None,
        tau: Optional[int] = None,
    ) -> QueryResult:
        """All live partners of an indexed member (its self-join row).

        Uses the member's stored signature — no signing at all — and
        orients every verified pair ``(min_id, max_id)`` exactly as the
        batch self-join does, so the returned similarities are the member's
        row of the full self-join, bit for bit.
        """
        if record_id not in self:
            raise KeyError(f"record {record_id} is not live in this index")
        theta_q, tau_q = self._resolve_query(theta, tau)
        start = time.perf_counter()
        epoch = self._begin_read()
        signed = self._signed[record_id]
        probe_record = self.prepared[record_id]
        probe_side = self._member_side(record_id)
        candidates, processed = self._probe_members([signed], tau_q)
        partners = [member_id for _, member_id in candidates]
        local = VerificationStats()
        matches: List[QueryMatch] = []
        for member_id in partners:
            if member_id == record_id:
                continue
            similarity = self._verify_against_member(
                probe_record,
                probe_side,
                member_id,
                local,
                member_is_left=member_id < record_id,
            )
            if similarity is not None and similarity >= theta_q:
                matches.append(QueryMatch(member_id, similarity))
        self._end_read(epoch)
        self._finish_stats(local)
        result = QueryResult(
            matches=matches,
            candidate_count=sum(1 for member in partners if member != record_id),
            processed_pairs=processed,
            verification=local,
            seconds=time.perf_counter() - start,
        )
        self._record_query_metrics(result)
        return result

    def query_topk(
        self,
        probe: Probe,
        k: int,
        *,
        theta: Optional[float] = None,
        tau: Optional[int] = None,
    ) -> QueryResult:
        """The k most similar live members (≥ the θ floor), bound-pruned.

        Candidates are verified in descending
        :func:`~repro.core.graph.usim_upper_bound` order; verification
        stops as soon as the k-th best verified similarity strictly beats
        every remaining bound, so the expensive cascade runs only where it
        can still change the answer.  The result equals the top-k (by
        ``(-similarity, record_id)``) of the corresponding full query —
        exact, ties included.
        """
        theta_q, tau_q = self._resolve_query(theta, tau)
        start = time.perf_counter()
        epoch = self._begin_read()
        state = _ProbeState(self, self._probe_record(probe))
        candidates, processed = self._probe_members([state.signed], tau_q)
        partners = [member_id for _, member_id in candidates]
        config = self.config
        bounds = [
            usim_upper_bound(state.side, self._member_side(member_id), config)
            for member_id in partners
        ]
        local = VerificationStats()

        def evaluate(member_id: int) -> Optional[float]:
            similarity = self._verify_against_member(
                state.record, state.side, member_id, local, member_is_left=False
            )
            if similarity is None or similarity < theta_q:
                return None
            return similarity

        top, evaluated = bounded_top_k(
            partners, bounds, evaluate, k, tie_key=lambda member_id: member_id
        )
        self._end_read(epoch)
        self._finish_stats(local)
        result = QueryResult(
            matches=[QueryMatch(member_id, similarity) for member_id, similarity in top],
            candidate_count=len(partners),
            processed_pairs=processed,
            verification=local,
            seconds=time.perf_counter() - start,
            bound_skipped=len(partners) - evaluated,
        )
        self._record_query_metrics(result)
        return result

    # ------------------------------------------------------------------ #
    # batched querying
    # ------------------------------------------------------------------ #
    def query_batch(
        self,
        probes: Iterable[Probe],
        *,
        theta: Optional[float] = None,
        tau: Optional[int] = None,
        executor: str = "serial",
        workers: Optional[int] = None,
        supervision: Optional[SupervisorPolicy] = None,
    ) -> BatchQueryResult:
        """Answer many probes in one pass (optionally sharded across cores).

        The serial path signs every probe, streams them through the
        postings probe-major, and verifies through the grouped batch
        engine.  ``executor="process"`` ships one flat
        :class:`~repro.join.parallel.ShardPlan` — the epoch's flat postings
        over the index's persistent vocabulary, the signed probes
        vocabulary-encoded as the probe side — to a *warm* worker pool
        (kept alive across calls; see :meth:`close`) and shards the probes
        across it under a
        :class:`~repro.join.supervision.ShardSupervisor` (``supervision``
        tunes the retry/timeout/fallback policy; faults degrade to
        in-parent execution, never to a different answer).  Both executors
        return identical pairs in identical order.
        """
        if executor not in ("serial", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; expected 'serial' or 'process'"
            )
        if executor == "serial" and workers not in (None, 0):
            raise ValueError("the serial executor takes no workers")
        if supervision is not None and executor != "process":
            raise ValueError(
                "supervision policies apply to executor='process' only"
            )
        theta_q, tau_q = self._resolve_query(theta, tau)
        telemetry = self.telemetry
        start = time.perf_counter()
        with telemetry.span("query-batch", executor=executor) as batch_span:
            epoch = self._begin_read()
            records = [self._probe_record(probe) for probe in probes]
            probe_collection = RecordCollection(
                [
                    Record(record_id=position, text=record.text, tokens=record.tokens)
                    for position, record in enumerate(records)
                ]
            )
            probe_prepared = PreparedCollection.prepare(probe_collection, self.config)
            signed_probes = [
                self._sign_member(prepared)
                for prepared in probe_prepared.prepared_records
            ]
            execution: Optional[ExecutionReport] = None
            if executor == "process" and signed_probes:
                (
                    pairs,
                    candidate_count,
                    processed,
                    local,
                    execution,
                ) = self._query_batch_process(
                    probe_prepared, signed_probes, tau_q, workers, supervision
                )
            else:
                candidates, processed = self._probe_members(signed_probes, tau_q)
                candidate_count = len(candidates)
                snapshot = self.verifier.stats.snapshot()
                pairs = self.verifier.verify_batch(
                    candidates, probe_prepared, self.prepared, probe_side="left"
                )
                local = self.verifier.stats.diff(snapshot)
            if theta_q > self.theta:
                pairs = [pair for pair in pairs if pair.similarity >= theta_q]
            self._end_read(epoch)
            batch_span.annotate(
                probes=len(records), pairs=len(pairs), candidates=candidate_count
            )
        result = BatchQueryResult(
            pairs=pairs,
            probe_count=len(records),
            candidate_count=candidate_count,
            processed_pairs=processed,
            verification=local,
            seconds=time.perf_counter() - start,
            execution=execution,
        )
        metrics = telemetry.metrics
        metrics.counter("search.batch_queries").add()
        metrics.counter("search.candidates").add(result.candidate_count)
        metrics.counter("search.verified").add(result.verification.candidates)
        metrics.histogram("search.batch_seconds").observe(result.seconds)
        metrics.gauge("search.staleness").set(self.staleness)
        return result

    def _query_batch_process(
        self,
        probe_prepared: PreparedCollection,
        signed_probes: List[SignedRecord],
        tau_q: int,
        workers: Optional[int],
        supervision: Optional[SupervisorPolicy],
    ) -> Tuple[List[VerifiedPair], int, int, VerificationStats, ExecutionReport]:
        """Shard the probe side of a batch query across warm worker processes.

        The shards run under a :class:`~repro.join.supervision.
        ShardSupervisor` with an in-parent serial runner as the last-resort
        fallback — a killed worker, a hung shard, or a vanished plan
        segment degrades to retries/respawns/serial execution of exactly
        the affected shards, with bit-identical answers either way.
        """
        from ..join.parallel import (
            SHARDS_PER_WORKER,
            ShardPlan,
            _ParentFallback,
            _adopt_failed_attempts,
            _record_execution_metrics,
            _record_worker_events,
            _shard_spans,
            _verifier_kwargs,
        )
        from ..join.supervision import ShardSupervisor

        postings, right_transfer = self._member_plan_state()
        probe_flat = FlatSignatures.from_signed(
            signed_probes, self._vocab, grow=False
        )
        plan = ShardPlan(
            config=self.config,
            threshold=self.theta,
            requirement=tau_q,
            verifier_kwargs=_verifier_kwargs(self.verifier),
            left_prep=probe_prepared.transfer_copy(),
            right_prep=right_transfer,
            probe_is_left=True,
            exclude_self_pairs=False,
            flat=FlatJoinState(
                self._vocab,
                postings,
                probe_flat,
                postings_ascending=True,
                # Member ids are dense in the underlying collection, so
                # this bounds every posted id without scanning the data.
                counts_size=len(self.prepared),
            ),
            kernel=self.kernel,
        )
        pool = self._warm_join_pool(workers)
        total = len(signed_probes)
        spans = _shard_spans(
            total, max(1, ceil(total / max(pool.workers * SHARDS_PER_WORKER, 1)))
        )
        telemetry = self.telemetry
        pairs: List[VerifiedPair] = []
        merged = VerificationStats()
        candidate_count = processed = 0
        manager = pool.session_manager(plan)
        supervisor = ShardSupervisor(
            manager, supervision, _ParentFallback(plan, telemetry.tracer)
        )
        base = len(supervisor.report.attempts)
        try:
            with telemetry.span("pooled-stage", workers=pool.workers):
                for shard in supervisor.run(spans):
                    pairs.extend(shard.pairs)
                    merged.merge(shard.verification)
                    candidate_count += shard.candidate_count
                    processed += shard.processed_pairs
                    telemetry.tracer.adopt(shard.spans)
                    _record_worker_events(telemetry.metrics, shard.spans)
                _adopt_failed_attempts(telemetry, supervisor.report, spans, base)
        finally:
            manager.close()
        _record_execution_metrics(telemetry.metrics, supervisor.report)
        self._finish_stats(merged)
        return pairs, candidate_count, processed, merged, supervisor.report

    def _member_plan_state(self) -> Tuple[FlatPostings, PreparedCollection]:
        """The member side of a process-pool plan, memoised per epoch.

        The flat postings are shared with the serial query path (see
        :meth:`_flat_postings`); the pebble-free transfer copy of the
        corpus is built only for process batch queries — serial queries
        never pay for it.  Both only change when the member side does
        (add/remove/re-order/rebuild, each bumping the epoch), so a
        serving index answering many batch queries builds them once, not
        per call.  Member signatures themselves never ship: the postings
        array already encodes everything the filter stage reads from them.
        """
        postings = self._flat_postings()
        cache = self._plan_cache
        if cache is not None and cache[0] == self._epoch:
            return postings, cache[1]
        right_transfer = self.prepared.transfer_copy()
        self._plan_cache = (self._epoch, right_transfer)
        return postings, right_transfer

    def _warm_join_pool(self, workers: Optional[int]):
        """The lazily started warm pool, resized only on explicit request."""
        from ..join.pool import WarmJoinPool

        pool = self._warm_pool
        if pool is not None and workers is not None and pool.workers != workers:
            pool.close()
            pool = None
        if pool is None:
            pool = WarmJoinPool(workers)
            self._warm_pool = pool
        return pool

    def close(self) -> None:
        """Shut down the warm query pool (idempotent); queries stay usable.

        The next ``executor="process"`` batch query simply starts a fresh
        pool.  Long-lived services should close the index (or use it as a
        context manager) so worker processes don't outlive their work.
        """
        pool, self._warm_pool = self._warm_pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "SimilarityIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def add(self, records: Iterable[Union[str, Record]]) -> List[int]:
        """Ingest new records; returns their assigned (stable) member ids.

        Accepts raw texts (tokenised with the default tokenizer) or
        :class:`~repro.records.Record` objects (their ids are replaced —
        the index numbers its members itself and never reuses an id).  New
        records are prepared, signed under the frozen order (exact — see
        the module docs), and indexed; the mutation counts toward
        staleness and may trigger the lazy re-order.  Raises
        :class:`ConcurrentMutationError` if another mutation is in flight.
        """
        with self._mutating():
            # Ids continue the underlying collection's dense sequence;
            # RecordCollection.extend (via extend_with) enforces the convention.
            base = len(self.prepared)
            additions: List[Record] = []
            for offset, item in enumerate(records):
                if isinstance(item, Record):
                    additions.append(
                        Record(
                            record_id=base + offset,
                            text=item.text,
                            tokens=item.tokens,
                        )
                    )
                else:
                    additions.append(
                        Record(
                            record_id=base + offset,
                            text=item,
                            tokens=tuple(default_tokenizer.tokenize(item)),
                        )
                    )
            if not additions:
                return []
            prepared_new = self.prepared.extend_with(additions)
            for prepared in prepared_new:
                signed = self._sign_member(prepared)
                self._signed.append(signed)
                self._rows.append(self._encode_row(signed))
                self._live.append(True)
            self.telemetry.metrics.counter("search.adds").add(len(additions))
            self._note_mutations(len(additions))
            return [record.record_id for record in additions]

    def remove(self, record_ids: Iterable[int]) -> None:
        """Retire live members; their ids are tombstoned, never reused.

        Raises ``KeyError`` (before any mutation) if any id is unknown,
        already removed, or repeated in the request, and
        :class:`ConcurrentMutationError` if another mutation is in flight.
        """
        with self._mutating():
            ids = list(record_ids)
            seen = set()
            for record_id in ids:
                if record_id not in self or record_id in seen:
                    raise KeyError(f"record {record_id} is not live in this index")
                seen.add(record_id)
            for record_id in ids:
                self._signed[record_id] = self._rows[record_id] = None
                self._live[record_id] = False
            if ids:
                self.telemetry.metrics.counter("search.removes").add(len(ids))
                self._note_mutations(len(ids))

    def _note_mutations(self, count: int) -> None:
        self._epoch += 1
        self._mutations_since_order += count
        if (
            self.drift_threshold is not None
            and self.staleness > self.drift_threshold
        ):
            self._build_from_prepared()

    def rebuild(self) -> None:
        """From-scratch escape hatch: re-derive order, signatures, rows.

        Ids stay stable (tombstones stay tombstones); only the derived
        artifacts are rebuilt, exactly as a fresh index over the live
        corpus would build them.  Raises :class:`ConcurrentMutationError`
        if another mutation is in flight.
        """
        with self._mutating():
            self._build_from_prepared()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def content_fingerprint(self) -> str:
        """A stable content digest of the served state.

        Covers the live members (ids, texts, tokens), the measure
        configuration, and the signing contract (θ, τ, method, order
        strategy, approximation t) — anything else (drift counters, cached
        graph sides) is derived or operational.  Two indexes answering
        identically by construction share a fingerprint.
        """
        hasher = hashlib.sha256()
        hasher.update(b"similarity-index\n")
        hasher.update(
            repr(
                (
                    self.theta,
                    self.tau,
                    self.method,
                    self.order_strategy,
                    self.approximation_t,
                )
            ).encode("utf-8")
        )
        hasher.update(b"config:")
        hasher.update(repr(self.config.content_key()).encode("utf-8"))
        hasher.update(b"live:%d\n" % self.live_count)
        for record_id in self.live_ids():
            record = self.prepared[record_id]
            hasher.update(
                repr((record_id, record.text, record.tokens)).encode("utf-8")
            )
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def snapshot(self, store) -> Path:
        """Persist the whole index into a store; returns the artifact path.

        The artifact carries everything a restarted service needs —
        prepared corpus, frozen order, one signature prefix length per
        member — keyed by :meth:`content_fingerprint` under the store's
        index format version.  See :meth:`~repro.store.PreparedStore.save_index`.
        """
        return store.save_index(self)

    @classmethod
    def load(cls, store, fingerprint: str) -> "SimilarityIndex":
        """Bring a snapshotted index back in one validated file read.

        Raises ``LookupError`` when the store holds no valid artifact for
        the fingerprint (missing, corrupt, tampered, or wrong format).
        """
        index = store.load_index(fingerprint)
        if index is None:
            raise LookupError(
                f"no valid similarity-index artifact for fingerprint "
                f"{fingerprint!r} in {store.root}"
            )
        return index

    # ------------------------------------------------------------------ #
    # pickling (the verifier holds an unpicklable closure)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["verifier"]
        # Derived serving state: cheap to rebuild, pure bloat in a snapshot.
        state["_plan_cache"] = None
        state["_flat_cache"] = None
        state["_warm_pool"] = None
        # Locks don't pickle; each process guards its own mutations.
        state.pop("_mutation_lock", None)
        # Telemetry bundles are per-process: a snapshot must not drag a
        # tracer's collected spans along.  The restored index falls back to
        # its process's default bundle.
        state["_telemetry"] = None
        # A fresh process re-interns its own vocabulary (ids are artifact-
        # local, and every flat artifact is dropped with the plan cache).
        state["_vocab"] = None
        # Flat signature payload: member signatures duplicate the prepared
        # pebbles (sorted) plus one integer, and the rows and postings are a
        # pure function of them — so the snapshot stores only the per-record
        # prefix lengths as one integer array and re-derives the rest
        # exactly on load (sort under the shipped order + stored length; no
        # selection DP runs).  Rows are vocabulary-local and never pickled.
        state["_signed"] = None
        del state["_rows"]
        state["_flat_signature_lengths"] = array(
            "i",
            (
                -1 if signed is None else signed.signature_length
                for signed in self._signed
            ),
        )
        return state

    def __setstate__(self, state: dict) -> None:
        lengths = state.pop("_flat_signature_lengths", None)
        # Snapshots written before the rows carry the dict index's slot.
        state.pop("_index", None)
        self.__dict__.update(state)
        # Fresh per-process verifier; cascade counters do not persist.
        self.verifier = UnifiedVerifier(
            self.config,
            self.theta,
            t=self.approximation_t,
            adaptive=getattr(self, "adaptive_verification", False),
        )
        if getattr(self, "_vocab", None) is None:
            self._vocab = Vocabulary()
        if getattr(self, "_warm_pool", "absent") == "absent":
            self._warm_pool = None
        # Snapshots from before the kernel knob / flat-postings memo.
        self.__dict__.setdefault("kernel", "auto")
        self.__dict__.setdefault("_flat_cache", None)
        self.__dict__.setdefault("_telemetry", None)
        self._mutation_lock = threading.Lock()
        if lengths is not None:
            self._restore_flat_signatures(lengths)
        self._rows = [
            None if signed is None else self._encode_row(signed)
            for signed in self._signed
        ]

    def _restore_flat_signatures(self, lengths: Sequence[int]) -> None:
        """Rebuild member signatures from flat prefix lengths.

        Bit-exact: a live record's signature is its pebbles sorted under
        the (shipped) frozen order, cut at the stored prefix length — the
        same two inputs the original signing reduced to, so no selection
        DP re-runs and no statistics drift.
        """
        records = self.prepared.prepared_records
        signed_list: List[Optional[SignedRecord]] = []
        for record_id, prepared in enumerate(records):
            length = lengths[record_id]
            if not self._live[record_id] or length < 0:
                signed_list.append(None)
                continue
            sorted_pebbles = tuple(self._order.sort_pebbles(prepared.pebbles))
            signed = SignedRecord(
                record=prepared.record,
                segments=tuple(prepared.segments),
                pebbles=sorted_pebbles,
                signature_length=length,
                min_partition_size=prepared.min_partitions,
            )
            signed_list.append(signed)
        self._signed = signed_list
