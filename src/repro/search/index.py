"""The online similarity-search index: single-record queries over a corpus.

Every other path in the framework is batch-shaped — prepare two whole
collections, join once, exit.  :class:`SimilarityIndex` is the serving
counterpart: a long-lived, queryable object wrapping a prepared corpus, its
frozen global order, and one row per live member: the key ids of the
signature selected under that order, encoded against a persistent
vocabulary.  "Which records match this one record, right now?" is answered
by signing *one* probe and streaming it through the members' flat postings
— not by re-running a join.

Query semantics
---------------
The index is built at a base ``(θ, τ, method)``; its member signatures
guarantee that any pair with unified similarity ≥ θ shares ≥ τ signature
pebbles.  A query may therefore *tighten* but never loosen the contract:
``query(probe, theta=θ', tau=τ')`` serves any θ' ≥ θ and τ' ≤ τ.

Every read verifies through the one entry of the verification cascade,
:meth:`~repro.join.verification.UnifiedVerifier.verify_batch`.
:meth:`query_batch` signs its probes and runs them through the join's own
shard loop (:class:`~repro.join.parallel.ShardStream`), on either
executor, so a batch answer is a join by construction; :meth:`query` runs
the same body as a one-probe batch on the serial executor.  A query's
pairs, similarities, candidate and processed counts and
:class:`~repro.join.verification.VerificationStats` therefore equal those
of the two-collection join of ``{probe}`` against the live members signed
under the index's frozen order — ``PebbleJoin(config, θ, tau=τ).join(
{probe}, live, precomputed_order=<the index's order>)`` — which the
randomized equivalence tests enforce across measures and mutation
histories.  The order is part of the contract: a plain join builds its own
order over ``{probe} ∪ live`` and may sign (and so count) differently.
:meth:`query_member` probes with the member's own row and verifies the
partners oriented as the self-join emits them, as two probe groups of the
member.  :meth:`query_topk` bounds before it verifies: the two bound
stages of the verification cascade run once over every candidate at the
query θ, candidates they prune drop out, and the rest queue by their
partition bound; verification stops once the k-th best verified
similarity strictly beats the head's key
(:func:`~repro.core.topk.bounded_top_k` — exact, ties included).  Each
read opens a root span (``query``, ``query-batch``, ``query-member``,
``query-topk``) with ``filter`` and ``verify`` children.

Incremental maintenance
-----------------------
:meth:`add` signs each new record under the frozen order and appends its
row; :meth:`remove` tombstones rows.  Both bump the serving epoch and do
nothing else.  The flat postings every query probes are a pure function of
the live members' rows: the first query of each serving epoch derives them
with the same counting sort a batch join uses, so nothing is maintained per
key.  Correctness never depends on the order being "fresh": signatures are
valid under *any* fixed total key order as long as every member and every
probe use the same one, so a new order changes how selective the filter
is, never what a read returns.  The index therefore never re-orders on its
own — on 2,000-member churn, re-ordering as frequencies drifted lost more
time than its sharper filter saved in every case measured.
:meth:`rebuild` re-derives the order over the live corpus and re-signs
every live member on request.

Persistence
-----------
:meth:`snapshot` writes the index (prepared corpus, order, and one row
length per member) into a :class:`~repro.store.PreparedStore` keyed by a
content fingerprint; :meth:`load` brings it back in one validated file
read and re-derives each row from those — the member's pebbles sorted
under the shipped order, cut at the stored length — so a service restart
costs an unpickle, not a corpus preparation or a signature selection.
"""

from __future__ import annotations

import hashlib
import numbers
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.measures import MeasureConfig
from ..core.tokenizer import default_tokenizer
from ..core.graph import PARTITION_SLACK
from ..core.topk import bounded_top_k, check_top_k
from ..core.vocab import Vocabulary
from ..join.aufilter import _check_process_only, _resolve_executor
from ..join.flat import FlatPostings, FlatSignatures, FlatJoinState
from ..join.bound_kernel import GroupUpperBounds
from ..join.global_order import GlobalOrder
from ..join.kernels import resolve_kernel
from ..join.parallel import ShardPlan, ShardResult, ShardStream, pool_spans
from ..join.prepared import PreparedCollection, PreparedRecord
from ..join.signatures import SignatureMethod, SignedRecord, check_tau, sign_record
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
    ``verification`` holds the query's own cascade counters, exact under
    concurrent reads (they also accumulate on the index's verifier);
    ``bound_skipped`` counts candidates the top-k early stop never had to
    verify.
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
    adaptive_verification:
        Accepted and ignored, for benchmark compatibility: ``perfbench/``
        still passes it.  Every read runs the one verification cascade.
    kernel:
        Filter-kernel selection for every probe — single queries, top-k,
        member queries, serial and process batch queries: ``"auto"`` (the
        vectorized numpy kernel when numpy is importable, else the
        pure-Python loop), ``"numpy"``, or ``"python"``.  Bit-identical
        answers either way (see :mod:`repro.join.kernels`).
    telemetry:
        A :class:`~repro.telemetry.Telemetry` bundle queries and writes
        report to — latency histograms, candidate, verified and tier
        counters, epoch rejections, read trace spans, the add/remove
        counters, and the :meth:`rebuild` counter and histogram (defaults
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
        adaptive_verification: bool = False,
        kernel: str = "auto",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        tau = check_tau(tau)
        SignatureMethod.validate(method)
        if method == SignatureMethod.U_FILTER and tau > 1:
            raise ValueError(
                "the U-Filter method implies tau=1; got "
                f"tau={tau} — pass tau=1 or use an AU-Filter method"
            )
        if isinstance(collection, PreparedCollection):
            if config is not None:
                collection.require_config(config)
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
        resolve_kernel(kernel)  # validate eagerly: typos fail at construction
        self.kernel = kernel
        # Stored raw and resolved lazily: a pickled index must not drag a
        # telemetry bundle (and its collected spans) across processes.
        self._telemetry = telemetry
        self.verifier = UnifiedVerifier(
            config,
            theta,
            t=approximation_t,
            kernel=kernel,
        )

        # Each live member's signature key sequence encoded against the
        # persistent vocabulary, ``None`` for a tombstone: the only member
        # state; liveness and the per-epoch flat postings derive from it.
        self._rows: List[Optional[array]] = []
        self._order = GlobalOrder(order_strategy)
        self.reorder_count = 0
        self.resigned_records = 0
        # Serving epoch: bumped by every mutation of the member side (add,
        # remove, rebuild) so derived serving state — the flat postings —
        # can invalidate without re-deriving.
        self._epoch = 0
        # Per-epoch flat postings over the live rows: the filter kernel
        # every query probes through, serial or process, derived again only
        # after a mutation bumps the epoch.
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
        self._build_from_prepared(range(len(prepared)))

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
        )

    def _encode_keys(self, keys: Iterable) -> array:
        """Pebble keys as persistent vocabulary ids, interning new keys."""
        encode = self._vocab.encode
        return array("i", [encode(key) for key in keys])

    def _member_row(self, prepared: PreparedRecord) -> array:
        """A member's row: its signature key sequence under the frozen order."""
        return self._encode_keys(self._sign_member(prepared).signature_key_sequence)

    def _build_from_prepared(self, live: Sequence[int]) -> None:
        """Derive the order over the ``live`` members and each one's row.

        Every build after the constructor's is a :meth:`rebuild`, counted
        and timed here: in ``reorder_count`` and ``resigned_records``, and
        in the ``search.reorders`` counter and ``search.reorder_seconds``
        histogram.
        """
        start = time.perf_counter()
        records = self.prepared.prepared_records
        self._order = GlobalOrder(
            self.order_strategy, (records[record_id].pebbles for record_id in live)
        )
        rows: List[Optional[array]] = [None] * len(records)
        for record_id in live:
            rows[record_id] = self._member_row(records[record_id])
        self._rows = rows
        if self._epoch:  # epoch 0 is the constructor's first signing
            self.reorder_count += 1
            self.resigned_records += len(live)
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
        return len(self._rows) - self._rows.count(None)

    def __len__(self) -> int:
        return self.live_count

    def __contains__(self, record_id: int) -> bool:
        # A bool is an int to Python, but never a member id.
        return (
            isinstance(record_id, numbers.Integral)
            and not isinstance(record_id, bool)
            and 0 <= record_id < len(self._rows)
            and self._rows[record_id] is not None
        )

    def live_ids(self) -> List[int]:
        """The served member ids, ascending (ids are never reused)."""
        return [record_id for record_id, row in enumerate(self._rows) if row is not None]

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
            f"tau={self.tau}, method={self.method!r})"
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

    def _record_read(
        self,
        result: Union[QueryResult, BatchQueryResult],
        calls: str = "search.queries",
        seconds: str = "search.query_seconds",
    ) -> None:
        """Fold one answered read — single, member, top-k or batch — into
        the metrics registry.

        ``search.verified`` counts candidates that entered the verification
        cascade (the stats block's ``candidates``), and the tier counters
        add the block's own, once per read.
        """
        metrics = self.telemetry.metrics
        verification = result.verification
        metrics.counter(calls).add()
        metrics.counter("search.candidates").add(result.candidate_count)
        metrics.counter("search.verified").add(verification.candidates)
        metrics.counter("search.upper_bound_prunes").add(verification.upper_bound_prunes)
        metrics.counter("search.graphs_built").add(verification.graphs_built)
        metrics.histogram(seconds).observe(result.seconds)

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
        tau_q = self.tau if tau is None else check_tau(tau)
        if tau_q > self.tau:
            raise ValueError(
                f"query tau must be in [1, {self.tau}] (the index's signing "
                f"tau); got {tau_q}"
            )
        return theta_q, tau_q

    def _sign_probes(
        self, probes: Iterable[Probe]
    ) -> Tuple[PreparedCollection, FlatSignatures]:
        """The probes prepared as one collection (ids are batch positions),
        with their signatures under the frozen order encoded as rows.

        Probes encode non-growing against the persistent vocabulary:
        probe-only keys become the no-postings sentinel.
        """
        records = []
        for position, probe in enumerate(probes):
            if isinstance(probe, Record):
                text, tokens = probe.text, probe.tokens
            elif isinstance(probe, str):
                text, tokens = probe, tuple(default_tokenizer.tokenize(probe))
            else:
                tokens = tuple(probe)
                text = " ".join(tokens)
            records.append(Record(record_id=position, text=text, tokens=tokens))
        prepared = PreparedCollection.prepare(RecordCollection(records), self.config)
        signed = [self._sign_member(record) for record in prepared.prepared_records]
        return prepared, FlatSignatures.from_signed(signed, self._vocab, grow=False)

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
        live = self.live_ids()
        members = FlatSignatures.from_rows(
            self._vocab, live, [self._rows[record_id] for record_id in live]
        )
        postings = FlatPostings.from_flat(members, len(self._vocab))
        self._flat_cache = (self._epoch, postings)
        return postings

    def _probe_state(self, probes: FlatSignatures) -> FlatJoinState:
        """Encoded probes against the epoch's member postings, as one flat
        state; candidates come back probe-major as ``(probe_id, member_id)``."""
        return FlatJoinState(
            self._vocab,
            self._flat_postings(),
            probes,
            postings_ascending=True,
            # Member ids are dense in the underlying collection, so this
            # bounds every posted id without scanning the data.
            counts_size=len(self.prepared),
        )

    def _probe_members(
        self, probes: FlatSignatures, tau_q: int
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Stream encoded probes through the member postings (kernel layer)."""
        return self._probe_state(probes).probe_span(
            0,
            len(probes),
            tau_q,
            probe_is_left=True,
            exclude_self_pairs=False,
            kernel=self.kernel,
        )

    def _run_probes(
        self,
        span_name: str,
        probes: Iterable[Probe],
        theta: Optional[float],
        tau: Optional[int],
        executor: str = "serial",
        workers: Optional[int] = None,
        supervision: Optional[SupervisorPolicy] = None,
    ) -> Tuple[List[VerifiedPair], ShardResult, Optional[ExecutionReport], int]:
        """The read body of :meth:`query` and :meth:`query_batch`.

        Signs the probes, builds one :class:`~repro.join.parallel.ShardPlan`
        over the epoch's postings and drains a
        :class:`~repro.join.parallel.ShardStream` — one shard in this
        process on the serial executor.  Returns the pairs at the query θ,
        the merged shard result, the supervisor's report (``None`` on the
        serial executor) and the probe count.
        """
        theta_q, tau_q = self._resolve_query(theta, tau)
        telemetry = self.telemetry
        with telemetry.span(span_name, executor=executor) as read_span:
            epoch = self._begin_read()
            probe_prepared, probe_rows = self._sign_probes(probes)
            total = len(probe_rows)
            run_on = "process" if executor == "process" and total else "serial"
            plan = ShardPlan.build(
                self.verifier,
                self._probe_state(probe_rows),
                probe_prepared,
                self.prepared,
                requirement=tau_q,
                probe_is_left=True,
                exclude_self_pairs=False,
                kernel=self.kernel,
                executor=run_on,
            )
            if run_on == "process":
                pool = self._warm_join_pool(workers)
                stream = ShardStream(
                    plan,
                    pool_spans(total, pool.workers),
                    self.verifier,
                    telemetry,
                    executor="process",
                    workers=pool.workers,
                    pool=pool,
                    supervision=supervision,
                )
                with telemetry.span("pooled-stage", workers=pool.workers):
                    merged = stream.drain()
            else:
                stream = ShardStream(plan, [(0, total)], self.verifier, telemetry)
                merged = stream.drain()
            pairs = merged.pairs
            if theta_q > self.theta:
                pairs = [pair for pair in pairs if pair.similarity >= theta_q]
            self._end_read(epoch)
            read_span.annotate(
                probes=total, pairs=len(pairs), candidates=merged.candidate_count
            )
        return pairs, merged, stream.execution, total

    def query(
        self,
        probe: Probe,
        *,
        theta: Optional[float] = None,
        tau: Optional[int] = None,
    ) -> QueryResult:
        """All live members with unified similarity ≥ θ to an external probe.

        A one-probe :meth:`query_batch` on the serial executor, read back as
        the probe's row: the pairs, similarities and cascade counters of
        joining ``{probe}`` against the live corpus under the index's frozen
        order (see the module docs), for the price of signing one record
        and probing the standing postings.
        """
        start = time.perf_counter()
        pairs, merged, _, _ = self._run_probes("query", (probe,), theta, tau)
        result = QueryResult(
            matches=[QueryMatch(pair.right_id, pair.similarity) for pair in pairs],
            candidate_count=merged.candidate_count,
            processed_pairs=merged.processed_pairs,
            verification=merged.verification,
            seconds=time.perf_counter() - start,
        )
        self._record_read(result)
        return result

    def query_member(
        self,
        record_id: int,
        *,
        theta: Optional[float] = None,
        tau: Optional[int] = None,
    ) -> QueryResult:
        """All live partners of an indexed member (its self-join row).

        Probes with the member's stored row — no signing at all — and
        verifies the partners with every pair oriented ``(min_id, max_id)``,
        exactly as the batch self-join emits them, so the returned
        similarities are the member's row of the full self-join, bit for
        bit.  The row is verified as two probe groups of the member —
        partners below its id, with the member on the right, then partners
        above it, with the member on the left — so each runs one stage-1
        pass; the matches come back in candidate-emission order.
        """
        if record_id not in self:
            raise KeyError(f"record {record_id} is not live in this index")
        theta_q, tau_q = self._resolve_query(theta, tau)
        telemetry = self.telemetry
        start = time.perf_counter()
        with telemetry.span("query-member", record=record_id) as read_span:
            epoch = self._begin_read()
            with telemetry.span("filter", kernel=self.kernel) as filter_span:
                candidates, processed = self._probe_members(
                    FlatSignatures.from_rows(
                        self._vocab, [record_id], [self._rows[record_id]]
                    ),
                    tau_q,
                )
            filter_span.annotate(candidates=len(candidates), processed_pairs=processed)
            partners = [
                member_id for _, member_id in candidates if member_id != record_id
            ]
            verification = VerificationStats()
            with telemetry.span("verify"):
                pairs = self.verifier.verify_batch(
                    [(member_id, record_id) for member_id in partners if member_id < record_id],
                    self.prepared,
                    self.prepared,
                    probe_side="right",
                    stats=verification,
                ) + self.verifier.verify_batch(
                    [(record_id, member_id) for member_id in partners if member_id > record_id],
                    self.prepared,
                    self.prepared,
                    probe_side="left",
                    stats=verification,
                )
            self._end_read(epoch)
            rank = {member_id: position for position, member_id in enumerate(partners)}
            matches = sorted(
                (
                    QueryMatch(
                        pair.left_id if pair.right_id == record_id else pair.right_id,
                        pair.similarity,
                    )
                    for pair in pairs
                    if pair.similarity >= theta_q
                ),
                key=lambda match: rank[match.record_id],
            )
            read_span.annotate(pairs=len(matches), candidates=len(partners))
        result = QueryResult(
            matches=matches,
            candidate_count=len(partners),
            processed_pairs=processed,
            verification=verification,
            seconds=time.perf_counter() - start,
        )
        self._record_read(result)
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

        The cascade's two bound stages
        (:class:`~repro.join.bound_kernel.GroupUpperBounds`) run once over
        every candidate at the query θ; the candidates they would prune
        drop out, and the rest queue by partition bound plus
        :data:`~repro.core.graph.PARTITION_SLACK`, ties by member id
        (:func:`~repro.core.topk.bounded_top_k`).  Each is verified through
        :meth:`~repro.join.verification.UnifiedVerifier.verify_batch` until
        the k-th best verified similarity strictly beats the head's key.
        The result equals the top-k (by ``(-similarity, record_id)``) of
        the corresponding full query — exact, ties included.
        """
        k = check_top_k(k)
        theta_q, tau_q = self._resolve_query(theta, tau)
        telemetry = self.telemetry
        start = time.perf_counter()
        with telemetry.span("query-topk", k=k) as read_span:
            epoch = self._begin_read()
            probe_prepared, probe_rows = self._sign_probes((probe,))
            with telemetry.span("filter", kernel=self.kernel) as filter_span:
                candidates, processed = self._probe_members(probe_rows, tau_q)
            filter_span.annotate(candidates=len(candidates), processed_pairs=processed)
            partners = [member_id for _, member_id in candidates]
            verification = VerificationStats()
            with telemetry.span("verify"):
                bounds = GroupUpperBounds(
                    probe_prepared.graph_side(0),
                    [self.prepared.graph_side(member_id) for member_id in partners],
                    self.config,
                    probe_is_left=True,
                    kernel=self.kernel,
                )
                with telemetry.span(
                    "verify.maxima",
                    candidates=len(partners),
                    kernel=bounds.use_kernel,
                ):
                    maxima = bounds.maxima(theta_q)
                survivors = [p for p, value in enumerate(maxima) if value >= theta_q]
                partition: List[float] = []
                if survivors:
                    with telemetry.span("verify.partition", candidates=len(survivors)):
                        partition = bounds.partition(survivors)
                queued = [
                    (p, value + PARTITION_SLACK)
                    for p, value in zip(survivors, partition)
                    if value >= theta_q - PARTITION_SLACK
                ]

                def evaluate(position: int) -> Optional[float]:
                    verified = self.verifier.verify_batch(
                        [(0, partners[position])],
                        probe_prepared,
                        self.prepared,
                        stats=verification,
                    )
                    if not verified or verified[0].similarity < theta_q:
                        return None
                    return verified[0].similarity

                top, evaluated = bounded_top_k(
                    [p for p, _ in queued], [key for _, key in queued], evaluate, k,
                    tie_key=partners.__getitem__,
                )
            self._end_read(epoch)
            read_span.annotate(pairs=len(top), candidates=len(partners))
        result = QueryResult(
            matches=[
                QueryMatch(partners[position], similarity)
                for position, similarity in top
            ],
            candidate_count=len(partners),
            processed_pairs=processed,
            verification=verification,
            seconds=time.perf_counter() - start,
            bound_skipped=len(partners) - evaluated,
        )
        self._record_read(result)
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
        executor: Optional[str] = "serial",
        workers: Optional[int] = None,
        supervision: Optional[SupervisorPolicy] = None,
    ) -> BatchQueryResult:
        """Answer many probes in one pass (optionally sharded across cores).

        Every probe is signed, and one :class:`~repro.join.parallel.ShardPlan`
        — the epoch's flat postings over the index's persistent vocabulary,
        with the signed probes vocabulary-encoded as the probe side — runs
        through the join's shard loop, :class:`~repro.join.parallel.ShardStream`.
        The serial path filters and verifies the probes as one shard in
        this process, through the grouped batch engine of the index's own
        verifier.  ``executor`` and ``workers`` are checked as on
        :meth:`~repro.join.PebbleJoin.join` (``None`` means serial).
        ``executor="process"`` ships the plan to a
        *warm* worker pool (kept alive across calls; see :meth:`close`) and
        shards the probes across it under a
        :class:`~repro.join.supervision.ShardSupervisor` (``supervision``
        tunes the retry/timeout/fallback policy; faults degrade to
        in-parent execution, never to a different answer).  Both executors
        return identical pairs in identical order.  A bare string is one
        probe, not an iterable of them: pass it to :meth:`query` or in a
        list (``TypeError`` otherwise).
        """
        if isinstance(probes, str):
            raise TypeError(
                "query_batch takes an iterable of probes, not one string; "
                "use query() or wrap it in a list"
            )
        executor = _resolve_executor(executor, workers)
        _check_process_only(executor, supervision=supervision)
        start = time.perf_counter()
        pairs, merged, execution, total = self._run_probes(
            "query-batch", probes, theta, tau, executor, workers, supervision
        )
        result = BatchQueryResult(
            pairs=pairs,
            probe_count=total,
            candidate_count=merged.candidate_count,
            processed_pairs=merged.processed_pairs,
            verification=merged.verification,
            seconds=time.perf_counter() - start,
            execution=execution,
        )
        self._record_read(result, "search.batch_queries", "search.batch_seconds")
        return result

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
        the module docs), and appended as rows.  Raises
        :class:`ConcurrentMutationError` if another mutation is in flight,
        and ``TypeError`` on a bare string (one record, not an iterable of
        them: wrap it in a list) before anything changes.
        """
        if isinstance(records, str):
            raise TypeError(
                "add takes an iterable of records, not one string; wrap it in a list"
            )
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
                self._rows.append(self._member_row(prepared))
            self.telemetry.metrics.counter("search.adds").add(len(additions))
            self._epoch += 1
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
                self._rows[record_id] = None
            if ids:
                self.telemetry.metrics.counter("search.removes").add(len(ids))
                self._epoch += 1

    def rebuild(self) -> None:
        """Re-derive the order over the live corpus and re-sign every row.

        Ids stay stable (tombstones stay tombstones); only the order and the
        rows are rebuilt, exactly as a fresh index over the live corpus
        would build them.  Answers do not change — any fixed order is exact
        — only how selective the filter is.  Raises
        :class:`ConcurrentMutationError` if another mutation is in flight.
        """
        with self._mutating():
            self._build_from_prepared(self.live_ids())

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def content_fingerprint(self) -> str:
        """A stable content digest of the served state.

        Covers the live members (ids, texts, tokens), the measure
        configuration, and the signing contract (θ, τ, method, order
        strategy, approximation t) — anything else (rows, cached graph
        sides) is derived or operational.  Two indexes answering
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
        prepared corpus, frozen order, one row length per member — keyed
        by :meth:`content_fingerprint` under the store's
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
    # pickling (the verifier's counters are per process)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["verifier"]
        # Locks don't pickle; each process guards its own mutations.
        del state["_mutation_lock"]
        # Derived serving state: cheap to rebuild, pure bloat in a snapshot.
        state["_flat_cache"] = None
        state["_warm_pool"] = None
        # Telemetry bundles are per-process: a snapshot must not drag a
        # tracer's collected spans along.  The restored index falls back to
        # its process's default bundle.
        state["_telemetry"] = None
        # Rows are vocabulary-local: a fresh process re-interns its own
        # vocabulary.  A row is the member's pebbles sorted under the
        # shipped order and cut at the row's length, so the snapshot stores
        # only that length (-1 for a tombstone) and no selection DP runs on
        # load.
        del state["_vocab"]
        del state["_rows"]
        state["_row_lengths"] = array(
            "i", (-1 if row is None else len(row) for row in self._rows)
        )
        return state

    def __setstate__(self, state: dict) -> None:
        lengths = state.pop("_row_lengths")
        self.__dict__.update(state)
        # Fresh per-process verifier; cascade counters do not persist.
        self.verifier = UnifiedVerifier(
            self.config,
            self.theta,
            t=self.approximation_t,
            kernel=self.kernel,
        )
        self._vocab = Vocabulary()
        self._mutation_lock = threading.Lock()
        sort = self._order.sort_pebbles
        self._rows = [
            None
            if length < 0
            else self._encode_keys(pebble.key for pebble in sort(prepared.pebbles)[:length])
            for prepared, length in zip(self.prepared.prepared_records, lengths)
        ]
