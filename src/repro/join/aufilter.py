"""The pebble-based filter-and-verify join engine (Algorithms 3 and 6).

:class:`PebbleJoin` implements the unified set join.  With ``tau=1`` and the
U-Filter signature method it is Algorithm 3; with ``tau ≥ 1`` and an
AU-Filter signature method it is Algorithm 6.  The engine exposes the
filtering stage separately because the τ-recommendation machinery of
Section 4 runs filtering alone on samples.

Filtering architecture
----------------------
Filtering is *probe-based* and runs on one engine, the flat filter kernel
of :mod:`repro.join.kernels`: the side with the smaller signature footprint
is encoded as CSR postings (:class:`~repro.join.flat.FlatJoinState`) and
the other side's encoded signatures stream through it.  Each probe record
keeps a small integer-keyed overlap counter per partner it touches; a
candidate is emitted the moment its counter reaches the overlap
requirement τ and further counting for that pair is short-circuited.  A
self-join takes a dedicated single-index path: the collection is indexed
once and probed against itself, and because posting lists are sorted
ascending by record id the probe breaks out of a posting list at the first
partner ``id >= probe_id`` (each unordered pair is counted exactly once,
when the higher id probes).  The τ-recommender runs the same kernel in its
counts mode, on samples or once over the join's own memoized flat state.

``processed_pairs`` still reports the paper's ``T_τ`` — every (left, right)
postings combination the filter touches — so the cost model and the
τ-recommender see the same quantity as the classic dual-index formulation,
kept as :func:`dual_index_filter_candidates`: the paper-faithful reference
that equivalence tests and the filtering benchmark compare against.

Signing reuse
-------------
:meth:`PebbleJoin.resolve` is the one front end of the pipeline: it
prepares both sides (raw collections through :meth:`PebbleJoin.as_prepared`,
so through the engine's store when it has one), resolves the global order
and signs both sides.  Every join, join stream, process shard plan
(:func:`~repro.join.parallel.build_shard_plan`) and τ recommendation
(:class:`~repro.estimator.recommend.TauRecommender`) goes through it.  Each
step is cached on the :class:`~repro.join.prepared.PreparedCollection`
objects, so prepared sides share pebbles, orders and per-(order, θ, τ,
method) signings across joins, the τ-recommender and
``UnifiedJoin(tau="auto")``.  After a run, the engine hands each side to
:meth:`~repro.store.PreparedStore.persist`, and the store saves the ones it
manages that gained signings since it last loaded or saved them.

One shard loop
--------------
After signing, every join runs through the shard loop of
:mod:`repro.join.parallel`: one :class:`~repro.join.parallel.ShardPlan`,
one shard body (filter a probe span, verify its candidates), and one
:class:`~repro.join.parallel.ShardStream` on either executor.
:meth:`PebbleJoin.join_batches` yields one batch per ``batch_size`` shard,
so large joins never materialize the full candidate list, and
:meth:`PebbleJoin.join` drains the same stream — one shard over the probe
side on the serial executor, ``workers × 4`` on the process executor.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..store import PreparedStore

from ..core.measures import MeasureConfig
from ..records import RecordCollection
from ..telemetry import Telemetry, resolve_telemetry
from .flat import FlatJoinState
from .global_order import GlobalOrder
from .kernels import resolve_kernel
from .parallel import (
    ShardPlan,
    ShardStream,
    _pool_size,
    _split_pooled_wall,
    _stage_seconds,
    pool_spans,
    shard_spans,
)
from .prepared import PreparedCollection
from .signatures import SignatureMethod, SignedRecord, check_tau
from .supervision import ExecutionReport, SupervisorPolicy
from .verification import UnifiedVerifier, VerificationStats, VerifiedPair

__all__ = [
    "FilterOutcome",
    "JoinBatch",
    "JoinStatistics",
    "JoinResult",
    "PebbleJoin",
    "ResolvedSides",
    "dual_index_filter_candidates",
]

#: Either a raw record collection or a prepared one; engines accept both.
Joinable = Union[RecordCollection, PreparedCollection]


@dataclass
class FilterOutcome:
    """Result of the filtering stage only.

    Attributes
    ----------
    candidates:
        Candidate ``(left_id, right_id)`` pairs surviving the overlap test,
        in emission order (the moment their overlap counter reached τ).
    processed_pairs:
        The paper's ``T_τ``: how many (left, right) postings combinations the
        filter touched — the filtering cost driver in the cost model.  For a
        fixed signing this is independent of τ.
    overlap_counts:
        The exact overlap count of every touched pair — filled only by the
        :func:`dual_index_filter_candidates` reference; the probe filter
        leaves it empty.
    probe_side:
        Which side of each candidate tuple is the probe record (``"left"``
        or ``"right"``); candidates are emitted probe-major, which the
        verification engine exploits to group them per probe record.
    """

    candidates: List[Tuple[int, int]]
    processed_pairs: int
    overlap_counts: Dict[Tuple[int, int], int] = field(default_factory=dict)
    probe_side: str = "left"

    @property
    def candidate_count(self) -> int:
        """The paper's ``V_τ``: number of candidates sent to verification."""
        return len(self.candidates)


@dataclass
class JoinBatch:
    """One streamed chunk of a :meth:`PebbleJoin.join_batches` run.

    ``verification`` carries the chunk's tiered-cascade counters (pruned vs
    fully verified pairs).  ``suggestion_seconds`` is non-zero only on the
    *first* batch of a ``tau="auto"`` run: the τ-recommendation happens once
    before streaming starts, so its cost is attributed to the batch that
    paid the wait.
    ``execution`` (process executor only) is the stream's **live**
    :class:`~repro.join.supervision.ExecutionReport` — one shared object
    across all batches whose fault counters grow as the stream progresses.
    """

    pairs: List[VerifiedPair]
    candidate_count: int
    processed_pairs: int
    probe_range: Tuple[int, int]
    verification: VerificationStats = field(default_factory=VerificationStats)
    suggestion_seconds: float = 0.0
    execution: Optional["ExecutionReport"] = None


@dataclass
class JoinStatistics:
    """Timing and cardinality statistics of one join run.

    ``verification`` breaks the verification stage down by cascade tier
    (bound prunes, ceiling stops, full Algorithm-1 runs); it stays all-zero
    for joins that never enter the cascade (the baselines).  ``execution``
    is the supervised process executor's
    :class:`~repro.join.supervision.ExecutionReport` (retries, respawns,
    fallbacks, per-shard attempts) — ``None`` on the serial executor, an
    all-zero report on a clean supervised run.
    """

    signing_seconds: float = 0.0
    filtering_seconds: float = 0.0
    verification_seconds: float = 0.0
    suggestion_seconds: float = 0.0
    processed_pairs: int = 0
    candidate_count: int = 0
    result_count: int = 0
    left_records: int = 0
    right_records: int = 0
    avg_signature_length_left: float = 0.0
    avg_signature_length_right: float = 0.0
    tau: int = 1
    theta: float = 0.0
    method: str = SignatureMethod.U_FILTER
    verification: VerificationStats = field(default_factory=VerificationStats)
    execution: Optional["ExecutionReport"] = None

    @property
    def total_seconds(self) -> float:
        """End-to-end join time (signing + filtering + verification + suggestion)."""
        return (
            self.signing_seconds
            + self.filtering_seconds
            + self.verification_seconds
            + self.suggestion_seconds
        )


class ResolvedSides(NamedTuple):
    """Both sides of a join, prepared, ordered and signed by :meth:`PebbleJoin.resolve`.

    ``right_prep`` is ``left_prep`` for a self-join and for the same
    collection passed twice; ``self_join`` tells the two apart.  The signed
    lists are the cached entries of the preparations' signature caches.
    """

    left_prep: PreparedCollection
    right_prep: PreparedCollection
    self_join: bool
    order: GlobalOrder
    left_signed: List[SignedRecord]
    right_signed: List[SignedRecord]


@dataclass
class JoinResult:
    """The verified pairs of a join together with its statistics."""

    pairs: List[VerifiedPair]
    statistics: JoinStatistics

    def pair_ids(self) -> Set[Tuple[int, int]]:
        """The result as a set of ``(left_id, right_id)`` tuples."""
        return {(pair.left_id, pair.right_id) for pair in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)


def _average_signature_length(signed: Sequence[SignedRecord]) -> float:
    if not signed:
        return 0.0
    return sum(record.signature_length for record in signed) / len(signed)


#: Valid values of the ``executor`` knob on ``join`` / ``join_batches``.
EXECUTORS = ("serial", "process")


def _resolve_executor(executor: Optional[str], workers: Optional[int]) -> str:
    """Validate the (executor, workers) knobs; ``None`` means serial.

    The process executor keeps ``workers=None`` so the driver can size its
    pool from a caller's warm pool before falling back to the CPU count.
    """
    if executor is None:
        if workers is not None:
            raise ValueError("workers requires an explicit executor")
        return "serial"
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if executor == "serial":
        if workers not in (None, 0):
            raise ValueError("the serial executor takes no workers")
    elif workers is not None:
        check_tau(workers, "workers")
    return executor


def _check_process_only(resolved_executor: str, **knobs) -> None:
    """Reject process-executor-only knobs on the serial executor."""
    if resolved_executor == "process":
        return
    for name, value in knobs.items():
        if value is not None:
            raise ValueError(
                f"{name} requires executor='process' (got "
                f"executor={resolved_executor!r})"
            )


def _batches(stream: ShardStream, suggestion_seconds: float) -> Iterator[JoinBatch]:
    """One :class:`JoinBatch` per shard of a join stream."""
    first = True
    for shard in stream:
        yield JoinBatch(
            pairs=shard.pairs,
            candidate_count=shard.candidate_count,
            processed_pairs=shard.processed_pairs,
            probe_range=(shard.start, shard.stop),
            verification=shard.verification,
            suggestion_seconds=suggestion_seconds if first else 0.0,
            execution=stream.execution,
        )
        first = False


def dual_index_filter_candidates(
    left_signed: Sequence[SignedRecord],
    right_signed: Sequence[SignedRecord],
    *,
    requirement: int,
    exclude_self_pairs: bool = False,
) -> FilterOutcome:
    """The classic dual-index filter (reference implementation).

    Builds one inverted index per side — including the identical index twice
    for a self-join — and enumerates the full postings cross-product per
    common key.  Every signature key *occurrence* posts its record, as
    Algorithm 6 builds its inverted lists, so the overlap count of a pair is
    the number of matchable signature pebbles it shares.  Kept as the
    semantic reference for the probe-based filter: equivalence tests and the
    filtering benchmark compare against it.  ``overlap_counts`` here are
    exact (not saturated).
    """
    requirement = check_tau(requirement, "requirement")

    def index(signed_side: Sequence[SignedRecord]) -> Dict[object, List[int]]:
        postings: Dict[object, List[int]] = defaultdict(list)
        for signed in signed_side:
            for key in signed.signature_key_sequence:
                postings[key].append(signed.record.record_id)
        return postings

    left_index, right_index = index(left_signed), index(right_signed)

    overlap_counts: Dict[Tuple[int, int], int] = defaultdict(int)
    processed = 0
    for key, left_postings in left_index.items():
        right_postings = right_index.get(key)
        if right_postings is None:
            continue
        for left_id in left_postings:
            for right_id in right_postings:
                if exclude_self_pairs and left_id >= right_id:
                    continue
                processed += 1
                overlap_counts[(left_id, right_id)] += 1

    candidates = [pair for pair, count in overlap_counts.items() if count >= requirement]
    return FilterOutcome(
        candidates=candidates,
        processed_pairs=processed,
        overlap_counts=dict(overlap_counts),
    )


def _ids_ascending(signed_records: Sequence[SignedRecord]) -> bool:
    """True when the records appear in strictly ascending id order.

    Index posting lists inherit this order, which is what licenses the
    early-``break`` self-join exclusion of the filter kernels.  Signed lists
    from ``sign_collection`` / ``PreparedCollection.signed`` are always
    ascending; the O(n) check keeps arbitrarily reordered caller input
    correct (it merely loses the early break).
    """
    previous = -1
    for signed in signed_records:
        record_id = signed.record.record_id
        if record_id <= previous:
            return False
        previous = record_id
    return True


def _pick_index_side(
    left_signed: Sequence[SignedRecord],
    right_signed: Sequence[SignedRecord],
) -> Tuple[Sequence[SignedRecord], Sequence[SignedRecord], bool]:
    """Pick the indexed and probed sides without building the index.

    The index goes on the side with the smaller signature footprint; the
    other side streams through it.  A self-join (``left_signed is
    right_signed``) indexes the collection once and probes it with itself.
    """
    if left_signed is right_signed:
        return left_signed, left_signed, False
    left_footprint = sum(s.signature_length for s in left_signed)
    right_footprint = sum(s.signature_length for s in right_signed)
    if left_footprint <= right_footprint:
        return left_signed, right_signed, False
    return right_signed, left_signed, True


class PebbleJoin:
    """Unified set join with pebble signatures (U-Filter / AU-Filter).

    Parameters
    ----------
    config:
        Measure configuration shared by signature generation and
        verification.
    theta:
        Join threshold θ.
    tau:
        Overlap constraint τ (minimum number of shared signature pebbles).
        The U-Filter method implies τ = 1; combining it with a larger τ is a
        configuration conflict and raises ``ValueError``.
    method:
        Signature-selection strategy (one of :class:`SignatureMethod`).
    order_strategy:
        Global pebble ordering strategy (``"frequency"`` or ``"weight"``).
    approximation_t:
        Algorithm 1's trade-off parameter ``t`` (``1 < t < inf``).
    adaptive_verification:
        Accepted and ignored, for benchmark compatibility: ``perfbench/``
        still passes it.  Every join runs the one verification cascade.
    store:
        An optional :class:`~repro.store.PreparedStore`.  With a store, raw
        collections resolve through the on-disk store in :meth:`prepare` /
        :meth:`as_prepared`, and :meth:`join` / :meth:`join_batches` end by
        handing each side to :meth:`~repro.store.PreparedStore.persist`,
        which saves a store-managed preparation that gained signings, so
        the next run signs from the artifact.
    kernel:
        Filter-kernel selection for the probe loop, on every execution
        path (serial, streaming batches, and pool workers):
        ``"auto"`` (the vectorized numpy kernel when numpy is importable,
        else the pure-Python loop), ``"numpy"``, or ``"python"``.  The
        kernels are bit-identical in candidates, orientation, and
        processed counts (see :mod:`repro.join.kernels`), so this is a
        pure speed knob.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` bundle collecting stage
        spans and metrics for every join (defaults to the process-wide
        bundle from :func:`repro.telemetry.get_default`; see
        ``docs/observability.md``).  Stage timings on
        :class:`JoinStatistics` are populated from the spans, so the
        statistics block and the trace always agree.
    """

    def __init__(
        self,
        config: MeasureConfig,
        theta: float,
        *,
        tau: int = 1,
        method: str = SignatureMethod.AU_DP,
        order_strategy: str = "frequency",
        approximation_t: float = 4.0,
        adaptive_verification: bool = False,
        store: Optional["PreparedStore"] = None,
        kernel: str = "auto",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        tau = check_tau(tau)
        SignatureMethod.validate(method)
        if method == SignatureMethod.U_FILTER and tau > 1:
            raise ValueError(
                "the U-Filter method implies tau=1 (Algorithm 3); "
                f"got tau={tau} — pass tau=1 or use an AU-Filter method"
            )
        GlobalOrder(order_strategy)  # validate eagerly, with the order's error
        self.config = config
        self.theta = theta
        self.tau = tau
        self.method = method
        self.order_strategy = order_strategy
        resolve_kernel(kernel)  # validate eagerly: typos fail at construction
        self.kernel = kernel
        self.verifier = UnifiedVerifier(
            config,
            theta,
            t=approximation_t,
            kernel=kernel,
        )
        self.approximation_t = approximation_t
        self.store = store
        self.telemetry = resolve_telemetry(telemetry)

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    def prepare(self, collection: RecordCollection) -> PreparedCollection:
        """Prepare a collection for (repeated) joining under this config.

        With a :attr:`store`, preparation is store-backed: a matching
        on-disk artifact is loaded instead of rebuilt, and a fresh build is
        persisted for the next run.
        """
        if self.store is not None:
            return self.store.prepare(collection, self.config)
        return PreparedCollection.prepare(collection, self.config)

    def as_prepared(self, collection: Joinable) -> PreparedCollection:
        """Coerce to a :class:`PreparedCollection` bound to this config.

        Prepared collections bound to an *equal* config are accepted
        (configs compare by content), so collections that crossed a process
        boundary keep working without re-preparation.  Raw collections
        route through :meth:`prepare` and therefore through the
        :attr:`store` when one is configured.
        """
        if isinstance(collection, PreparedCollection):
            return collection.require_config(self.config)
        return self.prepare(collection)

    def _prepared_sides(
        self, left: Joinable, right: Optional[Joinable]
    ) -> Tuple[PreparedCollection, PreparedCollection]:
        """Both sides as preparations; one for a self-join or a side passed twice."""
        left_prep = self.as_prepared(left)
        if right is None or right is left:
            return left_prep, left_prep
        return left_prep, self.as_prepared(right)

    def build_order(
        self, left: Joinable, right: Optional[Joinable] = None
    ) -> GlobalOrder:
        """The corpus-wide pebble order a join of ``left`` and ``right`` signs under.

        Both sides go through :meth:`as_prepared`, and the order is cached
        on their preparations: one collection (``right`` omitted or the same
        collection) counts its pebbles once.
        """
        return self._resolve_order(*self._prepared_sides(left, right), None)

    def sign_collection(
        self, collection: Joinable, order: GlobalOrder
    ) -> List[SignedRecord]:
        """Sign every record of a collection under the given global order.

        The collection goes through :meth:`as_prepared`, and the signing is
        the cached entry of its preparation.
        """
        return self.as_prepared(collection).signed(
            order, self.theta, self.tau, self.method
        )

    # ------------------------------------------------------------------ #
    # filtering
    # ------------------------------------------------------------------ #
    def _flat_filter_state(
        self,
        left_signed: Sequence[SignedRecord],
        right_signed: Sequence[SignedRecord],
        prepared: Optional[Tuple[PreparedCollection, PreparedCollection]] = None,
    ) -> Tuple[FlatJoinState, Sequence[SignedRecord], bool]:
        """Resolve the flat kernel state for a signed side pair.

        Side selection matches :func:`_pick_index_side`; when the indexed
        side's owning :class:`PreparedCollection` is known, the encoded
        state comes from (and is memoized on) the collection, so repeated
        joins over one preparation re-encode nothing.
        """
        index_signed, probe_records, probe_is_left = _pick_index_side(
            left_signed, right_signed
        )
        ascending = _ids_ascending(index_signed)
        host: Optional[PreparedCollection] = None
        if prepared is not None:
            host = prepared[0] if index_signed is left_signed else prepared[1]
        if host is not None:
            flat = host.flat_state(
                index_signed, probe_records, postings_ascending=ascending
            )
        else:
            flat = FlatJoinState.from_signed_sides(
                index_signed, probe_records, postings_ascending=ascending
            )
        return flat, probe_records, probe_is_left

    def filter_candidates(
        self,
        left_signed: Sequence[SignedRecord],
        right_signed: Sequence[SignedRecord],
        *,
        tau: Optional[int] = None,
        exclude_self_pairs: bool = False,
        kernel: Optional[str] = None,
        prepared: Optional[Tuple[PreparedCollection, PreparedCollection]] = None,
    ) -> FilterOutcome:
        """Run the probe-based filtering stage (Lines 1–8 of Algorithm 6).

        ``tau`` overrides the configured overlap constraint for this call.
        ``exclude_self_pairs`` drops ``left_id >= right_id`` pairs for
        self-joins.  When ``left_signed is right_signed`` (every self-join)
        a single index is built and probed against itself.  Candidate sets
        and processed counts are identical to
        :func:`dual_index_filter_candidates`; only the emission order
        differs.

        The probe runs through the flat filter kernel (``kernel`` overrides
        the engine's :attr:`kernel` knob for this call).  ``prepared``
        optionally names the collections that own the signed lists so the
        encoded flat state is memoized per content version.
        """
        requirement = self.tau if tau is None else check_tau(tau)

        flat, probe_records, probe_is_left = self._flat_filter_state(
            left_signed, right_signed, prepared
        )
        candidates, processed = flat.probe_span(
            0,
            len(probe_records),
            requirement,
            probe_is_left=probe_is_left,
            exclude_self_pairs=exclude_self_pairs,
            kernel=self.kernel if kernel is None else kernel,
        )
        return FilterOutcome(
            candidates=candidates,
            processed_pairs=processed,
            probe_side="left" if probe_is_left else "right",
        )

    # ------------------------------------------------------------------ #
    # full join
    # ------------------------------------------------------------------ #
    def _signing_tau(self, signing_tau: Optional[int]) -> int:
        """The τ to sign at: the filtering τ, or a checked larger ``signing_tau``."""
        if signing_tau is None:
            return self.tau
        signing_tau = check_tau(signing_tau, "signing_tau")
        if signing_tau < self.tau:
            raise ValueError(
                "signing_tau must be >= the filtering tau: signatures selected "
                f"for tau={signing_tau} only guarantee {signing_tau} overlaps, "
                f"but filtering requires {self.tau}"
            )
        return signing_tau

    def _resolve_order(
        self,
        left_prep: PreparedCollection,
        right_prep: PreparedCollection,
        precomputed_order: Optional[GlobalOrder],
    ) -> GlobalOrder:
        """Resolve the corpus-wide order for a prepared pair (cache-backed)."""
        if precomputed_order is not None:
            return precomputed_order
        if right_prep is left_prep:
            return left_prep.build_order(self.order_strategy)
        return left_prep.shared_order_with(right_prep, self.order_strategy)

    def resolve(
        self,
        left: Joinable,
        right: Optional[Joinable] = None,
        *,
        precomputed_order: Optional[GlobalOrder] = None,
        signing_tau: Optional[int] = None,
    ) -> ResolvedSides:
        """Prepare both sides, resolve the global order and sign them.

        The front end of every join, join stream, shard plan and τ
        recommendation.  ``right=None`` is a self-join; the same collection
        passed twice keeps cross-join semantics but is prepared and signed
        once.  ``precomputed_order`` replaces the order the sides would
        build (the order a :meth:`build_order` call returns, cached on the
        preparations).  ``signing_tau`` signs at a τ at least the filtering
        τ; it is checked before anything is prepared.  Every step is
        cache-backed: a second call over the same preparations signs nothing.
        """
        sign_tau = self._signing_tau(signing_tau)
        left_prep, right_prep = self._prepared_sides(left, right)
        order = self._resolve_order(left_prep, right_prep, precomputed_order)
        left_signed = left_prep.signed(order, self.theta, sign_tau, self.method)
        right_signed = (
            left_signed
            if right_prep is left_prep
            else right_prep.signed(order, self.theta, sign_tau, self.method)
        )
        return ResolvedSides(
            left_prep, right_prep, right is None, order, left_signed, right_signed
        )

    def _plan(self, sides: ResolvedSides, executor: str) -> ShardPlan:
        """The shard plan of one run over two resolved sides.

        The flat state is the one :meth:`filter_candidates` resolves,
        memoized on the indexed side's preparation, so a join over a
        preparation an earlier filter or plan already encoded re-encodes
        nothing.
        """
        flat, _, probe_is_left = self._flat_filter_state(
            sides.left_signed, sides.right_signed, (sides.left_prep, sides.right_prep)
        )
        return ShardPlan.build(
            self.verifier,
            flat,
            sides.left_prep,
            sides.right_prep,
            requirement=self.tau,
            probe_is_left=probe_is_left,
            exclude_self_pairs=sides.self_join,
            kernel=self.kernel,
            executor=executor,
        )

    def _persist(self, sides: ResolvedSides) -> None:
        """Hand each distinct side to the store, which saves it if it gained signings."""
        if self.store is not None:
            self.store.persist(sides.left_prep)
            if sides.right_prep is not sides.left_prep:
                self.store.persist(sides.right_prep)

    def join(
        self,
        left: Joinable,
        right: Optional[Joinable] = None,
        *,
        precomputed_order: Optional[GlobalOrder] = None,
        signing_tau: Optional[int] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        pool=None,
        supervision: Optional[SupervisorPolicy] = None,
    ) -> JoinResult:
        """Join two collections (or self-join one) and verify candidates.

        ``signing_tau`` signs with a larger τ than the filtering requirement
        (still lossless, since a τ'-signature guarantees τ' ≥ τ overlaps for
        any θ-similar pair).  ``UnifiedJoin(tau="auto")`` uses this to share
        one full signing between the recommendation and the final join.

        ``executor`` selects how candidates are filtered and verified:
        ``"serial"`` (default) or ``"process"`` (the sharded multi-core
        driver of :mod:`repro.join.parallel`, which also runs the
        *filtering* of each shard in the workers).  On both, the join drains
        the same shard stream :meth:`join_batches` yields: one shard over
        the probe side on the serial executor, ``workers × 4`` shards on
        the process one.  ``workers`` sizes the
        process pool; when omitted it defaults to the size of ``pool`` — a
        :class:`~repro.join.pool.WarmJoinPool` whose warm worker processes
        serve the call — else to the CPU count.  ``pool`` is
        process-executor-only, as is ``supervision`` — a
        :class:`~repro.join.supervision.SupervisorPolicy` tuning the
        fault-tolerant shard supervisor (timeouts, retry/respawn budgets,
        serial fallback; supervision is on by default and reports through
        ``statistics.execution``).  Both executors return bit-identical
        pairs, similarities, and statistics counters at every worker count
        — including supervised runs that retried, respawned, or fell back
        to serial for some shards.
        """
        resolved_executor = _resolve_executor(executor, workers)
        _check_process_only(resolved_executor, pool=pool, supervision=supervision)
        self._signing_tau(signing_tau)  # checked before anything is prepared
        serial = resolved_executor == "serial"
        telemetry = self.telemetry
        metrics = telemetry.metrics
        metrics.counter("join.calls").add()
        metrics.counter("join.kernel_dispatch." + resolve_kernel(self.kernel)).add()
        with telemetry.span(
            "join",
            method=self.method,
            theta=self.theta,
            tau=self.tau,
            executor=resolved_executor,
        ) as join_span:
            # Stage timings are span-sourced, so the statistics block and the
            # trace report one measurement (hand timers only fill in when
            # telemetry is off and the spans carry no clock).
            began = time.perf_counter()
            with telemetry.span("prepare") as prepare_span:
                left_prep, right_prep = self._prepared_sides(left, right)
            signing_seconds = _stage_seconds(prepare_span, began)
            with telemetry.span("sign") as sign_span:
                began = time.perf_counter()
                sides = self.resolve(
                    left_prep,
                    None if right is None else right_prep,
                    precomputed_order=precomputed_order,
                    signing_tau=signing_tau,
                )
            signing_seconds += _stage_seconds(sign_span, began)

            # The plan build (the flat filter index; on the process executor
            # also the payload copies) is no signing: a warm run signs from
            # cache.
            plan = self._plan(sides, resolved_executor)
            total = plan.probe_count
            if serial:
                spans = [(0, total)]
            else:
                workers = _pool_size(workers, pool)
                spans = pool_spans(total, workers)
            stream = ShardStream(
                plan,
                spans,
                self.verifier,
                telemetry,
                executor=resolved_executor,
                workers=workers,
                pool=pool,
                supervision=supervision,
            )
            if serial or not spans:
                merged = stream.drain()
                filtering, verifying = merged.filter_seconds, merged.verify_seconds
            else:
                # Opened around the drain, the pooled stage runs from
                # session-manager creation through its close().
                began = time.perf_counter()
                with telemetry.span(
                    "pooled-stage", workers=min(workers, len(spans))
                ) as stage_span:
                    merged = stream.drain()
                filtering, verifying = _split_pooled_wall(
                    _stage_seconds(stage_span, began),
                    merged.filter_seconds,
                    merged.verify_seconds,
                )

            statistics = JoinStatistics(
                signing_seconds=signing_seconds,
                filtering_seconds=filtering,
                verification_seconds=verifying,
                processed_pairs=merged.processed_pairs,
                candidate_count=merged.candidate_count,
                result_count=len(merged.pairs),
                left_records=len(left_prep),
                right_records=len(right_prep),
                avg_signature_length_left=_average_signature_length(sides.left_signed),
                avg_signature_length_right=_average_signature_length(sides.right_signed),
                tau=self.tau,
                theta=self.theta,
                method=self.method,
                verification=merged.verification,
                execution=stream.execution,
            )
            metrics.histogram("join.sign_seconds").observe(signing_seconds)
            metrics.histogram("join.filter_seconds").observe(filtering)
            metrics.histogram("join.verify_seconds").observe(verifying)
            join_span.annotate(pairs=len(merged.pairs))
            metrics.counter("join.pairs").add(len(merged.pairs))

            self._persist(sides)
            return JoinResult(pairs=merged.pairs, statistics=statistics)

    def join_batches(
        self,
        left: Joinable,
        right: Optional[Joinable] = None,
        *,
        batch_size: int = 1024,
        precomputed_order: Optional[GlobalOrder] = None,
        signing_tau: Optional[int] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        suggestion_seconds: float = 0.0,
        pool=None,
        supervision: Optional[SupervisorPolicy] = None,
    ) -> Iterator[JoinBatch]:
        """Stream the join: filter and verify one probe chunk at a time.

        The probe side (the larger side, or the whole collection for a
        self-join) is processed in chunks of ``batch_size`` records; each
        chunk's candidates are verified immediately and yielded as a
        :class:`JoinBatch`, so the full candidate list is never
        materialized.  ``executor`` / ``workers`` / ``pool`` behave as in
        :meth:`join`: ``"process"`` hands whole probe chunks (filtering
        included) to pool workers, and batches stream back in probe order
        while later chunks are still being computed, with at most
        ``workers + 1`` chunks in flight.  ``suggestion_seconds`` (set by
        ``UnifiedJoin(tau="auto")``) is reported on the first yielded batch.
        The union of all batch pairs equals :meth:`join`'s result, in
        identical order.  Signing and validation happen at call time; store
        preparations are persisted back once the stream is exhausted.
        """
        check_tau(batch_size, "batch_size")
        resolved_executor = _resolve_executor(executor, workers)
        _check_process_only(resolved_executor, pool=pool, supervision=supervision)
        sides = self.resolve(
            left, right, precomputed_order=precomputed_order, signing_tau=signing_tau
        )
        plan = self._plan(sides, resolved_executor)
        workers = _pool_size(workers, pool)
        stream = ShardStream(
            plan,
            shard_spans(plan.probe_count, batch_size),
            self.verifier,
            self.telemetry,
            executor=resolved_executor,
            workers=workers,
            pool=pool,
            supervision=supervision,
            # Keep every worker busy plus one batch of lookahead, but never
            # schedule the whole probe side up front: a slow consumer must
            # apply backpressure to the pool instead of accumulating every
            # completed shard in parent memory.
            window=workers + 1,
        )

        def batches_then_persist() -> Iterator[JoinBatch]:
            yield from _batches(stream, suggestion_seconds)
            self._persist(sides)

        return batches_then_persist()

    def self_join(self, collection: Joinable) -> JoinResult:
        """Self-join convenience wrapper (pairs reported once, left < right)."""
        return self.join(collection)
