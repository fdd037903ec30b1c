"""The pebble-based filter-and-verify join engine (Algorithms 3 and 6).

:class:`PebbleJoin` implements the unified set join.  With ``tau=1`` and the
U-Filter signature method it is Algorithm 3; with ``tau ≥ 1`` and an
AU-Filter signature method it is Algorithm 6.  The engine exposes the
filtering stage separately because the τ-recommendation machinery of
Section 4 runs filtering alone on samples.

Filtering architecture
----------------------
Filtering is *probe-based*: one inverted index is built on the side with the
smaller signature footprint and the other side's signatures stream through
it.  Each probe record keeps a small integer-keyed overlap counter per
partner it touches; a candidate is emitted the moment its counter reaches
the overlap requirement τ and further counting for that pair is
short-circuited.  A self-join takes a dedicated single-index path: the
collection is indexed once and probed against itself, and because posting
lists are sorted ascending by record id the probe breaks out of a posting
list at the first partner ``id >= probe_id`` (each unordered pair is counted
exactly once, when the higher id probes).

``processed_pairs`` still reports the paper's ``T_τ`` — every (left, right)
postings combination the filter touches — so the cost model and the
τ-recommender see the same quantity as the classic dual-index formulation
(the legacy implementation is kept as
:func:`dual_index_filter_candidates` for equivalence tests and benchmarks).

Signing reuse
-------------
Both sides of a join may be passed as
:class:`~repro.join.prepared.PreparedCollection` objects, in which case
pebble generation, the global order, and per-(θ, τ, method) signatures are
all cached and shared across joins, the τ-recommender, and
``UnifiedJoin(tau="auto")``.  :meth:`PebbleJoin.join_batches` streams the
probe side in chunks so large joins never materialize the full candidate
list.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
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
from ..telemetry.spans import NULL_SPAN
from .flat import FlatJoinState
from .global_order import GlobalOrder
from .inverted_index import InvertedIndex
from .kernels import resolve_kernel
from .prepared import PreparedCollection
from .signatures import SignatureMethod, SignedRecord, sign_record
from .supervision import ExecutionReport, SupervisorPolicy
from .verification import UnifiedVerifier, VerificationStats, VerifiedPair, Verifier

__all__ = [
    "FilterOutcome",
    "MultiFilterOutcome",
    "JoinBatch",
    "JoinStatistics",
    "JoinResult",
    "PebbleJoin",
    "dual_index_filter_candidates",
    "probe_single",
]

#: Either a raw record collection or a prepared one; engines accept both.
Joinable = Union[RecordCollection, PreparedCollection]


def _stage_seconds(span, began: float) -> float:
    """Span-sourced stage timing, falling back to the hand timer only when
    telemetry is disabled (the null span carries no clock)."""
    if span is NULL_SPAN:
        return time.perf_counter() - began
    return span.wall_seconds


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
        Optional diagnostics (``collect_overlap_counts=True``): the overlap
        counter per touched pair, *saturating at the overlap requirement*
        because counting short-circuits once a pair becomes a candidate.
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
class MultiFilterOutcome:
    """Per-τ candidate cardinalities from one shared filtering pass.

    The τ-recommender probes every candidate τ on one signing; since the
    postings touched do not depend on τ, a single probe pass with counters
    capped at ``max(taus)`` yields every ``V_τ`` at once.
    """

    processed_pairs: int
    candidate_counts: Dict[int, int]


@dataclass
class JoinBatch:
    """One streamed chunk of a :meth:`PebbleJoin.join_batches` run.

    ``verification`` carries the chunk's tiered-cascade counters (pruned vs
    fully verified pairs) when the engine's verifier reports them.
    ``suggestion_seconds`` is non-zero only on the *first* batch of a
    ``tau="auto"`` run: the τ-recommendation happens once before streaming
    starts, so its cost is attributed to the batch that paid the wait.
    ``execution`` (process executor only) is the stream's **live**
    :class:`~repro.join.supervision.ExecutionReport` — one shared object
    across all batches whose fault counters grow as the stream progresses.
    """

    pairs: List[VerifiedPair]
    candidate_count: int
    processed_pairs: int
    probe_range: Tuple[int, int]
    verification: Optional[VerificationStats] = None
    suggestion_seconds: float = 0.0
    execution: Optional["ExecutionReport"] = None


@dataclass
class JoinStatistics:
    """Timing and cardinality statistics of one join run.

    ``verification`` breaks the verification stage down by cascade tier
    (bound prunes, ceiling stops, full Algorithm-1 runs) when the engine's
    verifier reports statistics; it is ``None`` for custom verifiers that
    do not.  ``execution`` is the supervised process executor's
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
    verification: Optional[VerificationStats] = None
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
    elif workers is not None and workers < 1:
        raise ValueError("the process executor needs workers >= 1")
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


def dual_index_filter_candidates(
    left_signed: Sequence[SignedRecord],
    right_signed: Sequence[SignedRecord],
    *,
    requirement: int,
    exclude_self_pairs: bool = False,
) -> FilterOutcome:
    """The classic dual-index filter (reference implementation).

    Builds one inverted index per side — including the identical index twice
    for a self-join, exactly as the pre-probe engine did — and enumerates the
    full postings cross-product per common key.  Kept as the semantic
    reference for the probe-based filter: equivalence tests and the
    filtering benchmarks compare against it.  ``overlap_counts`` here are
    exact (not saturated).
    """
    if requirement < 1:
        raise ValueError("the overlap requirement must be a positive integer")
    left_index = InvertedIndex.build(left_signed)
    right_index = InvertedIndex.build(right_signed)
    common = left_index.common_keys(right_index)

    overlap_counts: Dict[Tuple[int, int], int] = defaultdict(int)
    processed = 0
    for key in common:
        left_postings = left_index.postings(key)
        right_postings = right_index.postings(key)
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


def probe_single(
    postings_map: Dict,
    signed_probe,
    requirement: int,
    *,
    probe_id: Optional[int] = None,
    probe_is_left: bool = True,
    exclude_self_pairs: bool = False,
    postings_ascending: bool = False,
) -> Tuple[List[int], int, Dict[int, int]]:
    """Stream ONE probe signature through an inverted index (the hot loop).

    This is the single-record unit of the filtering stage, shared by the
    batch driver (:func:`_probe_candidates` calls it once per probe record)
    and the online search index (one call per ``query``).  A partner id is
    emitted the moment its overlap counter reaches ``requirement`` and
    further counting for that partner short-circuits.

    ``exclude_self_pairs`` implements the self-join orientation contract
    (keep ``left < right``; ``probe_id`` is required then): when the probe
    plays the left role, indexed partners ``<= probe_id`` are skipped;
    otherwise partners ``>= probe_id`` are skipped — and with
    ``postings_ascending`` (records were indexed in ascending id order) the
    scan breaks out of a posting list at the first such partner instead of
    stepping past every excluded entry.

    Returns ``(partners, processed, counts)``: the partner ids in emission
    order, the touched-postings count (the paper's per-record ``T_τ``
    share), and the saturating per-partner overlap counters.
    """
    partners: List[int] = []
    processed = 0
    counts: Dict[int, int] = {}
    counts_get = counts.get
    get_postings = postings_map.get
    for key in signed_probe.signature_key_sequence:
        postings = get_postings(key)
        if postings is None:
            continue
        for other in postings:
            if exclude_self_pairs:
                if probe_is_left:
                    if other <= probe_id:
                        continue
                elif other >= probe_id:
                    if postings_ascending:
                        break  # nothing left to pair with in this list
                    continue
            processed += 1
            count = counts_get(other, 0)
            if count >= requirement:
                continue  # short-circuit: already a candidate
            count += 1
            counts[other] = count
            if count == requirement:
                partners.append(other)
    return partners, processed, counts


def _probe_candidates(
    postings_map: Dict,
    probe_records: Sequence[SignedRecord],
    requirement: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    collect_counts: bool = False,
    postings_ascending: bool = False,
) -> Tuple[List[Tuple[int, int]], int, Optional[Dict[Tuple[int, int], int]]]:
    """Stream probe signatures through an inverted index, one per record.

    Orientation: with ``probe_is_left`` the index holds the right side and
    candidates are ``(probe_id, other)``; otherwise the index holds the left
    side (or the single self-join index) and candidates are
    ``(other, probe_id)``.  The per-record filtering itself — overlap
    counters, τ short-circuit, self-pair exclusion — lives in
    :func:`probe_single`; this wrapper only orients the emitted pairs.
    """
    candidates: List[Tuple[int, int]] = []
    processed = 0
    overlap: Optional[Dict[Tuple[int, int], int]] = {} if collect_counts else None

    for signed in probe_records:
        probe_id = signed.record.record_id
        partners, touched, counts = probe_single(
            postings_map,
            signed,
            requirement,
            probe_id=probe_id,
            probe_is_left=probe_is_left,
            exclude_self_pairs=exclude_self_pairs,
            postings_ascending=postings_ascending,
        )
        processed += touched
        if probe_is_left:
            candidates.extend((probe_id, other) for other in partners)
        else:
            candidates.extend((other, probe_id) for other in partners)
        if overlap is not None:
            if probe_is_left:
                for other, count in counts.items():
                    overlap[(probe_id, other)] = count
            else:
                for other, count in counts.items():
                    overlap[(other, probe_id)] = count
    return candidates, processed, overlap


def _ids_ascending(signed_records: Sequence[SignedRecord]) -> bool:
    """True when the records appear in strictly ascending id order.

    Index posting lists inherit this order, which is what licenses the
    early-``break`` exclusion in :func:`_probe_candidates`.  Signed lists
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
    Exposed separately so the process-pool driver (which builds the index
    inside each worker) shares the side-selection decision with the
    in-process paths.
    """
    if left_signed is right_signed:
        return left_signed, left_signed, False
    left_footprint = sum(s.signature_length for s in left_signed)
    right_footprint = sum(s.signature_length for s in right_signed)
    if left_footprint <= right_footprint:
        return left_signed, right_signed, False
    return right_signed, left_signed, True


def _choose_index_side(
    left_signed: Sequence[SignedRecord],
    right_signed: Sequence[SignedRecord],
) -> Tuple[InvertedIndex, Sequence[SignedRecord], bool, bool]:
    """Build the index on the smaller-footprint side; stream the other.

    Returns ``(index, probe_records, probe_is_left, postings_ascending)``.
    """
    index_records, probe_records, probe_is_left = _pick_index_side(
        left_signed, right_signed
    )
    return (
        InvertedIndex.build(index_records),
        probe_records,
        probe_is_left,
        _ids_ascending(index_records),
    )


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
    verifier:
        Custom verifier; defaults to the approximate unified similarity.
    adaptive_verification:
        Enable the adaptive tier controller of the default verifier: a
        bound tier whose observed hit rate drops below its cost is skipped
        and periodically re-probed (pairs stay identical; see
        :class:`~repro.join.verification.UnifiedVerifier`).  Ignored when a
        custom ``verifier`` is supplied.
    store:
        An optional :class:`~repro.store.PreparedStore`.  Historically only
        the :class:`~repro.join.framework.UnifiedJoin` facade was
        store-backed; with a store here, the *engine* resolves raw
        collections through the on-disk store in :meth:`prepare` /
        :meth:`as_prepared`, and :meth:`join` / :meth:`join_batches`
        persist store-managed preparations back whenever the run enriched
        them (added signings), so direct engine users get the same
        warm-run behaviour as the facade.
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
        verifier: Optional[Verifier] = None,
        approximation_t: float = 4.0,
        adaptive_verification: bool = False,
        store: Optional["PreparedStore"] = None,
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
                "the U-Filter method implies tau=1 (Algorithm 3); "
                f"got tau={tau} — pass tau=1 or use an AU-Filter method"
            )
        self.config = config
        self.theta = theta
        self.tau = tau
        self.method = method
        self.order_strategy = order_strategy
        self.verifier = verifier or UnifiedVerifier(
            config, theta, t=approximation_t, adaptive=adaptive_verification
        )
        self.approximation_t = approximation_t
        self.store = store
        resolve_kernel(kernel)  # validate eagerly: typos fail at construction
        self.kernel = kernel
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
            if collection.config is not self.config and collection.config != self.config:
                raise ValueError(
                    "the prepared collection is bound to a different MeasureConfig; "
                    "prepare it with this engine (or use an equal config)"
                )
            return collection
        return self.prepare(collection)

    def _store_entries(
        self, *prepared: Optional[PreparedCollection]
    ) -> List[Tuple[PreparedCollection, int]]:
        """Store-managed sides with their signature-cache size at resolve time.

        Mirrors the facade's persist-back bookkeeping: only preparations
        this engine's store loaded or built are candidates (a preparation
        the caller built elsewhere is theirs), each recorded once.
        """
        if self.store is None:
            return []
        entries: List[Tuple[PreparedCollection, int]] = []
        for prep in prepared:
            if (
                prep is not None
                and self.store.manages(prep)
                and all(prep is not known for known, _ in entries)
            ):
                entries.append((prep, prep.cached_signature_count))
        return entries

    def _persist_store_entries(
        self, entries: List[Tuple[PreparedCollection, int]]
    ) -> None:
        """Write store-managed preparations back when a join enriched them."""
        if self.store is None:
            return
        for prepared, count_at_resolve in entries:
            if prepared.cached_signature_count != count_at_resolve:
                self.store.save(prepared)

    def build_order(
        self, left: Joinable, right: Optional[Joinable] = None
    ) -> GlobalOrder:
        """Build the corpus-wide pebble order over one or two collections."""
        from .pebbles import generate_pebbles

        order = GlobalOrder(self.order_strategy)
        for collection in (left, right):
            if collection is None:
                continue
            if isinstance(collection, PreparedCollection):
                collection.contribute_to_order(order)
                continue
            for record in collection:
                _, pebbles = generate_pebbles(record.tokens, self.config)
                order.add_record_pebbles(pebbles)
        return order

    def sign_collection(
        self, collection: Joinable, order: GlobalOrder
    ) -> List[SignedRecord]:
        """Sign every record of a collection under the given global order."""
        if isinstance(collection, PreparedCollection):
            return collection.signed(order, self.theta, self.tau, self.method)
        return [
            sign_record(
                record,
                self.config,
                order,
                self.theta,
                tau=self.tau,
                method=self.method,
            )
            for record in collection
        ]

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
        collect_overlap_counts: bool = False,
        kernel: Optional[str] = None,
        prepared: Optional[Tuple[PreparedCollection, PreparedCollection]] = None,
    ) -> FilterOutcome:
        """Run the probe-based filtering stage (Lines 1–8 of Algorithm 6).

        ``tau`` overrides the configured overlap constraint, which is how the
        recommendation algorithm probes several τ values on one signing.
        ``exclude_self_pairs`` drops ``left_id >= right_id`` pairs for
        self-joins.  When ``left_signed is right_signed`` (every self-join)
        a single index is built and probed against itself.  Candidate sets
        are identical to :func:`dual_index_filter_candidates`; only the
        emission order and the (opt-in, saturated) ``overlap_counts``
        differ.

        The probe runs through the flat filter kernel (``kernel`` overrides
        the engine's :attr:`kernel` knob for this call); requesting
        ``collect_overlap_counts`` takes the legacy dict probe instead,
        because the flat kernels do not track saturated per-pair counters.
        ``prepared`` optionally names the collections that own the signed
        lists so the encoded flat state is memoized per content version.
        """
        requirement = self.tau if tau is None else tau
        if requirement < 1:
            raise ValueError("the overlap requirement must be a positive integer")

        if collect_overlap_counts:
            index, probe_records, probe_is_left, ascending = _choose_index_side(
                left_signed, right_signed
            )
            candidates, processed, overlap = _probe_candidates(
                index.raw_postings,
                probe_records,
                requirement,
                probe_is_left=probe_is_left,
                exclude_self_pairs=exclude_self_pairs,
                collect_counts=True,
                postings_ascending=ascending,
            )
            return FilterOutcome(
                candidates=candidates,
                processed_pairs=processed,
                overlap_counts=overlap or {},
                probe_side="left" if probe_is_left else "right",
            )

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
            overlap_counts={},
            probe_side="left" if probe_is_left else "right",
        )

    def filter_candidates_multi(
        self,
        left_signed: Sequence[SignedRecord],
        right_signed: Sequence[SignedRecord],
        taus: Sequence[int],
        *,
        exclude_self_pairs: bool = False,
    ) -> MultiFilterOutcome:
        """Probe every τ of ``taus`` in one pass over one signing.

        Used by the τ-recommender: one filtering pass with counters capped at
        ``max(taus)`` yields ``V_τ`` for every candidate τ simultaneously,
        replacing ``len(taus)`` full filter runs per sampling iteration.
        """
        unique_taus = sorted(set(taus))
        if not unique_taus:
            raise ValueError("taus must not be empty")
        outcome = self.filter_candidates(
            left_signed,
            right_signed,
            tau=unique_taus[-1],
            exclude_self_pairs=exclude_self_pairs,
            collect_overlap_counts=True,
        )
        counts = list(outcome.overlap_counts.values())
        candidate_counts = {
            tau: sum(1 for count in counts if count >= tau) for tau in unique_taus
        }
        return MultiFilterOutcome(
            processed_pairs=outcome.processed_pairs,
            candidate_counts=candidate_counts,
        )

    # ------------------------------------------------------------------ #
    # full join
    # ------------------------------------------------------------------ #
    def _resolve_sides(
        self, left: Joinable, right: Optional[Joinable]
    ) -> Tuple[PreparedCollection, PreparedCollection, bool]:
        self_join = right is None
        left_prep = self.as_prepared(left)
        if self_join or right is left:
            right_prep = left_prep
        else:
            right_prep = self.as_prepared(right)
        return left_prep, right_prep, self_join

    def _signing_tau(self, signing_tau: Optional[int]) -> int:
        if signing_tau is None:
            return self.tau
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

    def _order_and_sign(
        self,
        left_prep: PreparedCollection,
        right_prep: PreparedCollection,
        precomputed_order: Optional[GlobalOrder],
        signing_tau: Optional[int],
    ) -> Tuple[GlobalOrder, List[SignedRecord], List[SignedRecord]]:
        """Resolve the global order and sign both sides (cache-backed)."""
        sign_tau = self._signing_tau(signing_tau)
        order = self._resolve_order(left_prep, right_prep, precomputed_order)
        left_signed = left_prep.signed(order, self.theta, sign_tau, self.method)
        right_signed = (
            left_signed
            if right_prep is left_prep
            else right_prep.signed(order, self.theta, sign_tau, self.method)
        )
        return order, left_signed, right_signed

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
        *filtering* of each shard in the workers).  ``workers`` sizes the
        process pool; when omitted it defaults to the size of ``pool`` — a
        :class:`~repro.join.pool.WarmJoinPool` whose warm worker processes
        serve the call — else to the CPU count.  ``pool`` is
        process-executor-only, as is ``supervision`` — a
        :class:`~repro.join.supervision.SupervisorPolicy` tuning the
        fault-tolerant shard supervisor (timeouts, retry/respawn budgets,
        serial fallback; supervision is on by default and reports through
        ``statistics.execution``).  Both executors return bit-identical
        pairs, similarities, and statistics counters at every worker count
        (with the default non-adaptive verifier) — including supervised runs
        that retried, respawned, or fell back to serial for some shards.
        """
        resolved_executor = _resolve_executor(executor, workers)
        _check_process_only(resolved_executor, pool=pool, supervision=supervision)
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
            start = time.perf_counter()
            with telemetry.span("prepare") as prepare_span:
                left_prep, right_prep, self_join = self._resolve_sides(left, right)
                entries = self._store_entries(left_prep, right_prep)
            prepare_seconds = _stage_seconds(prepare_span, start)
            if resolved_executor == "process":
                from .parallel import process_join

                result = process_join(
                    self,
                    left_prep,
                    None if self_join else right_prep,
                    workers=workers,
                    precomputed_order=precomputed_order,
                    signing_tau=signing_tau,
                    pool=pool,
                    supervision=supervision,
                )
                # Raw sides were resolved (possibly store-loaded) out here, so
                # their preparation time is folded back into the signing stage.
                result.statistics.signing_seconds += prepare_seconds
                self._persist_store_entries(entries)
                join_span.annotate(pairs=len(result.pairs))
                metrics.counter("join.pairs").add(len(result.pairs))
                return result

            statistics = JoinStatistics(
                tau=self.tau,
                theta=self.theta,
                method=self.method,
                left_records=len(left_prep),
                right_records=len(right_prep),
            )

            with telemetry.span("sign") as sign_span:
                sign_start = time.perf_counter()
                _, left_signed, right_signed = self._order_and_sign(
                    left_prep, right_prep, precomputed_order, signing_tau
                )
            # Stage timings are span-sourced, so the statistics block and the
            # trace report one measurement (hand timers only fill in when
            # telemetry is off and the spans carry no clock).
            statistics.signing_seconds = prepare_seconds + _stage_seconds(
                sign_span, sign_start
            )
            statistics.avg_signature_length_left = _average_signature_length(left_signed)
            statistics.avg_signature_length_right = _average_signature_length(right_signed)
            metrics.histogram("join.sign_seconds").observe(statistics.signing_seconds)

            with telemetry.span("filter", kernel=self.kernel) as filter_span:
                filter_start = time.perf_counter()
                outcome = self.filter_candidates(
                    left_signed,
                    right_signed,
                    exclude_self_pairs=self_join,
                    prepared=(left_prep, right_prep),
                )
            statistics.filtering_seconds = _stage_seconds(filter_span, filter_start)
            statistics.processed_pairs = outcome.processed_pairs
            statistics.candidate_count = outcome.candidate_count
            filter_span.annotate(
                candidates=outcome.candidate_count,
                processed_pairs=outcome.processed_pairs,
            )
            metrics.histogram("join.filter_seconds").observe(
                statistics.filtering_seconds
            )

            with telemetry.span("verify") as verify_span:
                verify_start = time.perf_counter()
                snapshot = self._stats_snapshot()
                pairs = self._verify_candidates(
                    outcome.candidates,
                    left_prep,
                    right_prep,
                    probe_side=outcome.probe_side,
                )
            statistics.verification_seconds = _stage_seconds(verify_span, verify_start)
            statistics.verification = self._stats_delta(snapshot)
            statistics.result_count = len(pairs)
            if statistics.verification is not None:
                verify_span.annotate(
                    **{
                        name: getattr(statistics.verification, name)
                        for name in statistics.verification._COUNTERS
                    }
                )
            metrics.histogram("join.verify_seconds").observe(
                statistics.verification_seconds
            )
            join_span.annotate(pairs=len(pairs))
            metrics.counter("join.pairs").add(len(pairs))

            self._persist_store_entries(entries)
            return JoinResult(pairs=pairs, statistics=statistics)

    def _stats_snapshot(self) -> Optional[VerificationStats]:
        stats = getattr(self.verifier, "stats", None)
        return stats.snapshot() if isinstance(stats, VerificationStats) else None

    def _stats_delta(
        self, snapshot: Optional[VerificationStats]
    ) -> Optional[VerificationStats]:
        if snapshot is None:
            return None
        return self.verifier.stats.diff(snapshot)

    def _verify_candidates(
        self,
        candidates: Iterable[Tuple[int, int]],
        left: PreparedCollection,
        right: PreparedCollection,
        probe_side: str = "left",
    ) -> List[VerifiedPair]:
        verify_batch = getattr(self.verifier, "verify_batch", None)
        if verify_batch is None:
            # Duck-typed verifiers exposing only verify() keep working.
            pairs: List[VerifiedPair] = []
            for left_id, right_id in candidates:
                verified = self.verifier.verify(left[left_id], right[right_id])
                if verified is not None:
                    pairs.append(verified)
            return pairs
        return verify_batch(candidates, left, right, probe_side=probe_side)

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
        included) to the sharded multi-core driver, which streams batches
        back in probe order.  ``suggestion_seconds`` (set by
        ``UnifiedJoin(tau="auto")``) is reported on the first yielded batch.
        The union of all batch pairs equals :meth:`join`'s result, in
        identical order.
        """
        # Validate at call time: the streaming body below lives in an inner
        # generator, so raising here (not on first iteration) needs this
        # wrapper to be a plain function.
        if batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        resolved_executor = _resolve_executor(executor, workers)
        _check_process_only(resolved_executor, pool=pool, supervision=supervision)
        left_prep, right_prep, self_join = self._resolve_sides(left, right)
        entries = self._store_entries(left_prep, right_prep)
        if resolved_executor == "process":
            from .parallel import process_join_batches

            batches = process_join_batches(
                self,
                left_prep,
                None if self_join else right_prep,
                workers=workers,
                batch_size=batch_size,
                precomputed_order=precomputed_order,
                signing_tau=signing_tau,
                suggestion_seconds=suggestion_seconds,
                pool=pool,
                supervision=supervision,
            )
        else:
            batches = self._join_batches_iter(
                left_prep,
                right_prep,
                self_join,
                batch_size,
                precomputed_order,
                signing_tau,
                suggestion_seconds,
            )
        if not entries:
            return batches
        return self._stream_then_persist(batches, entries)

    def _stream_then_persist(
        self,
        batches: Iterator[JoinBatch],
        entries: List[Tuple[PreparedCollection, int]],
    ) -> Iterator[JoinBatch]:
        """Yield every batch, then write back enriched store preparations."""
        yield from batches
        self._persist_store_entries(entries)

    def _join_batches_iter(
        self,
        left_prep: PreparedCollection,
        right_prep: PreparedCollection,
        self_join: bool,
        batch_size: int,
        precomputed_order: Optional[GlobalOrder],
        signing_tau: Optional[int],
        suggestion_seconds: float = 0.0,
    ) -> Iterator[JoinBatch]:
        _, left_signed, right_signed = self._order_and_sign(
            left_prep, right_prep, precomputed_order, signing_tau
        )
        flat, probe_records, probe_is_left = self._flat_filter_state(
            left_signed, right_signed, (left_prep, right_prep)
        )

        first = True
        for chunk_start in range(0, len(probe_records), batch_size):
            chunk_stop = min(chunk_start + batch_size, len(probe_records))
            candidates, processed = flat.probe_span(
                chunk_start,
                chunk_stop,
                self.tau,
                probe_is_left=probe_is_left,
                exclude_self_pairs=self_join,
                kernel=self.kernel,
            )
            snapshot = self._stats_snapshot()
            pairs = self._verify_candidates(
                candidates,
                left_prep,
                right_prep,
                probe_side="left" if probe_is_left else "right",
            )
            yield JoinBatch(
                pairs=pairs,
                candidate_count=len(candidates),
                processed_pairs=processed,
                probe_range=(chunk_start, chunk_stop),
                verification=self._stats_delta(snapshot),
                suggestion_seconds=suggestion_seconds if first else 0.0,
            )
            first = False

    def self_join(self, collection: Joinable) -> JoinResult:
        """Self-join convenience wrapper (pairs reported once, left < right)."""
        return self.join(collection)
