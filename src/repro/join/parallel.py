"""The shard loop: one shard body and one supervised driver for every join.

Algorithm 6 is a single pass over probe records — filter, then verify —
and each probe record's work is independent of every other's.  This module
runs that pass as contiguous probe shards ``[start, stop)``, and every
join, join stream and batch query goes through it:

1. The caller builds one :class:`ShardPlan` with :meth:`ShardPlan.build`:
   the :class:`~repro.join.flat.FlatJoinState` (signature prefixes, posting
   lists, and per-record scalars encoded as flat integer arrays over a
   :class:`~repro.core.vocab.Vocabulary`), both prepared collections, and
   the filter settings.  :class:`~repro.join.aufilter.PebbleJoin` builds it
   from its cache-backed signing;
   :meth:`~repro.search.index.SimilarityIndex.query_batch` from the epoch's
   member postings and the signed probes.
2. :func:`_run_shard_on` is the only shard body: it probes one shard with
   the flat filter kernel and verifies the shard's candidates, each stage
   in its own ``filter`` / ``verify`` span, and returns a
   :class:`ShardResult`.
3. :class:`ShardStream` runs the body over a list of shards and yields
   their results in probe order, on one of two executors:

   * ``"serial"`` runs every shard in the parent, on a plan over the
     caller's own prepared collections and against the caller's own
     verifier — no transfer copy and no verifier copy, so graph sides
     stay cached on the caller's preparation;
   * ``"process"`` ships a plan of pebble-free
     :meth:`~repro.join.prepared.PreparedCollection.transfer_copy` views and
     a fresh copy of the caller's
     :class:`~repro.join.verification.UnifiedVerifier` to worker processes,
     and drives the shards through a
     :class:`~repro.join.supervision.ShardSupervisor` — the one supervised
     loop.  The transport follows from what the call can observe (see
     :func:`_session_manager`): a caller's
     :class:`~repro.join.pool.WarmJoinPool` takes the plan through one
     ``multiprocessing.shared_memory`` segment that workers attach
     zero-copy by name; otherwise, under the fork start method, a per-call
     pool inherits it copy-on-write as its initializer's argument (zero
     serialization); otherwise the call opens a one-shot warm pool and
     closes it afterwards.  No pebble key text crosses the process
     boundary — the vocabulary stays parent-side — and a self-join ships
     its probe arrays only, with the postings re-derived worker-side by
     the same counting sort.

4. ``join`` drains a stream (:meth:`ShardStream.drain`) of one shard over
   the probe side (serial) or ``workers × shards_per_worker`` shards
   (process); ``join_batches`` yields one batch per ``batch_size`` shard;
   a batch query drains one.

Because per-probe filtering is independent across probe records and every
statistic is a plain sum, the merged result — pairs, similarities, and all
statistics counters — is **bit-identical** on both executors at every
worker count (the path-equivalence tests enforce this).  Timing fields
stay wall-clock and span-sourced: on the process executor the caller
drains the stream inside a ``pooled-stage`` span, which therefore runs
from session-manager creation through ``close()`` (pool startup, payload
transport and shutdown included), and the join splits its wall clock
between filtering and verification by the workers' observed stage
proportions, so ``JoinStatistics.total_seconds`` remains comparable across
executors.

Use it through the ``executor="process"`` knob of
:meth:`~repro.join.aufilter.PebbleJoin.join` and
:meth:`~repro.join.aufilter.PebbleJoin.join_batches`::

    engine.join(left, right, executor="process", workers=4)
    engine.join_batches(left, executor="process", batch_size=2048)

:func:`build_shard_plan` exposes the process payload construction on its
own and :func:`plan_payload_bytes` measures it, which is what the scaling
benchmark uses to record transfer bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import ceil
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from ..faults import FAULTS
from ..telemetry.spans import NULL_SPAN, Tracer, reset_stack
from .flat import FlatJoinState, SharedPayload, attach_payload, share_payload
from .global_order import GlobalOrder
from .prepared import PreparedCollection
from .supervision import (
    ExecutionReport,
    ExecutorSession,
    ShardSupervisor,
    ShardTransportError,
    SupervisorPolicy,
)
from .verification import UnifiedVerifier, VerificationStats, VerifiedPair

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .aufilter import Joinable, PebbleJoin

__all__ = [
    "ShardPlan",
    "ShardResult",
    "ShardStream",
    "build_shard_plan",
    "plan_payload_bytes",
    "pool_spans",
    "shard_spans",
]

#: Shards per worker of a process join and a process batch query — several
#: shards per process keep the pool busy when shard costs are skewed, while
#: staying coarse enough that per-task pickling stays negligible.
SHARDS_PER_WORKER = 4


def _stage_seconds(span, began: float) -> float:
    """Span-sourced stage timing, falling back to the hand timer only when
    telemetry is disabled (the null span carries no clock)."""
    if span is NULL_SPAN:
        return time.perf_counter() - began
    return span.wall_seconds


@dataclass
class ShardPlan:
    """Everything the shard body needs, built by :meth:`build` only.

    A process plan is shipped once per worker and is a pure-value object:
    pickling it must round-trip every field, which the pickle round-trip
    tests enforce for the non-trivial members.  ``flat`` carries the whole
    filter-stage payload as integer arrays — prebuilt CSR postings and the
    vocabulary-encoded probe side — so workers skip index construction
    entirely and the index side's key tuples never cross the process
    boundary.
    """

    requirement: int
    left_prep: PreparedCollection
    right_prep: PreparedCollection
    probe_is_left: bool
    exclude_self_pairs: bool
    #: The flat integer payload (CSR postings + encoded probe side).
    flat: FlatJoinState
    #: Filter-kernel selection the shard body dispatches with (a plain
    #: string, pickle-safe; ``"auto"`` resolves inside each worker, so a
    #: numpy-less worker falls back to the pure-Python paths —
    #: bit-identically).
    kernel: str = "auto"
    #: The verifier every worker verifies with: a fresh copy of the
    #: caller's, with zero counters.  Unset on a serial plan, which runs
    #: against the caller's own verifier.
    verifier: Optional[UnifiedVerifier] = None

    @classmethod
    def build(
        cls,
        verifier: UnifiedVerifier,
        flat: FlatJoinState,
        left_prep: PreparedCollection,
        right_prep: PreparedCollection,
        *,
        requirement: int,
        probe_is_left: bool,
        exclude_self_pairs: bool,
        kernel: str,
        executor: str,
    ) -> "ShardPlan":
        """The one plan constructor of every join, join stream and batch query.

        A ``"serial"`` plan holds the caller's own prepared collections.  A
        ``"process"`` plan is the worker payload: pebble-free transfer
        copies of both sides (one copy for a self-join) and a fresh copy of
        ``verifier`` — same settings, zero counters, never the caller's
        object, whose counters the shard results merge back into.
        """
        plan = cls(
            requirement=requirement,
            left_prep=left_prep,
            right_prep=right_prep,
            probe_is_left=probe_is_left,
            exclude_self_pairs=exclude_self_pairs,
            flat=flat,
            kernel=kernel,
        )
        if executor == "serial":
            return plan
        left_copy = left_prep.transfer_copy()
        return replace(
            plan,
            left_prep=left_copy,
            right_prep=(
                left_copy if right_prep is left_prep else right_prep.transfer_copy()
            ),
            verifier=UnifiedVerifier(
                verifier.config,
                verifier.threshold,
                t=verifier.t,
                kernel=verifier.kernel,
            ),
        )

    @property
    def probe_count(self) -> int:
        """Probe-side record count."""
        return self.flat.probe_count


@dataclass
class ShardResult:
    """One shard's contribution, merged losslessly by :meth:`ShardStream.drain`.

    ``verification`` is the shard's cascade-counter delta;
    ``filter_seconds`` / ``verify_seconds`` are the wall clocks of the
    shard's two stage spans.
    ``spans`` carries a worker's trace for this shard as plain payload
    dicts (see :mod:`repro.telemetry.spans`): the worker runs its own
    tracer and the parent grafts the finished tree into its trace with
    ``Tracer.adopt``, so one report covers both sides of the pool.  A shard
    that ran in the parent traced into the parent's tracer directly.
    """

    start: int
    stop: int
    pairs: List[VerifiedPair]
    candidate_count: int
    processed_pairs: int
    verification: VerificationStats
    filter_seconds: float
    verify_seconds: float
    spans: Tuple = ()


class _WorkerRuntime:
    """A plan and the verifier its shards verify with.

    Workers and the parent fallback verify with the plan's own verifier;
    the serial executor passes the caller's ``verifier``.
    """

    def __init__(self, plan: ShardPlan, shm=None, verifier=None) -> None:
        self.plan = plan
        self._shm = shm
        self.verifier = verifier if verifier is not None else plan.verifier

    def release(self) -> None:
        """Drop plan state and detach the shared-memory mapping (if any).

        Flat arrays may be zero-copy views into the mapping, so every
        reference chain to them is cut before the segment is closed — a
        still-exported ``memoryview`` would make the close raise.
        """
        self.plan = None
        self.verifier = None
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - a view outlived us
                pass


#: The per-process runtime, installed by the fork pool's initializer.
_RUNTIME: Optional[_WorkerRuntime] = None


def _fork_start() -> bool:
    """Whether per-call pools fork, so workers inherit the initializer's plan."""
    return multiprocessing.get_start_method() == "fork"


def _export_plan_payload(plan: ShardPlan) -> SharedPayload:
    """Write one plan into a shared-memory segment (arrays out-of-band).

    The flat integer arrays are detached and laid out raw in the segment
    (workers re-view them zero-copy); everything else — the plan shell and
    the prepared collections — pickles once into the segment header.  One
    segment serves every worker on the machine.
    """
    flat_meta, arrays = plan.flat.export()
    return share_payload((replace(plan, flat=None), flat_meta), arrays)


def _attach_plan(name: str) -> Tuple[ShardPlan, object]:
    """Attach an exported plan segment; returns ``(plan, shm)``.

    The caller (worker runtime) must keep ``shm`` referenced while the
    plan's flat arrays are in use — they are views into the mapping.  A
    segment that vanished between publish and attach (crashed parent whose
    cleanup ran early, an injected drop) surfaces as a typed, retryable
    :class:`~repro.join.supervision.ShardTransportError` instead of an
    opaque ``FileNotFoundError`` from deep inside the attach.
    """
    try:
        (plan, flat_meta), buffers, shm = attach_payload(name)
    except FileNotFoundError as exc:
        raise ShardTransportError(
            f"shared-memory plan segment {name!r} is gone; it was unlinked "
            "(or never survived) between publish and attach"
        ) from exc
    plan.flat = FlatJoinState.restore(flat_meta, buffers)
    return plan, shm


def plan_payload_bytes(plan: object) -> int:
    """The pickled size of a shard plan (or any payload object).

    Uses the highest pickle protocol, as the shared-memory export does for
    the plan shell; a :class:`~repro.join.flat.FlatJoinState` pickles as
    its integer arrays without the vocabulary.
    """
    return len(pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL))


def _init_worker(plan: ShardPlan) -> None:
    """Fork pool initializer: adopt the plan, inherited copy-on-write.

    A forked worker receives its initializer arguments with the parent's
    memory, so the plan is never pickled.
    """
    global _RUNTIME
    _RUNTIME = _WorkerRuntime(plan)


def _require_runtime() -> _WorkerRuntime:
    runtime = _RUNTIME
    if runtime is None:  # pragma: no cover - defensive; initializer always ran
        raise RuntimeError("worker used before initialization")
    return runtime


def _run_shard(span: Tuple[int, int], attempt: int = 0) -> ShardResult:
    """Filter and verify one probe shard inside a pool worker process.

    ``attempt`` is the supervisor's dispatch count for this shard — it does
    not change the computation (shards are deterministic), it only feeds
    the fault-injection hook so chaos tests can fault first attempts and
    prove the retry recovers.  The whole shard runs inside a worker-local
    tracer whose finished tree rides back on ``ShardResult.spans``; the
    fault hook fires inside the open shard span, so injected faults stamp
    the span that carried them (a killed worker never returns, and the
    parent synthesizes its failed attempt instead).
    """
    reset_stack()  # forked workers inherit the parent's open spans
    tracer = Tracer()
    with tracer.span(
        "shard", shard=span[0], stop=span[1], attempt=attempt, pid=os.getpid()
    ):
        FAULTS.on_shard(span[0], attempt)
        result = _run_shard_on(_require_runtime(), span, tracer=tracer)
    return replace(result, spans=tuple(tracer.export()))


def _run_shard_on(
    runtime: _WorkerRuntime,
    span: Tuple[int, int],
    tracer: Optional[Tracer] = None,
) -> ShardResult:
    """The shard body: filter one probe span, then verify its candidates.

    Every join, join stream and batch query runs this — in the parent (the
    serial executor and the supervisor's fallback) or in a pool worker.
    Each stage runs in its own span of ``tracer`` and is timed by it; the
    hand clock stands in only when the tracer is disabled (or absent).
    """
    if tracer is None:
        tracer = Tracer(enabled=False)
    plan = runtime.plan
    start, stop = span

    with tracer.span("filter", kernel=plan.kernel) as filter_span:
        began = time.perf_counter()
        candidates, processed = plan.flat.probe_span(
            start,
            stop,
            plan.requirement,
            probe_is_left=plan.probe_is_left,
            exclude_self_pairs=plan.exclude_self_pairs,
            kernel=plan.kernel,
        )
    filter_seconds = _stage_seconds(filter_span, began)
    filter_span.annotate(candidates=len(candidates), processed_pairs=processed)

    verification = VerificationStats()
    with tracer.span("verify") as verify_span:
        began = time.perf_counter()
        pairs = runtime.verifier.verify_batch(
            candidates,
            plan.left_prep,
            plan.right_prep,
            probe_side="left" if plan.probe_is_left else "right",
            stats=verification,
        )
    verify_seconds = _stage_seconds(verify_span, began)
    verify_span.annotate(
        pairs=len(pairs),
        **{name: getattr(verification, name) for name in verification._COUNTERS},
    )

    return ShardResult(
        start=start,
        stop=stop,
        pairs=pairs,
        candidate_count=len(candidates),
        processed_pairs=processed,
        verification=verification,
        filter_seconds=filter_seconds,
        verify_seconds=verify_seconds,
    )


def build_shard_plan(
    engine: PebbleJoin,
    left: Joinable,
    right: Optional[Joinable] = None,
    *,
    precomputed_order: Optional[GlobalOrder] = None,
    signing_tau: Optional[int] = None,
) -> ShardPlan:
    """Build the worker payload for a join without running it.

    This is the plan ``engine.join(left, right, executor="process")``
    would ship.  Exposed so payload sizes can be measured
    (:func:`plan_payload_bytes`) and plans round-tripped in isolation.
    """
    sides = engine.resolve(
        left, right, precomputed_order=precomputed_order, signing_tau=signing_tau
    )
    return engine._plan(sides, "process")


class _ColdSessionManager:
    """Mint per-call fork pools that inherit a plan.

    The plan is the pool initializer's argument, which forked workers
    inherit with the parent's memory — zero pickling, zero copies.
    :meth:`respawn` is the supervisor's recovery hook: it discards the
    (broken or hung) executor without waiting on it and forks a fresh one
    over the same plan.  :meth:`close` shuts the pool down — error paths
    included, tolerant of an already-broken executor.
    """

    def __init__(self, plan: ShardPlan, workers: int) -> None:
        if workers < 1:
            raise ValueError("process execution needs workers >= 1")
        self._workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._plan = plan

    def _discard_pool(self, wait: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=wait, cancel_futures=True)
            # repro: ignore[swallowed-exception] — discarding a dead pool
            except Exception:  # pragma: no cover - broken pools may complain
                pass

    def open(self) -> ExecutorSession:
        self._pool = ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=_init_worker,
            initargs=(self._plan,),
        )
        # Cold pools load the plan in their initializer, so the task
        # signature is just (span, attempt) — ExecutorSession's default.
        return ExecutorSession(self._pool, _run_shard)

    def respawn(self, kind: str) -> ExecutorSession:
        self._discard_pool(wait=False)
        return self.open()

    def close(self) -> None:
        self._discard_pool(wait=True)


class _OneShotPoolManager:
    """A :class:`~repro.join.pool.WarmJoinPool` opened for one call.

    Where the start method is not fork, a per-call pool cannot inherit the
    plan, so it ships through the warm pool's shared-memory session instead;
    the pool itself lives exactly as long as the call.
    """

    def __init__(self, plan: ShardPlan, workers: int) -> None:
        from .pool import WarmJoinPool

        self._pool = WarmJoinPool(workers)
        self._manager = self._pool.session_manager(plan)

    def open(self) -> ExecutorSession:
        return self._manager.open()

    def respawn(self, kind: str) -> ExecutorSession:
        return self._manager.respawn(kind)

    def close(self) -> None:
        try:
            self._manager.close()
        finally:
            self._pool.close()


def _session_manager(plan: ShardPlan, workers: int, pool):
    """The session manager for ``plan``, picked from what the call observes.

    A caller's ``pool`` (a :class:`~repro.join.pool.WarmJoinPool`) takes the
    plan through a shared-memory segment — no pool startup, no re-fork;
    otherwise a fork start method lets a per-call pool inherit it
    (:class:`_ColdSessionManager`); otherwise a one-shot warm pool serves
    the call (:class:`_OneShotPoolManager`).
    """
    if pool is not None:
        return pool.session_manager(plan)
    if _fork_start():
        return _ColdSessionManager(plan, workers)
    return _OneShotPoolManager(plan, workers)


def _pool_size(workers: Optional[int], pool) -> int:
    """``workers``, else a caller's warm pool size, else the CPU count."""
    if workers is not None:
        return workers
    return pool.workers if pool is not None else (os.cpu_count() or 1)


class _ParentFallback:
    """Serial in-parent execution of shards the pool could not complete.

    Materializes a :class:`_WorkerRuntime` from the parent's own plan copy
    on first use (the parent plan keeps its ``flat`` arrays — the shm
    export detaches a copy) and runs shards through the shard body with
    the plan's verifier, as a worker does, so a fallback shard's pairs and
    counters are bit-identical to what a healthy worker would have returned
    and merge into the caller's verifier the same way.
    """

    __slots__ = ("_plan", "_runtime", "_tracer")

    def __init__(self, plan: ShardPlan, tracer: Tracer) -> None:
        self._plan = plan
        self._runtime: Optional[_WorkerRuntime] = None
        self._tracer = tracer

    def __call__(self, span: Tuple[int, int]) -> ShardResult:
        if self._runtime is None:
            self._runtime = _WorkerRuntime(self._plan)
        with self._tracer.span(
            "shard-serial-fallback", shard=span[0], stop=span[1]
        ):
            return _run_shard_on(self._runtime, span, tracer=self._tracer)


def shard_spans(total: int, shard_size: int) -> List[Tuple[int, int]]:
    """Contiguous probe spans of ``shard_size`` records covering ``[0, total)``."""
    return [
        (start, min(start + shard_size, total))
        for start in range(0, total, shard_size)
    ]


def pool_spans(total: int, workers: int) -> List[Tuple[int, int]]:
    """The process executor's shards: ``total`` probes cut into at most
    ``workers × SHARDS_PER_WORKER`` equal contiguous spans."""
    shards = max(workers * SHARDS_PER_WORKER, 1)
    return shard_spans(total, max(1, ceil(total / shards)))


def _split_pooled_wall(
    wall: float, worker_filter: float, worker_verify: float
) -> Tuple[float, float]:
    """Split the pooled stage's wall clock by observed worker proportions.

    Returns ``(filtering, verification)`` seconds: the parent-measured wall
    (pool startup and payload transport included) distributed by the
    summed worker-side stage seconds, so ``JoinStatistics.total_seconds``
    stays an honest end-to-end elapsed time (all attributed to
    verification when no work was measured at all).
    """
    busy = worker_filter + worker_verify
    if busy <= 0.0:
        return 0.0, wall
    filtering = wall * (worker_filter / busy)
    # Remainder, so the two parts sum to the wall.
    return filtering, wall - filtering


def _adopt_failed_attempts(telemetry, report, spans) -> None:
    """Synthesize error spans for shard attempts that died in a worker.

    A killed or timed-out worker never ships its tracer back, so the parent
    reconstructs one error-flagged ``shard-attempt-failed`` span per failed
    attempt from the supervisor's per-shard dispatch counts.  In the merged
    tree the failures sit as siblings next to the attempt that finally
    succeeded.
    """
    if not telemetry.enabled:
        return
    for (start, stop), attempts in zip(spans, report.attempts):
        for attempt in range(attempts - 1):
            # repro: ignore[unclosed-span] — synthesized after the fact
            failed = telemetry.tracer.span(
                "shard-attempt-failed", shard=start, stop=stop, attempt=attempt
            ).start()
            failed.error = True
            failed.end()


def _record_worker_events(metrics, payloads) -> None:
    """Count worker-stamped span events into the parent metrics registry.

    Workers have no registry handle; they stamp events on their local spans
    (warm-pool runtime cache hits, injected faults) and the parent turns the
    events it recognizes into counters while adopting the payloads.
    """
    for payload in payloads or ():
        for event in payload.get("events") or ():
            name = event.get("name")
            if name == "runtime-cache":
                hit = bool((event.get("attrs") or {}).get("hit"))
                metrics.counter(
                    "pool.cache_hits" if hit else "pool.cache_misses"
                ).add()
            elif name == "fault-injected":
                metrics.counter("faults.injected").add()
        _record_worker_events(metrics, payload.get("children"))


def _record_execution_metrics(metrics, report) -> None:
    """Fold a supervisor's execution report into the metrics registry."""
    metrics.counter("supervisor.shards").add(report.shards)
    metrics.counter("supervisor.retries").add(report.retries)
    metrics.counter("supervisor.respawns").add(report.respawns)
    metrics.counter("supervisor.timeouts").add(report.timeouts)
    metrics.counter("supervisor.worker_failures").add(report.worker_failures)
    metrics.counter("supervisor.transport_failures").add(report.transport_failures)
    metrics.counter("supervisor.fallback_shards").add(report.fallback_shards)


class ShardStream:
    """The shard body run over ``spans``; iterating yields their results in order.

    On the ``"serial"`` executor every shard runs in the parent against
    ``verifier`` itself, whose counters therefore accumulate directly, and
    the stage spans go into the current trace.  On ``"process"`` the
    shards run in pool workers under a
    :class:`~repro.join.supervision.ShardSupervisor` over the session
    manager :func:`_session_manager` picks for ``pool`` and ``workers``;
    ``supervision`` is its policy and ``window`` bounds the shards in
    flight (``None`` schedules every shard up front).  As each shard
    arrives its counters merge into ``verifier`` and its worker spans are
    adopted into the trace; the manager is created on the first step of
    the iteration and closed after the last, error paths included.  No
    span is held open across a yield: a consumer may run arbitrary
    (instrumented) code between shards.
    """

    def __init__(
        self,
        plan: ShardPlan,
        spans: Sequence[Tuple[int, int]],
        verifier,
        telemetry,
        *,
        executor: str = "serial",
        workers: int = 1,
        pool=None,
        supervision: Optional[SupervisorPolicy] = None,
        window: Optional[int] = None,
    ) -> None:
        #: The supervisor's live report on the process executor — its
        #: counters grow as the stream runs and are final once it is
        #: exhausted; ``None`` on the serial executor.
        self.execution: Optional[ExecutionReport] = None
        if executor == "serial":
            runtime = _WorkerRuntime(plan, verifier=verifier)
            self._shards = (
                _run_shard_on(runtime, span, telemetry.tracer) for span in spans
            )
        else:
            self.execution = ExecutionReport()
            self._shards = self._supervised(
                plan, spans, verifier, telemetry, workers, pool, supervision, window
            )

    def __iter__(self) -> Iterator[ShardResult]:
        return self._shards

    def _supervised(
        self, plan, spans, verifier, telemetry, workers, pool, supervision, window
    ) -> Iterator[ShardResult]:
        if not spans:
            return
        manager = _session_manager(plan, min(workers, len(spans)), pool)
        supervisor = ShardSupervisor(
            manager, supervision, _ParentFallback(plan, telemetry.tracer)
        )
        self.execution = supervisor.report
        try:
            for shard in supervisor.run(spans, window=window):
                # The caller's verifier keeps cumulative counters across
                # runs, exactly as it would had it verified the shard.
                verifier.stats.merge(shard.verification)
                telemetry.tracer.adopt(shard.spans)
                _record_worker_events(telemetry.metrics, shard.spans)
                yield shard
            _adopt_failed_attempts(telemetry, supervisor.report, spans)
            _record_execution_metrics(telemetry.metrics, supervisor.report)
        finally:
            manager.close()

    def drain(self) -> ShardResult:
        """Run the stream to its end and fold it into one :class:`ShardResult`.

        Pairs concatenate in probe order and every counter and stage time
        sums, which makes the result the shard result of the spans' union.
        """
        merged = ShardResult(0, 0, [], 0, 0, VerificationStats(), 0.0, 0.0)
        for shard in self:
            merged.stop = shard.stop
            merged.pairs.extend(shard.pairs)
            merged.candidate_count += shard.candidate_count
            merged.processed_pairs += shard.processed_pairs
            merged.filter_seconds += shard.filter_seconds
            merged.verify_seconds += shard.verify_seconds
            merged.verification.merge(shard.verification)
        return merged
