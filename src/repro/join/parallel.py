"""Process-pool sharded join driver: true multi-core filter + verify.

This module shards the *probe side* of a prepared join across worker
processes:

1. The parent resolves the prepared sides, builds (or receives) the shared
   global order, and signs both sides once — cache-backed, exactly as the
   serial path does.
2. One :class:`ShardPlan` — the measure config, the
   :class:`~repro.join.flat.FlatJoinState` (signature prefixes, posting
   lists, and per-record scalars re-encoded as flat integer arrays over
   a global :class:`~repro.core.vocab.Vocabulary`), and both prepared
   collections as pebble-free
   :meth:`~repro.join.prepared.PreparedCollection.transfer_copy` views —
   reaches every worker.  The transport follows from what the call can
   observe (see :func:`_session_manager`): a caller's
   :class:`~repro.join.pool.WarmJoinPool` registers the plan through one
   ``multiprocessing.shared_memory`` segment that workers attach zero-copy
   by name; otherwise, under the fork start method, a per-call pool
   inherits the plan copy-on-write from a module global (zero
   serialization); otherwise the call opens a one-shot warm pool and
   closes it afterwards.  No pebble key text crosses the process boundary
   — the vocabulary stays parent-side — and a self-join ships its probe
   arrays only, with the postings re-derived worker-side by the same
   counting sort.
3. Each task is one contiguous shard ``[start, stop)`` of probe records.
   The worker probes its shard with the flat filter kernel (semantics
   identical to the serial probe), verifies the surviving candidates
   through its own :class:`~repro.join.verification.UnifiedVerifier` with
   the full tiered bound cascade, and returns the shard's pairs plus its
   :class:`~repro.join.verification.VerificationStats`.
4. The parent concatenates shard results in probe order and merges every
   counter by summation.

Because per-probe filtering is independent across probe records and every
statistic is a plain sum, the merged result — pairs, similarities, and all
statistics counters — is **bit-identical** to the serial path at every
worker count (with the default non-adaptive verifier; the path-equivalence
tests enforce this).  Timing fields stay wall-clock: the parent measures
the pooled stage end to end (pool startup and payload transport included)
and splits it between filtering and verification by the workers' observed
stage proportions, so ``JoinStatistics.total_seconds`` remains comparable
across executors.

Use it through the ``executor="process"`` knob::

    engine.join(left, right, executor="process", workers=4)
    engine.join_batches(left, executor="process", batch_size=2048)

or call :func:`process_join` / :func:`process_join_batches` directly.
:func:`build_shard_plan` exposes the payload construction on its own and
:func:`plan_payload_bytes` measures it, which is what the scaling benchmark
uses to record transfer bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import count
from math import ceil
from typing import Iterator, List, Optional, Sequence, Tuple

from ..faults import FAULTS
from ..telemetry.spans import Tracer, reset_stack
from .aufilter import (
    JoinBatch,
    JoinResult,
    JoinStatistics,
    Joinable,
    PebbleJoin,
    _average_signature_length,
)
from .flat import FlatJoinState, SharedPayload, attach_payload, share_payload
from .global_order import GlobalOrder
from .prepared import PreparedCollection
from .signatures import SignedRecord
from .supervision import (
    ExecutionReport,
    ExecutorSession,
    ShardSupervisor,
    ShardTransportError,
    SupervisorPolicy,
)
from .verification import UnifiedVerifier, VerificationStats, VerifiedPair

__all__ = [
    "ShardPlan",
    "ShardResult",
    "build_shard_plan",
    "plan_payload_bytes",
    "process_join",
    "process_join_batches",
]

#: Default shards per worker for :func:`process_join` — several shards per
#: process keep the pool busy when shard costs are skewed, while staying
#: coarse enough that per-task pickling stays negligible.
SHARDS_PER_WORKER = 4


@dataclass
class ShardPlan:
    """Everything a worker process needs, shipped once per worker.

    The plan is a pure-value object: pickling it must round-trip every
    field, which the pickle round-trip tests enforce for the non-trivial
    members.  ``flat`` carries the whole filter-stage payload as integer
    arrays — prebuilt CSR postings and the vocabulary-encoded probe side —
    so workers skip index construction entirely and the index side's key
    tuples never cross the process boundary.
    """

    config: object
    threshold: float
    requirement: int
    verifier_kwargs: dict
    left_prep: PreparedCollection
    right_prep: PreparedCollection
    probe_is_left: bool
    exclude_self_pairs: bool
    #: The flat integer payload (CSR postings + encoded probe side).
    flat: FlatJoinState
    #: Filter-kernel selection the workers dispatch with (a plain string,
    #: pickle-safe; ``"auto"`` resolves inside each worker, so a numpy-less
    #: worker falls back to the pure-Python kernel — bit-identically).
    kernel: str = "auto"

    @property
    def probe_count(self) -> int:
        """Probe-side record count."""
        return self.flat.probe_count


@dataclass
class ShardResult:
    """One shard's contribution, merged losslessly on the parent.

    ``spans`` carries the worker-side trace for this shard as plain
    payload dicts (see :mod:`repro.telemetry.spans`): the worker runs its
    own tracer and the parent grafts the finished tree into its trace with
    ``Tracer.adopt``, so one report covers both sides of the pool.
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
    """Per-process state: the plan (with its flat arrays) and a local verifier."""

    def __init__(self, plan: ShardPlan, shm=None) -> None:
        self.plan = plan
        self._shm = shm
        self.verifier = UnifiedVerifier(
            plan.config, plan.threshold, **plan.verifier_kwargs
        )

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

#: Parent-side plan registry for the fork zero-copy path: the plan is
#: parked here *before* the pool forks, so every worker inherits it through
#: copy-on-write page sharing — no pickle, no copy, no segment.  Entries
#: are removed when the owning pool shuts down.
_FORK_PLANS: dict = {}
_FORK_TOKENS = count()


def _fork_start() -> bool:
    """Whether per-call pools fork, so workers can inherit a parked plan."""
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


def _init_worker(token: str) -> None:
    """Fork pool initializer: adopt the copy-on-write inherited plan."""
    global _RUNTIME
    _RUNTIME = _WorkerRuntime(_FORK_PLANS[token])


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
    """Filter and verify one probe shard against a materialized runtime.

    Stage timings are span-sourced: ``filter_seconds`` / ``verify_seconds``
    are the wall clocks of the two stage spans, so the counters on the
    shard result and the trace report one measurement.  Callers without a
    tracer get a private one (its spans are simply never exported).
    """
    if tracer is None:
        tracer = Tracer()
    plan = runtime.plan
    start, stop = span

    with tracer.span("filter", kernel=plan.kernel) as filter_span:
        candidates, processed = plan.flat.probe_span(
            start,
            stop,
            plan.requirement,
            probe_is_left=plan.probe_is_left,
            exclude_self_pairs=plan.exclude_self_pairs,
            kernel=plan.kernel,
        )
    filter_span.annotate(candidates=len(candidates), processed_pairs=processed)

    with tracer.span("verify") as verify_span:
        snapshot = runtime.verifier.stats.snapshot()
        pairs = runtime.verifier.verify_batch(
            candidates,
            plan.left_prep,
            plan.right_prep,
            probe_side="left" if plan.probe_is_left else "right",
        )
    verify_span.annotate(pairs=len(pairs))

    return ShardResult(
        start=start,
        stop=stop,
        pairs=pairs,
        candidate_count=len(candidates),
        processed_pairs=processed,
        verification=runtime.verifier.stats.diff(snapshot),
        filter_seconds=filter_span.wall_seconds,
        verify_seconds=verify_span.wall_seconds,
    )


def _verifier_kwargs(verifier: UnifiedVerifier) -> dict:
    """Reconstruction parameters for per-process verifiers.

    The verifier itself is not picklable (its similarity callable is a
    closure); workers rebuild an equivalent one from these parameters.
    """
    kwargs = {"t": verifier.t, "prune": verifier.prune, "adaptive": verifier.adaptive}
    lower_gate = verifier._lower_gate
    upper_gate = verifier._upper_gate
    if lower_gate is not None and upper_gate is not None:
        kwargs.update(
            adaptive_window=lower_gate.window,
            adaptive_probe_windows=lower_gate.probe_windows,
            lower_tier_cost=lower_gate.min_hit_rate,
            upper_tier_cost=upper_gate.min_hit_rate,
        )
    return kwargs


def _checked_verifier(engine: PebbleJoin) -> UnifiedVerifier:
    verifier = engine.verifier
    if type(verifier) is not UnifiedVerifier:
        raise ValueError(
            "executor='process' requires the default UnifiedVerifier: custom "
            "verifiers cannot be reconstructed in worker processes — use the "
            "serial executor instead"
        )
    return verifier


def _build_plan(
    engine: PebbleJoin,
    left_prep: PreparedCollection,
    right_prep: PreparedCollection,
    left_signed: Sequence[SignedRecord],
    right_signed: Sequence[SignedRecord],
    self_join: bool,
) -> ShardPlan:
    """Assemble the worker payload for one join run.

    The filter stage ships as integer arrays: one
    :class:`~repro.core.vocab.Vocabulary` interning every distinct pebble
    key (kept parent-side), prebuilt CSR postings for the indexed side
    (whose key tuples then never ship at all), and the probe side's CSR
    signature prefixes — plus pebble-free transfer copies of the prepared
    collections for verification.  The flat state is the one the serial
    filter resolves, memoized on the indexed side's preparation, so a
    process join over a preparation a serial filter (or an earlier plan)
    already encoded re-encodes nothing.
    """
    verifier = _checked_verifier(engine)
    flat, _, probe_is_left = engine._flat_filter_state(
        left_signed, right_signed, (left_prep, right_prep)
    )
    left_transfer = left_prep.transfer_copy()
    right_transfer = (
        left_transfer if right_prep is left_prep else right_prep.transfer_copy()
    )
    return ShardPlan(
        # Workers rebuild the *verifier*, so they must see its own config
        # and threshold — a caller may legitimately verify at a different
        # threshold than the engine filters at (verifier=UnifiedVerifier(
        # config, other_theta)), and serial/process must agree on it.
        config=verifier.config,
        threshold=verifier.threshold,
        requirement=engine.tau,
        verifier_kwargs=_verifier_kwargs(verifier),
        left_prep=left_transfer,
        right_prep=right_transfer,
        probe_is_left=probe_is_left,
        exclude_self_pairs=self_join,
        flat=flat,
        kernel=engine.kernel,
    )


def _signed_plan(
    engine: PebbleJoin,
    left: Joinable,
    right: Optional[Joinable],
    precomputed_order: Optional[GlobalOrder],
    signing_tau: Optional[int],
) -> Tuple[ShardPlan, List[SignedRecord], List[SignedRecord]]:
    """Resolve, order, and sign both sides, then build their plan.

    Returns ``(plan, left_signed, right_signed)``; the signed lists feed
    the signature-length statistics.
    """
    left_prep, right_prep, self_join = engine._resolve_sides(left, right)
    _, left_signed, right_signed = engine._order_and_sign(
        left_prep, right_prep, precomputed_order, signing_tau
    )
    plan = _build_plan(
        engine, left_prep, right_prep, left_signed, right_signed, self_join
    )
    return plan, left_signed, right_signed


def build_shard_plan(
    engine: PebbleJoin,
    left: Joinable,
    right: Optional[Joinable] = None,
    *,
    precomputed_order: Optional[GlobalOrder] = None,
    signing_tau: Optional[int] = None,
) -> ShardPlan:
    """Build the worker payload for a join without running it.

    This is the plan :func:`process_join` would ship.  Exposed so payload
    sizes can be measured (:func:`plan_payload_bytes`) and plans
    round-tripped in isolation.
    """
    return _signed_plan(engine, left, right, precomputed_order, signing_tau)[0]


class _ColdSessionManager:
    """Publish a plan for fork inheritance and mint per-call pools over it.

    The plan is parked in :data:`_FORK_PLANS` before the pool forks, so
    every worker inherits it copy-on-write — zero pickling, zero copies.
    :meth:`respawn` is the supervisor's recovery hook: it discards the
    (broken or hung) executor without waiting on it and forks a fresh one,
    which re-reads the same immutable entry.  :meth:`close` shuts the pool
    down and drops the entry — error paths included, tolerant of an
    already-broken executor.
    """

    def __init__(self, plan: ShardPlan, workers: int) -> None:
        if workers < 1:
            raise ValueError("process execution needs workers >= 1")
        self._workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._token = f"plan-{next(_FORK_TOKENS)}"
        _FORK_PLANS[self._token] = plan

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
            initargs=(self._token,),
        )
        # Cold pools load the plan in their initializer, so the task
        # signature is just (span, attempt) — ExecutorSession's default.
        return ExecutorSession(self._pool, _run_shard)

    def respawn(self, kind: str) -> ExecutorSession:
        self._discard_pool(wait=False)
        return self.open()

    def close(self) -> None:
        self._discard_pool(wait=True)
        _FORK_PLANS.pop(self._token, None)


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
    export detaches a copy) and runs shards through the exact worker code
    path, so a fallback shard's pairs and counters are bit-identical to
    what a healthy worker would have returned.
    """

    __slots__ = ("_plan", "_runtime", "_tracer")

    def __init__(self, plan: ShardPlan, tracer: Optional[Tracer] = None) -> None:
        self._plan = plan
        self._runtime: Optional[_WorkerRuntime] = None
        # Fallback shards always time through real spans (ShardResult's
        # stage seconds are span-sourced), so a disabled parent tracer gets
        # a private throwaway: timings survive, nothing enters the trace.
        self._tracer = tracer if tracer is not None and tracer.enabled else Tracer()

    def __call__(self, span: Tuple[int, int]) -> ShardResult:
        if self._runtime is None:
            self._runtime = _WorkerRuntime(self._plan)
        with self._tracer.span(
            "shard-serial-fallback", shard=span[0], stop=span[1]
        ):
            return _run_shard_on(self._runtime, span, tracer=self._tracer)


def _shard_spans(total: int, shard_size: int) -> List[Tuple[int, int]]:
    return [
        (start, min(start + shard_size, total))
        for start in range(0, total, shard_size)
    ]


def _merge_shard(
    engine: PebbleJoin,
    statistics: JoinStatistics,
    merged: VerificationStats,
    pairs: List[VerifiedPair],
    shard: ShardResult,
) -> None:
    """Fold one shard into the run totals and the engine's verifier.

    Mirrors the serial path's accumulation: the parent engine's verifier
    keeps cumulative ``stats`` / ``verified_count`` across joins, so code
    that inspects the verifier after a process join sees the same counters
    it would after a serial one.  Timing is handled by the caller (wall
    clock, not worker sums — see :func:`process_join`).
    """
    pairs.extend(shard.pairs)
    merged.merge(shard.verification)
    statistics.processed_pairs += shard.processed_pairs
    statistics.candidate_count += shard.candidate_count
    engine.verifier.stats.merge(shard.verification)
    engine.verifier.verified_count += shard.candidate_count


def _split_pooled_wall(
    statistics: JoinStatistics,
    wall: float,
    worker_filter: float,
    worker_verify: float,
) -> None:
    """Split the pooled stage's wall clock by observed worker proportions.

    The parent-measured wall (pool startup and payload transport included)
    is distributed across filtering / verification by the summed
    worker-side stage seconds, so ``JoinStatistics.total_seconds`` stays an
    honest end-to-end elapsed time (all attributed to verification when no
    work was measured at all).
    """
    busy = worker_filter + worker_verify
    if busy > 0.0:
        statistics.filtering_seconds = wall * (worker_filter / busy)
        # Remainder, so the two parts always sum to the wall exactly.
        statistics.verification_seconds = wall - statistics.filtering_seconds
    else:
        statistics.verification_seconds = wall


def _adopt_failed_attempts(telemetry, report, spans, base: int) -> None:
    """Synthesize error spans for shard attempts that died in a worker.

    A killed or timed-out worker never ships its tracer back, so the parent
    reconstructs one error-flagged ``shard-attempt-failed`` span per failed
    attempt from the supervisor's per-shard dispatch counts (``attempts``
    entries ``base`` onward belong to this run).  In the merged tree the
    failures sit as siblings next to the attempt that finally succeeded.
    """
    if not telemetry.enabled:
        return
    for index, (start, stop) in enumerate(spans):
        position = base + index
        if position >= len(report.attempts):
            break
        for attempt in range(report.attempts[position] - 1):
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


def process_join(
    engine: PebbleJoin,
    left: Joinable,
    right: Optional[Joinable] = None,
    *,
    workers: Optional[int] = None,
    shards_per_worker: int = SHARDS_PER_WORKER,
    precomputed_order: Optional[GlobalOrder] = None,
    signing_tau: Optional[int] = None,
    pool=None,
    supervision: Optional[SupervisorPolicy] = None,
) -> JoinResult:
    """Run one join with filtering and verification sharded across processes.

    Signing happens (cache-backed) in the parent and the flat integer plan
    ships once per machine (see :func:`_session_manager`).  The result —
    pairs, similarities, and every statistics counter — is bit-identical to
    ``engine.join(left, right)`` at any ``workers`` / ``shards_per_worker``.
    Passing ``pool`` (a :class:`~repro.join.pool.WarmJoinPool`) reuses
    already-warm worker processes instead of starting a pool per call;
    ``workers`` then defaults to the pool's size.  ``filtering_seconds`` /
    ``verification_seconds`` split the *parent-measured wall clock* of the
    pooled stage proportionally to the summed worker-side stage seconds
    (see :func:`_split_pooled_wall`).

    Shard dispatch runs under a :class:`~repro.join.supervision.ShardSupervisor`
    configured by ``supervision`` (default :class:`SupervisorPolicy` —
    retries with respawn, serial fallback, no timeout): a killed worker, a
    hung shard (with ``shard_timeout`` set), or a vanished transport is
    recovered instead of failing the join, and the resulting
    :class:`~repro.join.supervision.ExecutionReport` is attached as
    ``statistics.execution``.  Pass ``SupervisorPolicy(enabled=False)`` for
    the legacy fail-fast behavior.
    """
    workers = _pool_size(workers, pool)
    telemetry = engine.telemetry
    metrics = telemetry.metrics
    start = time.perf_counter()
    with telemetry.span("sign"):
        plan, left_signed, right_signed = _signed_plan(
            engine, left, right, precomputed_order, signing_tau
        )
    statistics = JoinStatistics(
        tau=engine.tau,
        theta=engine.theta,
        method=engine.method,
        left_records=len(plan.left_prep),
        right_records=len(plan.right_prep),
        signing_seconds=time.perf_counter() - start,
        avg_signature_length_left=_average_signature_length(left_signed),
        avg_signature_length_right=_average_signature_length(right_signed),
        execution=ExecutionReport(),
    )

    pairs: List[VerifiedPair] = []
    merged = VerificationStats()
    total = plan.probe_count
    if total:
        spans = _shard_spans(
            total, max(1, ceil(total / max(workers * shards_per_worker, 1)))
        )
        stage_workers = min(workers, len(spans))
        stage_start = time.perf_counter()
        manager = _session_manager(plan, stage_workers, pool)
        supervisor = ShardSupervisor(
            manager, supervision, _ParentFallback(plan, telemetry.tracer)
        )
        base = len(supervisor.report.attempts)
        worker_filter = worker_verify = 0.0
        try:
            with telemetry.span("pooled-stage", workers=stage_workers):
                for shard in supervisor.run(spans):
                    _merge_shard(engine, statistics, merged, pairs, shard)
                    telemetry.tracer.adopt(shard.spans)
                    _record_worker_events(metrics, shard.spans)
                    worker_filter += shard.filter_seconds
                    worker_verify += shard.verify_seconds
                _adopt_failed_attempts(telemetry, supervisor.report, spans, base)
        finally:
            manager.close()
        statistics.execution = supervisor.report
        _record_execution_metrics(metrics, supervisor.report)
        _split_pooled_wall(
            statistics, time.perf_counter() - stage_start, worker_filter, worker_verify
        )
    statistics.verification = merged
    statistics.result_count = len(pairs)
    return JoinResult(pairs=pairs, statistics=statistics)


def process_join_batches(
    engine: PebbleJoin,
    left: Joinable,
    right: Optional[Joinable] = None,
    *,
    workers: Optional[int] = None,
    batch_size: int = 1024,
    precomputed_order: Optional[GlobalOrder] = None,
    signing_tau: Optional[int] = None,
    suggestion_seconds: float = 0.0,
    pool=None,
    supervision: Optional[SupervisorPolicy] = None,
) -> Iterator[JoinBatch]:
    """Stream the join as :class:`JoinBatch` chunks computed by the pool.

    Each batch covers ``batch_size`` probe records — the same chunking as
    the in-process ``join_batches`` — and batches are yielded in probe
    order while later shards are still being computed, so the stream
    overlaps verification with consumption.  The concatenated batches equal
    the serial stream exactly (pairs, order, and per-batch counters).  A
    :class:`~repro.join.pool.WarmJoinPool` passed as ``pool`` serves every
    chunk from the same warm workers, and sizes the submission window when
    ``workers`` is omitted.

    The stream runs supervised exactly like :func:`process_join`
    (``supervision`` knob, same defaults); each yielded batch carries the
    run's **live** :class:`~repro.join.supervision.ExecutionReport` as
    ``batch.execution`` — one shared object whose counters grow as the
    stream progresses, final once the stream is exhausted.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be a positive integer")
    plan = _signed_plan(engine, left, right, precomputed_order, signing_tau)[0]
    return _process_batches_iter(
        engine,
        plan,
        _pool_size(workers, pool),
        batch_size,
        suggestion_seconds,
        pool,
        supervision,
    )


def _process_batches_iter(
    engine: PebbleJoin,
    plan: ShardPlan,
    workers: int,
    batch_size: int,
    suggestion_seconds: float,
    pool,
    supervision: Optional[SupervisorPolicy],
) -> Iterator[JoinBatch]:
    total = plan.probe_count
    if not total:
        return
    spans = _shard_spans(total, batch_size)
    telemetry = engine.telemetry
    manager = _session_manager(plan, min(workers, len(spans)), pool)
    supervisor = ShardSupervisor(
        manager, supervision, _ParentFallback(plan, telemetry.tracer)
    )
    # Bounded submission window: keep every worker busy plus one batch of
    # lookahead, but never schedule the whole probe side up front — a slow
    # consumer must apply backpressure to the pool instead of accumulating
    # all completed shard results in parent memory (the unbounded
    # materialization join_batches exists to avoid).
    window = min(workers + 1, len(spans))
    # No span is held open across yields: a consumer may run arbitrary
    # (instrumented) code between batches, and an open span here would
    # capture it as a child via the thread-local stack.  Worker trees are
    # adopted to the tracer's current attachment point as they arrive.
    base = len(supervisor.report.attempts)
    first = True
    try:
        for shard in supervisor.run(spans, window=window):
            engine.verifier.stats.merge(shard.verification)
            engine.verifier.verified_count += shard.candidate_count
            telemetry.tracer.adopt(shard.spans)
            _record_worker_events(telemetry.metrics, shard.spans)
            yield JoinBatch(
                pairs=shard.pairs,
                candidate_count=shard.candidate_count,
                processed_pairs=shard.processed_pairs,
                probe_range=(shard.start, shard.stop),
                verification=shard.verification,
                suggestion_seconds=suggestion_seconds if first else 0.0,
                execution=supervisor.report,
            )
            first = False
        _adopt_failed_attempts(telemetry, supervisor.report, spans, base)
        _record_execution_metrics(telemetry.metrics, supervisor.report)
    finally:
        manager.close()
