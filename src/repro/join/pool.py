"""A persistent warm worker pool reused across joins and batch queries.

Without one, every process-executor call pays pool startup — process
spawn or fork, interpreter boot, payload materialization — and shuts the
pool down again (see :func:`repro.join.parallel._session_manager`).  That
amortizes over one big join, but repeated joins, join streams, or
:meth:`~repro.search.index.SimilarityIndex.query_batch` calls pay it over
and over.  :class:`WarmJoinPool` keeps one ``ProcessPoolExecutor`` alive
with **no** baked-in plan; each call's supervised shard loop registers its
:class:`~repro.join.parallel.ShardPlan` with the running workers through a
shared-memory segment (flat integer arrays re-viewed in place, the rest
unpickled once per worker) and reuses the same processes::

    with WarmJoinPool(workers=4) as pool:
        engine.join(left, right, executor="process", pool=pool)
        engine.join(left, other, executor="process", pool=pool)   # no re-fork

Workers cache a small LRU of materialized runtimes keyed by segment name,
so interleaved plans (a search index serving multiple corpora, a batch
stream revisiting one plan per chunk) don't rebuild per task.  The parent
owns every segment and unlinks it when its session ends; worker
attachments are deregistered from the resource tracker, so a clean run
leaves nothing in ``/dev/shm`` and no tracker warnings — the
shared-memory lifecycle tests enforce both.

Workers release every cached runtime when they exit, so no mapping is
still viewed when the interpreter finalizes the segments (a spawned worker
runs that finalization, and a still-exported view would print a
``BufferError`` per worker).  A call that passes no pool but cannot fork
opens a one-shot warm pool of its own for the length of the call.

Results are bit-identical to the serial executor, like every other
transport: the pool only changes *where* the one shard body,
:func:`~repro.join.parallel._run_shard_on`, runs, never what it computes.
"""

from __future__ import annotations

import atexit
import os
from collections import OrderedDict
from dataclasses import replace
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from ..faults import FAULTS
from ..telemetry import get_default
from ..telemetry.spans import Tracer, reset_stack, stamp_event
from .parallel import (
    ShardPlan,
    _attach_plan,
    _export_plan_payload,
    _run_shard_on,
    _WorkerRuntime,
)
from .signatures import check_tau
from .supervision import ExecutorSession

__all__ = ["WarmJoinPool"]

#: Worker-side cap on cached plan runtimes.  Small on purpose: a runtime
#: pins its shared-memory mapping and its prepared collections, so the
#: cache trades a bounded memory ceiling for not rebuilding when a handful
#: of plans interleave.
RUNTIME_CACHE_LIMIT = 4

#: Per-process runtime cache for warm-pool workers, keyed by segment name.
#: Distinct from the initializer-installed ``parallel._RUNTIME`` — a warm
#: worker serves many plans over its lifetime.
_POOL_RUNTIMES: "OrderedDict[str, _WorkerRuntime]" = OrderedDict()


@atexit.register
def _release_runtimes() -> None:
    """Detach every cached mapping before the worker's interpreter exits."""
    while _POOL_RUNTIMES:
        _POOL_RUNTIMES.popitem()[1].release()


def _pool_runtime(name: str) -> _WorkerRuntime:
    """The cached runtime for segment ``name``, attaching on first use."""
    runtime = _POOL_RUNTIMES.get(name)
    if runtime is None:
        # Stamped on the worker's open shard span; the parent counts the
        # events into its registry while adopting the shard's trace.
        stamp_event("runtime-cache", hit=False, segment=name)
        plan, shm = _attach_plan(name)
        runtime = _WorkerRuntime(plan, shm=shm)
        _POOL_RUNTIMES[name] = runtime
        while len(_POOL_RUNTIMES) > RUNTIME_CACHE_LIMIT:
            _, stale = _POOL_RUNTIMES.popitem(last=False)
            stale.release()
    else:
        stamp_event("runtime-cache", hit=True, segment=name)
        _POOL_RUNTIMES.move_to_end(name)
    return runtime


def _pool_run_shard(task):
    """Task entry point: run one shard against a named registered plan.

    ``task`` is ``(name, span)`` or ``(name, span, attempt)`` — the
    supervisor ships its dispatch count so the fault-injection hook can
    target first attempts deterministically.  The runtime attach happens
    *after* the hook: a vanished segment then surfaces as the typed
    :class:`~repro.join.supervision.ShardTransportError` from
    ``_attach_plan``, which the supervisor repairs by re-publishing.
    """
    name, span = task[0], task[1]
    attempt = task[2] if len(task) > 2 else 0
    reset_stack()  # forked workers inherit the parent's open spans
    tracer = Tracer()
    with tracer.span(
        "shard",
        shard=span[0],
        stop=span[1],
        attempt=attempt,
        pid=os.getpid(),
        pool="warm",
    ):
        FAULTS.on_shard(span[0], attempt)
        result = _run_shard_on(_pool_runtime(name), span, tracer=tracer)
    return replace(result, spans=tuple(tracer.export()))


def _warm_session(executor: ProcessPoolExecutor, name: str) -> ExecutorSession:
    """A shard session against one plan registered with a warm pool.

    Warm tasks route through :func:`_pool_run_shard`, which looks the plan
    up by segment name worker-side — so the encoding bakes ``name`` into
    each task tuple.  Submission itself stays in
    :class:`~repro.join.supervision.ExecutorSession`, the codebase's single
    sanctioned raw-submission primitive.
    """
    return ExecutorSession(
        executor,
        _pool_run_shard,
        encode=lambda span, attempt: ((name, span, attempt),),
    )


class _WarmSessionManager:
    """Supervisor-facing session manager over one warm pool + one plan.

    ``open`` exports the plan's shared-memory payload and binds it to the
    pool's current executor; ``respawn`` repairs whichever half failed —
    the payload is always re-exported under a fresh segment name (workers
    attach lazily per name, so a new name sidesteps any poisoned cache
    entry), and the executor is additionally replaced unless the failure
    was purely transport-side (the one case where the workers themselves
    are provably healthy: they reported the typed error and kept running).
    """

    __slots__ = ("_pool", "_plan", "_payload")

    def __init__(self, pool: "WarmJoinPool", plan: ShardPlan) -> None:
        self._pool = pool
        self._plan = plan
        self._payload = None

    def _release_payload(self) -> None:
        payload, self._payload = self._payload, None
        if payload is not None:
            payload.release()

    def open(self) -> ExecutorSession:
        executor = self._pool._ensure_executor()
        self._payload = _export_plan_payload(self._plan)
        return _warm_session(executor, self._payload.name)

    def respawn(self, kind: str) -> ExecutorSession:
        self._release_payload()
        if kind != "transport":
            self._pool.respawn()
        return self.open()

    def close(self) -> None:
        self._release_payload()


class WarmJoinPool:
    """A long-lived process pool that serves many shard plans.

    ``workers`` defaults to the CPU count; a process join through the pool
    sizes its shards from it unless the call names ``workers`` itself.  The
    executor starts lazily on the first session and persists until
    :meth:`close` (or context-manager exit); plans come and go per call.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = (
            check_tau(workers, "workers")
            if workers is not None
            else (os.cpu_count() or 1)
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: Executors replaced over this pool's lifetime (self-healing plus
        #: supervisor-requested respawns) — a health telemetry counter.
        self.respawns = 0

    def _discard_executor(self, wait: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=wait, cancel_futures=True)
            # repro: ignore[swallowed-exception] — discarding a dead pool
            except Exception:  # pragma: no cover - broken pools may complain
                pass

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("WarmJoinPool is closed")
        executor = self._executor
        if executor is not None and getattr(executor, "_broken", False):
            # A worker died since the last session: the executor is
            # permanently unusable.  Self-heal by replacing it instead of
            # handing out a pool that raises on first submit.
            self._discard_executor(wait=False)
            self.respawns += 1
            get_default().metrics.counter("pool.respawns").add()
            executor = None
        if executor is None:
            executor = self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return executor

    def respawn(self) -> ProcessPoolExecutor:
        """Force-replace the executor (the supervisor's recovery hook).

        Unlike the broken-detection in :meth:`_ensure_executor` this also
        covers a *hung* executor — one whose workers are alive but stuck —
        which ``_broken`` never flags; the old pool is discarded without
        waiting on it.
        """
        if self._closed:
            raise RuntimeError("WarmJoinPool is closed")
        self._discard_executor(wait=False)
        self.respawns += 1
        get_default().metrics.counter("pool.respawns").add()
        return self._ensure_executor()

    @property
    def started(self) -> bool:
        """Whether worker processes currently exist."""
        return self._executor is not None

    def session_manager(self, plan: ShardPlan) -> _WarmSessionManager:
        """A supervisor-facing session manager serving ``plan`` (see
        :class:`_WarmSessionManager`)."""
        return _WarmSessionManager(self, plan)

    def close(self) -> None:
        """Shut the workers down.  Idempotent and never-raising — closing a
        pool whose executor broke mid-join must not re-raise the stale
        ``BrokenProcessPool``; runtimes die with their processes."""
        self._closed = True
        self._discard_executor(wait=True)

    def __enter__(self) -> "WarmJoinPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("warm" if self.started else "cold")
        return f"WarmJoinPool(workers={self.workers}, state={state})"
