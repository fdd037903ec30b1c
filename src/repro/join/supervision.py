"""Supervised shard execution: retries, timeouts, respawns, serial fallback.

A process pool is not a perfect substrate: a worker can die
(``BrokenProcessPool``), hang, or lose its shared-memory plan segment, and
unsupervised, any of these takes the whole join down with an opaque
exception.  This module is the layer between "submit shards" and "collect
results" — a :class:`ShardSupervisor` that drives any shard session through
a :class:`SupervisorPolicy`.  It is constructed in exactly one place, the
process executor of :class:`repro.join.parallel.ShardStream`, which every
process join, join stream and batch query runs through:

* **Per-shard timeouts** — the head-of-line shard future is awaited with a
  deadline; a shard that exceeds it is treated as hung and recovered.
* **Retries** — a failed or timed-out shard is re-dispatched (at most
  ``1 + max_retries`` pool dispatches per shard), with capped exponential
  backoff ahead of each executor respawn.
* **Respawns** — a broken executor (worker killed), a hung executor
  (timeout), or a lost transport (shm segment vanished) triggers a session
  rebuild through the session *manager*: completed-but-uncollected shard
  results are salvaged first, only incomplete shards are re-dispatched.
* **Serial fallback** — a shard that exhausts its retries (or a session
  that exhausts its respawns) runs in-parent through a serial runner,
  so the join still completes.

Safety argument: shards are deterministic, side-effect-free functions of
the plan — re-running one (in a fresh worker or in the parent) produces
byte-identical pairs and counters, so supervision changes *whether* a join
survives a fault, never *what* it returns.  The randomized chaos tests
assert bit-identity against the serial engine under every injected fault.

Everything the supervisor observed is tallied in an :class:`ExecutionReport`
(attached to ``JoinStatistics.execution`` / ``JoinBatch.execution`` /
``BatchQueryResult.execution``) so callers can distinguish a clean run from
a degraded-but-correct one.

The supervisor is deliberately ignorant of plans, pools, and transports.
It speaks two small protocols:

* a **session manager** with ``open() -> session``, ``respawn(kind) ->
  session`` (``kind`` in ``{"worker", "timeout", "transport"}``) and
  ``close()``;
* a **session** with ``submit_span(span, attempt) -> Future``.

Sessions are instances of :class:`ExecutorSession`, the one place in the
codebase allowed to call ``executor.submit`` for shard work (the
``unsupervised-submit`` invariant — see ``docs/invariants.md``).  The
three session managers, one per transport, construct one around their
live executor and a task-encoding rule instead of submitting themselves:
the fork-inheritance manager of :mod:`repro.join.parallel`, the warm-pool
manager of :mod:`repro.join.pool` (a caller's
:class:`~repro.join.pool.WarmJoinPool`), and the one-shot manager of
:mod:`repro.join.parallel`, which wraps a warm pool opened for one call.
:mod:`repro.join.parallel` also provides the parent-side serial runner.
"""

from __future__ import annotations

import heapq
import math
import numbers
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ExecutionReport",
    "ExecutorSession",
    "ShardSupervisor",
    "ShardTransportError",
    "SupervisorPolicy",
]

#: Cap on remembered error strings in a report (diagnostics, not a log).
_MAX_ERRORS = 16

#: Recovery kinds a session manager can be asked to handle.
RESPAWN_KINDS = ("worker", "timeout", "transport")


class ShardTransportError(RuntimeError):
    """A shard task could not reach its plan payload (e.g. the shm segment
    vanished between publish and attach).

    Typed so the supervisor can treat it as retryable-after-republish
    instead of an opaque ``FileNotFoundError`` from deep inside a worker:
    the executor itself is healthy, only the transport needs rebuilding.
    """


class ExecutorSession:
    """A supervisable shard session over one live process-pool executor.

    This is the codebase's single raw-submission primitive: every
    ``ProcessPoolExecutor`` shard dispatch goes through here so the
    supervisor's accounting (attempt counts riding along to the
    fault-injection hooks, head-of-line deadlines, respawn salvage) can
    never be bypassed by a stray ``executor.submit`` elsewhere.

    ``task`` is the picklable worker entry point; ``encode`` maps
    ``(span, attempt)`` to the positional-argument tuple ``task`` expects,
    which is what lets the cold pool (``_run_shard(span, attempt)``) and
    the warm pool (``_pool_run_shard((name, span, attempt))``) share one
    session type.  ``encode`` stays in the parent — only its *result* is
    pickled.
    """

    __slots__ = ("_executor", "_task", "_encode")

    def __init__(
        self,
        executor,
        task: Callable,
        encode: Optional[Callable[[Tuple[int, int], int], tuple]] = None,
    ) -> None:
        self._executor = executor
        self._task = task
        self._encode = encode

    def submit_span(self, span: Tuple[int, int], attempt: int = 0):
        """Dispatch one shard; ``attempt`` is the supervisor's retry count."""
        args = (span, attempt) if self._encode is None else self._encode(span, attempt)
        return self._executor.submit(self._task, *args)


@dataclass
class SupervisorPolicy:
    """Knobs for one supervised run.

    ``shard_timeout`` is the per-shard deadline in seconds (``None``
    disables timeout detection); a shard is dispatched to the pool at most
    ``1 + max_retries`` times before falling back to serial; the executor
    is rebuilt at most ``max_respawns`` times per supervisor; respawn
    ``i`` sleeps ``min(backoff_cap, backoff_base * 2**(i-1))`` first.
    ``enabled=False`` bypasses supervision entirely (legacy fail-fast
    semantics — the benchmark's overhead baseline).

    Invalid values raise ``ValueError`` at construction: ``shard_timeout``
    is ``None`` or finite and > 0 (a zero or NaN deadline expires every
    wait at once, and an infinite one overflows the wait), the retry and
    respawn budgets are ints ≥ 0, and the backoffs are finite and ≥ 0.
    """

    enabled: bool = True
    shard_timeout: Optional[float] = None
    max_retries: int = 2
    max_respawns: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        # The float comparisons are written so that NaN fails them.
        timeout = self.shard_timeout
        if timeout is not None and not 0 < timeout < math.inf:
            raise ValueError(
                f"shard_timeout must be None or finite and > 0; got {timeout!r}"
            )
        for name in ("max_retries", "max_respawns"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < 0
            ):
                raise ValueError(f"{name} must be an integer >= 0; got {value!r}")
        for name in ("backoff_base", "backoff_cap"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0; got {value!r}")

    def backoff_seconds(self, respawn_index: int) -> float:
        if self.backoff_base <= 0.0:
            return 0.0
        return min(
            self.backoff_cap, self.backoff_base * (2 ** max(respawn_index - 1, 0))
        )


@dataclass
class ExecutionReport:
    """What the supervisor saw and did across one driver call.

    ``attempts[i]`` counts executions of shard ``i`` (pool dispatches plus
    a possible serial run) — all 1 on a clean run.  ``retries`` counts pool
    re-dispatches, ``respawns`` executor/transport rebuilds,
    ``fallback_shards`` shards that ultimately ran serially in the parent.
    ``respawn_seconds`` is the wall clock spent tearing down and rebuilding
    sessions (backoff sleeps included); ``errors`` holds bounded reprs of
    the observed failures for diagnostics.
    """

    shards: int = 0
    attempts: List[int] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    worker_failures: int = 0
    transport_failures: int = 0
    fallback_shards: int = 0
    respawn_seconds: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def faulted(self) -> bool:
        """True when anything beyond clean first-attempt execution happened."""
        return bool(
            self.retries
            or self.respawns
            or self.timeouts
            or self.worker_failures
            or self.transport_failures
            or self.fallback_shards
        )

    def record_error(self, exc: BaseException) -> None:
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(f"{type(exc).__name__}: {exc}"[:200])


class ShardSupervisor:
    """Drive shard spans through a session manager under a policy.

    One supervisor serves one shard stream; its :attr:`report` accumulates
    across (possibly several) :meth:`run` invocations.
    The caller owns the manager's terminal ``close()``.
    """

    def __init__(
        self,
        manager,
        policy: Optional[SupervisorPolicy] = None,
        serial_runner: Optional[Callable[[Tuple[int, int]], object]] = None,
    ) -> None:
        self.manager = manager
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.serial_runner = serial_runner
        self.report = ExecutionReport()
        self._session = None
        self._opened = False
        self._dead = False

    # ------------------------------------------------------------------ #
    # session lifecycle
    # ------------------------------------------------------------------ #
    def _open_plain(self):
        """Open the session, propagating failures (unsupervised paths)."""
        if self._session is None:
            self._session = self.manager.open()
            self._opened = True
        return self._session

    def _ensure_session(self):
        """The live session, or ``None`` once supervision gave up on it."""
        if self._dead:
            return None
        if not self._opened:
            self._opened = True
            try:
                self._session = self.manager.open()
            except Exception as exc:
                self.report.record_error(exc)
                self._abandon()
        return self._session

    def _abandon(self) -> None:
        self._dead = True
        self._session = None

    def _respawn(self, kind: str) -> None:
        """Rebuild the session after a ``kind`` failure (or give up)."""
        if self._dead:
            return
        if self.report.respawns >= self.policy.max_respawns:
            self._abandon()
            return
        self.report.respawns += 1
        began = time.perf_counter()
        try:
            delay = self.policy.backoff_seconds(self.report.respawns)
            if delay > 0.0:
                time.sleep(delay)
            self._session = self.manager.respawn(kind)
        except Exception as exc:
            self.report.record_error(exc)
            self._abandon()
        finally:
            self.report.respawn_seconds += time.perf_counter() - began

    # ------------------------------------------------------------------ #
    # the main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        spans: Sequence[Tuple[int, int]],
        window: Optional[int] = None,
    ) -> Iterator[object]:
        """Execute every span, yielding shard results **in span order**.

        ``window`` bounds concurrent in-flight dispatches (backpressure for
        streaming consumers); ``None`` schedules everything up front.  The
        generator is the whole control loop: dispatch, head-of-line wait
        with deadline, failure classification, salvage + re-dispatch of
        incomplete shards after a respawn, and serial fallback for shards
        the pool cannot complete.
        """
        spans = list(spans)
        total = len(spans)
        report = self.report
        report.shards += total
        base = len(report.attempts)
        report.attempts.extend([0] * total)
        if total == 0:
            return
        window = total if window is None else max(1, min(window, total))

        if not self.policy.enabled:
            yield from self._run_plain(spans, window, base)
            return

        ready: List[int] = list(range(total))
        pending: dict = {}  # Future -> index, in submission order
        results: dict = {}
        serial_marked: set = set()

        def serial_run(index: int) -> None:
            if not self.policy.serial_fallback or self.serial_runner is None:
                raise RuntimeError(
                    f"shard {spans[index]} failed in the pool and serial "
                    f"fallback is unavailable (errors: {self.report.errors[-3:]})"
                )
            report.attempts[base + index] += 1
            report.fallback_shards += 1
            results[index] = self.serial_runner(spans[index])

        def requeue(index: int) -> None:
            if report.attempts[base + index] >= 1 + self.policy.max_retries:
                serial_marked.add(index)
            heapq.heappush(ready, index)

        def recover(kind: str) -> None:
            # Salvage shards that completed but were never collected —
            # their results are as good as any; only genuinely incomplete
            # shards are re-dispatched.
            for future in list(pending):
                if not future.done():
                    continue
                index = pending[future]
                try:
                    results[index] = future.result(timeout=0)
                except Exception:
                    continue  # failed future: falls through to requeue
                del pending[future]
            for future, index in pending.items():
                future.cancel()
                requeue(index)
            pending.clear()
            self._respawn(kind)

        def fill() -> None:
            while ready and len(pending) < window:
                index = heapq.heappop(ready)
                session = self._ensure_session()
                if session is None or index in serial_marked:
                    serial_run(index)
                    continue
                attempt = report.attempts[base + index]
                try:
                    future = session.submit_span(spans[index], attempt)
                except BrokenExecutor as exc:
                    report.worker_failures += 1
                    report.record_error(exc)
                    heapq.heappush(ready, index)
                    recover("worker")
                    continue
                report.attempts[base + index] += 1
                if attempt > 0:
                    report.retries += 1
                pending[future] = index

        next_yield = 0
        while next_yield < total:
            while next_yield in results:
                yield results.pop(next_yield)
                next_yield += 1
            if next_yield >= total:
                break
            fill()
            if not pending:
                continue  # serial runs landed straight in ``results``
            future = next(iter(pending))
            index = pending[future]
            try:
                # Deadline on the head-of-line future: it was submitted
                # first, so it is running (not queued behind the window) —
                # a deadline from submission time would false-positive on
                # queued shards whenever window > workers.
                shard = future.result(timeout=self.policy.shard_timeout)
            except FutureTimeoutError as exc:
                report.timeouts += 1
                report.record_error(exc)
                recover("timeout")  # the hung future is still pending: requeued
            except ShardTransportError as exc:
                report.transport_failures += 1
                report.record_error(exc)
                del pending[future]
                requeue(index)
                recover("transport")
            except BrokenExecutor as exc:
                report.worker_failures += 1
                report.record_error(exc)
                del pending[future]
                requeue(index)
                recover("worker")
            except Exception as exc:
                # The task itself raised in a healthy pool.  Retry the one
                # shard without touching the executor; a deterministic bug
                # exhausts its retries and re-raises from the serial run,
                # where the traceback is native.
                report.worker_failures += 1
                report.record_error(exc)
                del pending[future]
                requeue(index)
            else:
                del pending[future]
                results[index] = shard

    def _run_plain(
        self, spans: List[Tuple[int, int]], window: int, base: int
    ) -> Iterator[object]:
        """Legacy fail-fast submission (``enabled=False``): bounded window,
        in-order collection, no recovery — the overhead baseline."""
        session = self._open_plain()
        report = self.report
        indices = iter(range(len(spans)))
        pending = deque()
        for index in islice(indices, window):
            report.attempts[base + index] += 1
            pending.append(session.submit_span(spans[index], 0))
        while pending:
            shard = pending.popleft().result()
            index = next(indices, None)
            if index is not None:
                report.attempts[base + index] += 1
                pending.append(session.submit_span(spans[index], 0))
            yield shard
