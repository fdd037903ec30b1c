"""Nestable tracing spans and the per-run tracer that collects them.

A :class:`Span` is one timed unit of work: a name, free-form attributes,
wall and CPU seconds, an error flag, point-in-time *events*, and child
spans.  Spans are context managers and nest through a thread-local active
stack — entering a span while another is open attaches it as a child, so
instrumented layers compose into one tree without passing parents around::

    tracer = Tracer()
    with tracer.span("join", method="au-dp"):
        with tracer.span("filter") as filter_span:
            ...
        filter_span.annotate(candidates=count)

The same thread-local stack powers :func:`stamp_event`, which lets code
with no telemetry handle in scope (the fault injector, cache layers deep
inside a worker) annotate whatever span is currently open.

Process boundary
----------------
Workers run their own :class:`Tracer`; a finished tree serializes to
plain dicts/lists/scalars via :meth:`Span.to_payload` (pickles cheaply,
carries no locks or closures) and the parent grafts it into its own tree
with :meth:`Tracer.adopt` — under the currently open parent span, so one
coherent trace covers both sides of the pool.

Disabled mode
-------------
A tracer built with ``enabled=False`` hands out one shared, stateless
:data:`NULL_SPAN` whose every operation is a no-op — no allocation, no
clock reads, no stack traffic — so default-on call sites cost nearly
nothing to turn off.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "NULL_SPAN",
    "PAYLOAD_VERSION",
    "Span",
    "Tracer",
    "current_span",
    "reset_stack",
    "stamp_event",
]

#: Version of the serialized span payload schema (bump on shape changes).
PAYLOAD_VERSION = 1

_ACTIVE = threading.local()


def _active_stack() -> List["Span"]:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    return stack


def reset_stack() -> None:
    """Drop this thread's active-span stack.

    Forked pool workers inherit the parent's *open* spans through the
    copied thread-local — a new span in the worker would silently attach
    to a dead copy of the parent tree instead of the worker tracer's
    roots.  Worker task entry points reset before tracing.
    """
    _ACTIVE.stack = []


def current_span() -> Optional["Span"]:
    """The innermost open span on this thread, or ``None``."""
    stack = _active_stack()
    return stack[-1] if stack else None


def stamp_event(name: str, **attrs: Any) -> bool:
    """Attach an event to the currently open span of this thread.

    The escape hatch for layers with no telemetry handle in scope (fault
    injection, worker-side caches): if a span is open it gets the event
    and ``True`` comes back; with no open span the stamp is dropped and
    ``False`` comes back — never an error, so hook sites stay free.
    """
    span = current_span()
    if span is None:
        return False
    span.add_event(name, **attrs)
    return True


class Span:
    """One timed, nestable unit of work (see the module docs).

    Wall time uses ``time.perf_counter`` (the same basis as every hand
    timer in the codebase) and CPU time ``time.process_time``.  A span
    attaches itself on :meth:`start`: as a child of the currently open
    span if any, else as a root of its collector list.
    """

    __slots__ = (
        "name",
        "attrs",
        "events",
        "children",
        "error",
        "wall_seconds",
        "cpu_seconds",
        "_collector",
        "_began_wall",
        "_began_cpu",
        "_open",
    )

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        collector: Optional[List["Span"]] = None,
    ) -> None:
        self.name = str(name)
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.events: List[Dict[str, Any]] = []
        self.children: List["Span"] = []
        self.error = False
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._collector = collector
        self._began_wall: Optional[float] = None
        self._began_cpu = 0.0
        self._open = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "Span":
        """Open the span: attach to the tree and start both clocks."""
        if self._open:
            return self
        stack = _active_stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(self)
        elif self._collector is not None:
            self._collector.append(self)
        stack.append(self)
        self._open = True
        self._began_wall = time.perf_counter()
        self._began_cpu = time.process_time()
        return self

    def end(self) -> None:
        """Close the span: stop the clocks and pop the active stack."""
        if not self._open:
            return
        self.wall_seconds = time.perf_counter() - self._began_wall
        self.cpu_seconds = time.process_time() - self._began_cpu
        self._open = False
        stack = _active_stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - misnested close; keep the stack sane
            try:
                stack.remove(self)
            except ValueError:
                pass

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.error = True
            self.attrs.setdefault("error_type", exc_type.__name__)
        self.end()
        return False

    # ------------------------------------------------------------------ #
    # annotation
    # ------------------------------------------------------------------ #
    def annotate(self, **attrs: Any) -> "Span":
        """Merge attributes into the span (usable before or after end)."""
        self.attrs.update(attrs)
        return self

    def add_event(self, name: str, **attrs: Any) -> "Span":
        """Record a point-in-time event inside this span."""
        self.events.append({"name": str(name), "attrs": dict(attrs)})
        return self

    # ------------------------------------------------------------------ #
    # serialization (plain data only: it crosses the pickle boundary)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "error": self.error,
            "attrs": dict(self.attrs),
            "events": [dict(event) for event in self.events],
            "children": [child.to_payload() for child in self.children],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Span":
        span = cls(payload.get("name", "?"), attrs=payload.get("attrs") or {})
        span.wall_seconds = float(payload.get("wall_seconds", 0.0))
        span.cpu_seconds = float(payload.get("cpu_seconds", 0.0))
        span.error = bool(payload.get("error", False))
        span.events = [dict(event) for event in payload.get("events") or ()]
        span.children = [
            cls.from_payload(child) for child in payload.get("children") or ()
        ]
        return span

    def iter_spans(self) -> Iterable["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall={self.wall_seconds * 1000:.2f}ms, "
            f"children={len(self.children)}, error={self.error})"
        )


class _NullSpan:
    """Shared, stateless no-op span handed out by disabled tracers."""

    __slots__ = ()

    name = "null"
    error = False
    wall_seconds = 0.0
    cpu_seconds = 0.0

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}

    @property
    def events(self) -> List[Dict[str, Any]]:
        return []

    @property
    def children(self) -> List["Span"]:
        return []

    def start(self) -> "_NullSpan":
        return self

    def end(self) -> None:
        return None

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def add_event(self, name: str, **attrs: Any) -> "_NullSpan":
        return self

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "wall_seconds": 0.0, "cpu_seconds": 0.0,
                "error": False, "attrs": {}, "events": [], "children": []}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The one null span every disabled code path shares.
NULL_SPAN = _NullSpan()


class Tracer:
    """Per-run span collector: hands out spans and keeps the root list.

    One tracer per process per run; cross-process trees merge through
    :meth:`export` (worker side) and :meth:`adopt` (parent side).  The
    process-wide default bundle swaps ``roots`` for a bounded deque (see
    :data:`repro.telemetry.DEFAULT_ROOT_LIMIT`); every other tracer keeps
    every root.
    """

    __slots__ = ("enabled", "roots")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.roots: List[Span] = []

    def span(self, name: str, **attrs: Any):
        """A new span collected by this tracer (``NULL_SPAN`` if disabled).

        The span attaches on ``start()``/``__enter__`` — as a child of the
        thread's currently open span, else as a new root of this tracer.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(name, attrs=attrs, collector=self.roots)

    def adopt(
        self,
        payloads: Optional[Sequence[Dict[str, Any]]],
        **extra_attrs: Any,
    ) -> List[Span]:
        """Graft serialized span trees (e.g. from a worker) into this trace.

        Each payload is rebuilt and attached under the thread's currently
        open span (so worker shards nest inside the parent's pooled-stage
        span), or as a new root when nothing is open.  ``extra_attrs``
        merge into each adopted root.  Disabled tracers drop the payloads.
        """
        if not self.enabled or not payloads:
            return []
        adopted: List[Span] = []
        parent = current_span()
        for payload in payloads:
            span = Span.from_payload(payload)
            if extra_attrs:
                span.attrs.update(extra_attrs)
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
            adopted.append(span)
        return adopted

    def export(self) -> List[Dict[str, Any]]:
        """Every root tree as plain payload dicts (picklable, versionless
        at this layer — :data:`PAYLOAD_VERSION` is stamped by the report)."""
        return [span.to_payload() for span in self.roots]

    def iter_spans(self) -> Iterable[Span]:
        """Every collected span, depth-first across roots."""
        for root in self.roots:
            yield from root.iter_spans()

    def clear(self) -> None:
        """Drop every collected root, in place: spans already handed out
        keep appending to the same container (and a bounded one stays
        bounded)."""
        self.roots.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"Tracer({state}, roots={len(self.roots)})"
