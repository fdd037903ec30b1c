"""Unified telemetry: tracing spans + metrics, default-on, zero-dependency.

The public handle is :class:`Telemetry` — one :class:`~.spans.Tracer` plus
one :class:`~.metrics.MetricsRegistry` bundled so call sites thread a
single object.  Every instrumented entry point (``PebbleJoin``,
``UnifiedJoin``, ``SimilarityIndex``, ``PreparedStore``) accepts
``telemetry=``; passing nothing resolves to the module default
(:func:`get_default`), so instrumentation is on out of the box.  A
disabled bundle (``Telemetry(enabled=False)``, installed process-wide with
:func:`set_default`) switches spans off; its metrics registry still records.
Nothing clears the default bundle, so it keeps only its newest
:data:`DEFAULT_ROOT_LIMIT` root span trees; a bundle a caller constructs
keeps every root.

Workers never receive the parent's bundle: each worker runs its own
:class:`~.spans.Tracer` and ships finished span trees back as plain
payload dicts for :meth:`~.spans.Tracer.adopt` on the parent side (see
``repro.join.parallel``).  Reports — text tree, versioned JSON, JSONL
trace files — live in :mod:`.report` and behind
``python -m repro.telemetry``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .report import (
    build_report,
    read_report,
    render_json,
    render_text,
    write_trace_jsonl,
)
from .spans import (
    NULL_SPAN,
    PAYLOAD_VERSION,
    Span,
    Tracer,
    current_span,
    stamp_event,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_ROOT_LIMIT",
    "NULL_SPAN",
    "PAYLOAD_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "build_report",
    "current_span",
    "get_default",
    "read_report",
    "render_json",
    "render_text",
    "resolve_telemetry",
    "set_default",
    "stamp_event",
    "write_trace_jsonl",
]


class Telemetry:
    """One tracer + one metrics registry, threaded through a run together."""

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer = Tracer(enabled=enabled)
        self.metrics = MetricsRegistry()

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def report(self):
        """The versioned report dict for this bundle's current state."""
        return build_report(self)

    def clear(self) -> None:
        """Drop collected spans and metrics (fresh registry, same handle)."""
        self.tracer.clear()
        self.metrics = MetricsRegistry()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"Telemetry({state}, roots={len(self.tracer.roots)}, "
            f"instruments={len(self.metrics)})"
        )


#: Root span trees the process-wide default bundle retains, newest last.  A
#: long-lived service tracing every join and query through the default would
#: otherwise grow without limit (a one-probe batch query leaves a root of
#: three spans, about 1.7 KB).
DEFAULT_ROOT_LIMIT = 1000

#: The process-wide default bundle every entry point falls back to.
_DEFAULT = Telemetry()
_DEFAULT.tracer.roots = deque(maxlen=DEFAULT_ROOT_LIMIT)


def get_default() -> Telemetry:
    """The process-wide default :class:`Telemetry` bundle."""
    return _DEFAULT


def set_default(telemetry: Telemetry) -> Telemetry:
    """Replace the process-wide default; returns the previous bundle."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = telemetry
    return previous


def resolve_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """An explicit bundle if given, else the process default."""
    return telemetry if telemetry is not None else _DEFAULT
