"""Fixture: pickle-hostile members are fine behind __getstate__, and
unreachable classes are never inspected."""

import threading
import weakref
from typing import Optional


class GuardedState:
    """Reachable, but owns its wire state via __getstate__."""

    def __init__(self, target):
        self.callback = lambda: target
        self.ref = weakref.ref(target)

    def __getstate__(self):
        return {}


class Unshipped:
    """Not reachable from ShardPlan — lambdas here are nobody's business."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cb = lambda: None


class GuardedOptionalState:
    """Reachable only through an ``Optional[...]`` annotation, and owns its
    wire state via __getstate__."""

    def __init__(self):
        self._lock = threading.Lock()

    def __getstate__(self):
        return {}


class ShardPlan:
    state: GuardedState
    optional: Optional[GuardedOptionalState] = None
