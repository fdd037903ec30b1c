"""Fixture: worker-shipped classes storing pickle-hostile members.

Expect-markers (trailing comments naming a rule id) declare the exact
finding lines the tests assert against.  This module is parsed by the
lint engine, never imported.
"""

import threading
import weakref
from typing import Optional


class CallbackState:
    """Reachable from ShardPlan via annotation; no __getstate__."""

    def __init__(self, target):
        self.callback = lambda: target  # expect[pickle-boundary]
        self.ref = weakref.ref(target)  # expect[pickle-boundary]


class LockedState:
    """Reachable via ``self.x = LockedState(...)`` in CallbackState? No —
    reachable from ShardPlan's class-level annotation below."""

    def setup(self, path):
        self._lock = threading.Lock()  # expect[pickle-boundary]
        self._handle = open(path, "rb")  # expect[pickle-boundary]

    def wire(self):
        def local_hook():
            return None

        self._hook = local_hook  # expect[pickle-boundary]


class OptionalState:
    """Reachable only through ShardPlan's ``Optional[...]`` annotation."""

    def __init__(self):
        self._lock = threading.Lock()  # expect[pickle-boundary]


class ShardPlan:
    """The seed: everything its annotations reach crosses the boundary."""

    state: CallbackState
    locked: "LockedState"
    optional: Optional[OptionalState] = None
