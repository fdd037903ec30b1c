"""A versioned on-disk store for prepared join collections.

Preparation is the front-loaded cost of the pebble join framework: pebble
generation, partition bounds, global orders, per-(θ, τ, method) signatures,
and per-record verification state all live in a
:class:`~repro.join.prepared.PreparedCollection`.  The pickle round-trip for
that object already exists (process workers rely on it); this module adds
the missing persistence layer, so a *second run* over a stable corpus skips
preparation — and, when the artifact was saved after a join, signing and
graph-side construction too — entirely.

Artifact identity
-----------------
An artifact is keyed by a **content fingerprint**: a SHA-256 digest over the
records (texts and token sequences, in id order) and the measure
configuration's :meth:`~repro.core.measures.MeasureConfig.content_key`
(q, enabled measures, the synonym-rule multiset, and the taxonomy shape).
This is the persistent counterpart of the content-based ``__eq__`` /
``__hash__`` those classes already implement for process transfer — except
digested from canonical ``repr`` bytes, because ``hash()`` is randomized
per process.  Any change to the corpus, the configuration, or either
knowledge source therefore lands on a different fingerprint and the stale
artifact is simply never consulted again.

File format
-----------
``<fingerprint>.v<format_version>.pkl`` containing one header line ::

    repro-prepared-collection v<format_version> <fingerprint>\n

followed by a pickle of ``{"fingerprint": ..., "prepared": ...}``.  Loads
validate, in order: the header magic, the format version, the header
fingerprint against the freshly computed one, the pickled fingerprint, and
finally the unpickled collection's config and records against the live
inputs (content equality).  Every mismatch is a miss — a stale, renamed,
truncated, or future-format artifact can never be returned.  Writes are
atomic (temp file + ``os.replace``), so a crashed writer leaves either the
old artifact or none.

Corruption quarantine
---------------------
A file that *exists under an artifact's expected name* but fails the
validation chain is not just a miss: left in place it would be re-read and
re-rejected on every single load, forever — a silent, permanent cache hole
at full I/O cost.  Such files are **quarantined**: moved into a
``quarantine/`` subdirectory (out of the store's namespace, so the next
:meth:`PreparedStore.prepare` rebuilds and re-saves cleanly) together with
a ``<name>.reason`` sidecar recording which validation step failed and
when.  Quarantined files are preserved, not deleted — bit rot worth
diagnosing is bit rot worth keeping the evidence for.  A genuinely missing
file is still an ordinary miss.
"""

from __future__ import annotations

import gc
import hashlib
import numbers
import os
import pickle
import re
import time
import uuid
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..core.measures import MeasureConfig
from ..faults import FAULTS
from ..join.prepared import PreparedCollection
from ..records import RecordCollection
from ..telemetry import Telemetry, resolve_telemetry

__all__ = [
    "FORMAT_VERSION",
    "INDEX_FORMAT_VERSION",
    "PreparedStore",
    "QUARANTINE_DIRNAME",
    "StoreOutcome",
    "StoredArtifact",
    "collection_fingerprint",
]

#: Subdirectory (under the store root) holding quarantined artifacts.  Its
#: name can never collide with an artifact (those match ``_ARTIFACT_NAME``).
QUARANTINE_DIRNAME = "quarantine"

#: Current on-disk format version.  Bump whenever the pickled layout of
#: prepared collections (or this header) changes incompatibly; artifacts
#: written under any other version are never loaded.
#: v2: prepared and signed records no longer carry a partition-size field.
FORMAT_VERSION = 2

#: On-disk format version of similarity-index snapshots (independent of the
#: prepared-collection format: the two artifact kinds evolve separately).
#: v3: the pickled index holds one row length per member (-1 for a
#: tombstone) and no signed records or drift-tracking fields; each row is
#: re-derived exactly on load (see
#: :meth:`repro.search.index.SimilarityIndex.__getstate__`).  Artifacts of
#: older versions are simply never consulted again, per the store's
#: versioning contract.
#: v4: rows are signed with the exact ``MP(S)``, so v3 row lengths are stale.
#: v5: the pickled index no longer stores the deleted adaptive gate's flag.
INDEX_FORMAT_VERSION = 5

_MAGIC = "repro-prepared-collection"
_INDEX_MAGIC = "repro-similarity-index"

#: Artifact filenames: ``<sha256>.v<N>.pkl`` for prepared collections and
#: ``<sha256>.idx.v<N>.pkl`` for similarity-index snapshots.
_ARTIFACT_NAME = re.compile(
    r"^(?P<fingerprint>[0-9a-f]{64})\.(?P<idx>idx\.)?v(?P<version>\d+)\.pkl$"
)

#: Anything fingerprintable: a raw collection or a prepared one.
Fingerprintable = Union[RecordCollection, PreparedCollection]


def _check_budget(budget: object, name: str) -> None:
    """Raise ``ValueError`` unless ``budget`` is an integer ``>= 0``.

    That is what ``python -m repro.store`` parses.  A float is refused
    rather than compared: ``total <= nan`` is never true, so a NaN budget
    would evict every artifact.  A bool is refused too.
    """
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 0:
        raise ValueError(f"{name} must be a non-negative integer; got {budget!r}")


def collection_fingerprint(
    collection: Fingerprintable, config: MeasureConfig
) -> str:
    """The content fingerprint of (records, measure configuration).

    Stable across processes and Python runs: built by streaming canonical
    ``repr`` bytes — record texts and token tuples in id order, then the
    config's :meth:`~repro.core.measures.MeasureConfig.content_key` — into
    SHA-256.  Two inputs compare equal under the content-based ``__eq__``
    of collections-with-configs iff they fingerprint identically.
    """
    if isinstance(collection, PreparedCollection):
        collection = collection.collection
    hasher = hashlib.sha256()
    hasher.update(b"records:%d\n" % len(collection))
    for record in collection:
        hasher.update(repr((record.text, record.tokens)).encode("utf-8"))
        hasher.update(b"\x00")
    hasher.update(b"config:")
    hasher.update(repr(config.content_key()).encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class StoredArtifact:
    """One on-disk artifact's metadata (no payload read).

    ``kind`` is ``"prepared"`` or ``"index"``; ``modified`` is the file's
    mtime, which doubles as the store's recency signal: loads touch it, so
    least-recently-*used* — not least-recently-written — artifacts evict
    first.
    """

    path: Path
    kind: str
    fingerprint: str
    format_version: int
    size_bytes: int
    modified: float


@dataclass
class StoreOutcome:
    """What one :meth:`PreparedStore.prepare` call did.

    ``hit`` is True when a valid artifact was loaded (preparation skipped);
    ``seconds`` is the wall time of the load or of the fresh preparation
    plus the initial save.
    """

    hit: bool
    fingerprint: str
    path: Path
    seconds: float


class PreparedStore:
    """A directory of versioned, fingerprint-keyed prepared collections.

    >>> store = PreparedStore("artifacts/")
    >>> prepared = store.prepare(records, config)   # cold: builds + saves
    >>> result = engine.join(prepared)
    >>> store.save(prepared)                        # persist warm signatures
    ...
    >>> prepared = store.prepare(records, config)   # warm: loads; the next
    ...                                             # join signs from cache

    The store never returns a stale artifact: the corpus, the measure
    configuration, both knowledge sources, and the format version all feed
    the validation chain (see the module docs).  ``format_version`` is
    overridable for tests that exercise the version bump path.

    Alongside prepared collections the store holds **similarity-index
    snapshots** (:meth:`save_index` / :meth:`load_index`, the persistence
    layer of :class:`~repro.search.SimilarityIndex`), and it can enforce a
    **size budget**: with ``size_budget_bytes`` set, every save evicts
    least-recently-used artifacts (loads refresh recency) until the
    directory fits; :meth:`evict` applies the same policy on demand, and
    ``python -m repro.store`` exposes it from the command line.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        *,
        format_version: int = FORMAT_VERSION,
        index_format_version: int = INDEX_FORMAT_VERSION,
        size_budget_bytes: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if size_budget_bytes is not None:
            _check_budget(size_budget_bytes, "size_budget_bytes")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.format_version = format_version
        self.index_format_version = index_format_version
        self.size_budget_bytes = size_budget_bytes
        # Stored raw, resolved lazily: the default bundle may be swapped
        # after this store is built, and a pickled store must not drag one.
        self._telemetry = telemetry
        self.last_outcome: Optional[StoreOutcome] = None
        # Collections this store instance handed out (loaded or built),
        # mapped to (content fingerprint, content_version at that time), so
        # a store-backed facade can tell "persist my enrichments back" from
        # "the caller brought their own preparation" and save() skips
        # re-hashing the corpus.  The cached fingerprint is valid while the
        # version matches: records are immutable and knowledge sources are
        # treated as frozen once shared, but a collection *extended* in
        # place (the search index's ingestion path) bumps its
        # content_version, which invalidates the memo instead of letting a
        # stale fingerprint alias new content.  Weak: the store must not
        # pin every collection it ever served.
        self._managed: "weakref.WeakKeyDictionary[PreparedCollection, Tuple[str, int]]" = (
            weakref.WeakKeyDictionary()
        )
        #: ``(quarantined_path, reason)`` per quarantine this instance
        #: performed — in-memory telemetry for callers and tests; the
        #: durable record is the ``.reason`` sidecar on disk.
        self.quarantined: List[Tuple[Path, str]] = []

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry bundle store activity reports to."""
        return resolve_telemetry(self._telemetry)

    @property
    def quarantine_root(self) -> Path:
        """Where failed-validation artifacts are moved (may not exist yet)."""
        return self.root / QUARANTINE_DIRNAME

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a failed-validation file out of the artifact namespace.

        Best-effort by design: quarantine is a side effect of a load miss
        and must never turn the miss into an exception — if the move races
        a concurrent delete or the filesystem refuses, the load still just
        returns ``None``.  The move is an ``os.replace`` within the same
        directory tree (atomic on POSIX), and the ``.reason`` sidecar
        records the failed validation step for later diagnosis.
        """
        try:
            destination = self.quarantine_root / path.name
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError:
            return
        self.quarantined.append((destination, reason))
        self.telemetry.metrics.counter("store.quarantines").add()
        try:
            destination.with_name(destination.name + ".reason").write_text(
                f"{reason}\nquarantined: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n"
            )
        except OSError:  # pragma: no cover - the move alone already helps
            pass

    def quarantine_artifacts(self) -> List[Path]:
        """Quarantined artifact files currently on disk (sidecars omitted)."""
        root = self.quarantine_root
        if not root.is_dir():
            return []
        return sorted(
            path for path in root.iterdir() if not path.name.endswith(".reason")
        )

    def manages(self, prepared: PreparedCollection) -> bool:
        """True when this store loaded or built ``prepared`` (unmutated).

        A collection mutated since the store handed it out (its
        ``content_version`` moved) no longer matches its artifact and is
        deliberately reported as unmanaged.
        """
        entry = self._managed.get(prepared)
        return entry is not None and entry[1] == prepared.content_version

    # ------------------------------------------------------------------ #
    # paths and headers
    # ------------------------------------------------------------------ #
    def path_for(self, fingerprint: str) -> Path:
        """The artifact path of a fingerprint under the current format."""
        return self.root / f"{fingerprint}.v{self.format_version}.pkl"

    def index_path_for(self, fingerprint: str) -> Path:
        """The similarity-index artifact path of a fingerprint."""
        return self.root / f"{fingerprint}.idx.v{self.index_format_version}.pkl"

    @staticmethod
    def _header(magic: str, version: int, fingerprint: str) -> bytes:
        return f"{magic} v{version} {fingerprint}\n".encode("ascii")

    @staticmethod
    def _parse_header(line: bytes, magic: str) -> Optional[tuple]:
        try:
            found_magic, version, fingerprint = (
                line.decode("ascii").strip().split(" ")
            )
        except (UnicodeDecodeError, ValueError):
            return None
        if found_magic != magic or not version.startswith("v"):
            return None
        try:
            return int(version[1:]), fingerprint
        except ValueError:
            return None

    # ------------------------------------------------------------------ #
    # save / load
    # ------------------------------------------------------------------ #
    def save(self, prepared: PreparedCollection) -> Path:
        """Persist a prepared collection (atomically; overwrites).

        Everything the prepared pickle carries survives: pebbles, cached
        single-collection orders, per-(θ, τ, method) signatures re-keyed to
        the persisted orders, and built graph sides — so an artifact saved
        *after* a join makes the next run's signing a cache hit.  Shared
        two-collection orders are weakref-cached and do not persist as
        orders, but the signatures signed under them do, and a warm run's
        rebuilt shared order is content-equal to the persisted signing's —
        :meth:`~repro.join.prepared.PreparedCollection.signed` serves those
        entries through its content-equality fallback, so two-collection
        warm runs sign from cache too.
        """
        entry = self._managed.get(prepared)
        if entry is not None and entry[1] == prepared.content_version:
            fingerprint = entry[0]
        else:
            fingerprint = collection_fingerprint(prepared, prepared.config)
            self._managed[prepared] = (fingerprint, prepared.content_version)
        return self._save_at(fingerprint, prepared)

    def _save_at(self, fingerprint: str, prepared: PreparedCollection) -> Path:
        """:meth:`save` with the (O(corpus) to compute) fingerprint in hand."""
        path = self.path_for(fingerprint)
        payload = pickle.dumps(
            {"fingerprint": fingerprint, "prepared": prepared},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._write_artifact(
            path, self._header(_MAGIC, self.format_version, fingerprint), payload
        )
        return path

    def _write_artifact(self, path: Path, header: bytes, payload: bytes) -> None:
        """Atomically write one artifact, then enforce the size budget.

        Per-writer temp name (not just per-process): two threads sharing
        one store may save the same fingerprint concurrently, and an
        interleaved write to a shared temp file could promote a corrupt
        blob that every later load silently rejects as a permanent miss.
        """
        temp = path.with_name(path.name + f".tmp-{os.getpid()}-{uuid.uuid4().hex}")
        try:
            temp.write_bytes(header + payload)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        metrics = self.telemetry.metrics
        metrics.counter("store.writes").add()
        metrics.counter("store.bytes_written").add(len(header) + len(payload))
        FAULTS.on_store_save(path)
        if self.size_budget_bytes is not None:
            self.evict()

    def load(
        self, collection: RecordCollection, config: MeasureConfig
    ) -> Optional[PreparedCollection]:
        """Load the artifact matching (collection, config), or None.

        Runs the full validation chain; any failure — missing file, foreign
        or corrupt header, format-version mismatch, fingerprint mismatch
        (e.g. a renamed artifact), or content drift between the unpickled
        collection and the live inputs — is a miss, never an exception.
        """
        return self._load_at(
            collection_fingerprint(collection, config), collection, config
        )

    def _load_at(
        self,
        fingerprint: str,
        collection: RecordCollection,
        config: MeasureConfig,
    ) -> Optional[PreparedCollection]:
        """:meth:`load` with the (O(corpus) to compute) fingerprint in hand."""
        path = self.path_for(fingerprint)
        payload = self._read_artifact(path, _MAGIC, self.format_version, fingerprint)
        if payload is None:
            return None
        prepared = payload.get("prepared")
        if not isinstance(prepared, PreparedCollection):
            self._quarantine(path, "payload is not a prepared collection")
            return None
        # Belt and braces: the fingerprint already covers content, but a
        # hand-edited artifact must still not smuggle foreign state in.
        if prepared.config != config or len(prepared) != len(collection):
            self._quarantine(
                path, "stored config or record count drifted from live inputs"
            )
            return None
        if any(
            stored.text != live.text or stored.tokens != live.tokens
            for stored, live in zip(prepared, collection)
        ):
            self._quarantine(path, "stored record content drifted from live inputs")
            return None
        self._managed[prepared] = (fingerprint, prepared.content_version)
        self._touch(path)
        return prepared

    def _read_artifact(
        self, path: Path, magic: str, format_version: int, fingerprint: str
    ) -> Optional[dict]:
        """Read + validate one artifact's header and pickled envelope.

        Shared by both artifact kinds; any failure in the chain — missing
        file, foreign or corrupt header, version or fingerprint mismatch,
        unpicklable or mislabelled payload — is a miss, never an exception.
        A *present* file that fails validation is quarantined on the way
        out (the file's name promised the requested version/fingerprint, so
        a failure means damage, not staleness); a missing file is not.
        """
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        newline = blob.find(b"\n")
        if newline < 0:
            self._quarantine(path, "truncated artifact: no header line")
            return None
        parsed = self._parse_header(blob[: newline + 1], magic)
        if parsed is None:
            self._quarantine(path, "corrupt or foreign artifact header")
            return None
        if parsed != (format_version, fingerprint):
            self._quarantine(
                path,
                "header/filename mismatch: header says "
                f"v{parsed[0]} {parsed[1][:12]}…, filename promises "
                f"v{format_version} {fingerprint[:12]}…",
            )
            return None
        # Unpickling builds the whole corpus at once and none of it is
        # garbage, so cyclic collections during it only add pauses — a full
        # one can cost more than the rest of the load in a large process.
        collecting = gc.isenabled()
        gc.disable()
        try:
            payload = pickle.loads(blob[newline + 1 :])
        except Exception as exc:
            self._quarantine(path, f"unpicklable payload ({type(exc).__name__})")
            return None
        finally:
            if collecting:
                gc.enable()
        if not isinstance(payload, dict) or payload.get("fingerprint") != fingerprint:
            self._quarantine(path, "payload fingerprint mismatch")
            return None
        return payload

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an artifact's mtime: loads count as *uses* for eviction."""
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - raced deletion; harmless
            pass

    # ------------------------------------------------------------------ #
    # the one-call API
    # ------------------------------------------------------------------ #
    def prepare(
        self, collection: RecordCollection, config: MeasureConfig
    ) -> PreparedCollection:
        """Load the prepared collection, or build and persist it.

        A cold call pays full preparation once and writes the baseline
        artifact (pebbles and bounds; call :meth:`save` again after joining
        to persist the signatures too — :class:`~repro.join.UnifiedJoin`
        does that automatically when constructed with a store).  The call's
        outcome (hit/miss, fingerprint, seconds) is recorded in
        :attr:`last_outcome`.
        """
        if isinstance(collection, PreparedCollection):
            raise TypeError(
                "PreparedStore.prepare takes a raw RecordCollection; pass "
                "an already-prepared collection to save() instead"
            )
        telemetry = self.telemetry
        start = time.perf_counter()
        with telemetry.span("store-prepare") as prepare_span:
            fingerprint = collection_fingerprint(collection, config)
            prepared = self._load_at(fingerprint, collection, config)
            hit = prepared is not None
            if prepared is None:
                prepared = PreparedCollection.prepare(collection, config)
                path = self._save_at(fingerprint, prepared)
                self._managed[prepared] = (fingerprint, prepared.content_version)
            else:
                path = self.path_for(fingerprint)
            prepare_span.annotate(hit=hit, fingerprint=fingerprint)
        self.last_outcome = StoreOutcome(
            hit=hit,
            fingerprint=fingerprint,
            path=path,
            seconds=time.perf_counter() - start,
        )
        metrics = telemetry.metrics
        metrics.counter("store.hits" if hit else "store.misses").add()
        metrics.histogram("store.prepare_seconds").observe(
            self.last_outcome.seconds
        )
        return prepared

    # ------------------------------------------------------------------ #
    # similarity-index snapshots
    # ------------------------------------------------------------------ #
    def save_index(self, index) -> Path:
        """Persist a similarity-index snapshot (atomically; overwrites).

        ``index`` is anything exposing ``content_fingerprint()`` and
        pickling whole — in practice a
        :class:`~repro.search.SimilarityIndex`, whose snapshot carries the
        prepared corpus, frozen order, and member row lengths (rows and
        postings re-derive exactly on load, with no selection DP), so
        :meth:`load_index` restores a *serving* index, not a rebuild
        recipe.  Kept duck-typed so the store never imports the search
        layer it persists.
        """
        fingerprint = index.content_fingerprint()
        path = self.index_path_for(fingerprint)
        payload = pickle.dumps(
            {"fingerprint": fingerprint, "index": index},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._write_artifact(
            path,
            self._header(_INDEX_MAGIC, self.index_format_version, fingerprint),
            payload,
        )
        return path

    def load_index(self, fingerprint: str):
        """Load the index snapshot for a fingerprint, or None.

        The validation chain mirrors prepared-collection loads — header
        magic, format version, header and payload fingerprints — plus a
        self-consistency check: the unpickled index must *re-fingerprint*
        to the requested value, so a renamed or hand-edited artifact can
        never serve foreign content.  A hit refreshes the artifact's
        recency.
        """
        path = self.index_path_for(fingerprint)
        payload = self._read_artifact(
            path, _INDEX_MAGIC, self.index_format_version, fingerprint
        )
        if payload is None:
            return None
        index = payload.get("index")
        recompute = getattr(index, "content_fingerprint", None)
        if recompute is None or recompute() != fingerprint:
            self._quarantine(
                path, "index snapshot does not re-fingerprint to its name"
            )
            return None
        self._touch(path)
        return index

    # ------------------------------------------------------------------ #
    # housekeeping (size budget, LRU eviction, inspection)
    # ------------------------------------------------------------------ #
    def artifacts(self) -> List[StoredArtifact]:
        """Every artifact in the store, least-recently-used first.

        Only files matching the artifact naming scheme are listed (any
        format version, both kinds); temp files and foreign content are
        ignored.  The LRU-first order is the eviction order.
        """
        found: List[StoredArtifact] = []
        for path in self.root.iterdir():
            match = _ARTIFACT_NAME.match(path.name)
            if match is None:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append(
                StoredArtifact(
                    path=path,
                    kind="index" if match.group("idx") else "prepared",
                    fingerprint=match.group("fingerprint"),
                    format_version=int(match.group("version")),
                    size_bytes=stat.st_size,
                    modified=stat.st_mtime,
                )
            )
        found.sort(key=lambda artifact: (artifact.modified, artifact.path.name))
        return found

    def total_bytes(self) -> int:
        """Total size of all artifacts currently in the store."""
        return sum(artifact.size_bytes for artifact in self.artifacts())

    def evict(self, budget: Optional[int] = None) -> List[StoredArtifact]:
        """Delete least-recently-used artifacts until the store fits.

        ``budget`` defaults to the store's ``size_budget_bytes``; one of
        the two must be set, and an explicit one is checked like the
        constructor's before anything is deleted.  Returns the evicted
        artifacts (empty when already within budget).  Loads refresh
        mtimes, so a hot artifact survives churn even if it was written
        long ago; note a budget smaller than the newest artifact evicts
        everything, making the store a pass-through.
        """
        if budget is not None:
            _check_budget(budget, "budget")
        else:
            budget = self.size_budget_bytes
        if budget is None:
            raise ValueError(
                "no budget: pass evict(budget=...) or construct the store "
                "with size_budget_bytes"
            )
        listing = self.artifacts()
        total = sum(artifact.size_bytes for artifact in listing)
        evicted: List[StoredArtifact] = []
        for artifact in listing:
            if total <= budget:
                break
            try:
                artifact.path.unlink()
            except OSError:  # pragma: no cover - raced deletion; harmless
                continue
            total -= artifact.size_bytes
            evicted.append(artifact)
        if evicted:
            metrics = self.telemetry.metrics
            metrics.counter("store.evictions").add(len(evicted))
            metrics.counter("store.bytes_evicted").add(
                sum(artifact.size_bytes for artifact in evicted)
            )
        return evicted
