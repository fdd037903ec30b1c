"""Flat integer-encoded join payloads: CSR signatures, postings, probe loop.

The filter stage runs on the *representation* below, never on key tuples:
signature prefixes are re-encoded as flat integer arrays over a
:class:`~repro.core.vocab.Vocabulary`, so the probe loop reads dense ids
instead of hashing tuples, and a worker receives a few integer arrays
instead of pickled dicts:

* :class:`FlatSignatures` — one signed side in CSR form: a ``record_ids``
  array, a ``key_offsets`` prefix array, and a flat ``key_ids`` array
  holding every signature key occurrence as a dense vocabulary id.
  :meth:`FlatSignatures.from_rows` assembles one from per-record id rows
  (the search index keeps one row per member) and
  :meth:`FlatSignatures.take` gathers a subset of rows (the τ estimator's
  Bernoulli samples).
* :class:`FlatPostings` — the inverted index in CSR form: ``offsets`` is
  indexed by key id, ``data`` holds record ids.  Built record-major by a
  counting sort, so each key's posting order is the order of the indexed
  side's rows — ascending ids for every signed list, which licenses the
  self-join early break.
* :class:`FlatJoinState` — the bundle a :class:`~repro.join.parallel.ShardPlan`
  ships: the shared vocabulary, prebuilt postings, and the probe-side CSR
  signatures, probed through :mod:`repro.join.kernels`.  Its arrays detach
  into raw buffers (:meth:`FlatJoinState.export`) and restore zero-copy
  from :mod:`multiprocessing.shared_memory` views
  (:meth:`FlatJoinState.restore`), which is how a warm worker pool receives
  the index side once per machine instead of once per worker.

Arrays are ``array('i')`` (or ``memoryview('i')`` casts over shared
memory); NumPy, when importable, accelerates the CSR postings construction
but never changes a single emitted value.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from .. import shm_registry
from ..core.vocab import Vocabulary
from .kernels import _np  # kernels.py owns numpy availability (REPRO_NO_NUMPY)
from .kernels import probe_span as _kernel_probe_span
from .signatures import SignedRecord

__all__ = [
    "FlatSignatures",
    "FlatPostings",
    "FlatJoinState",
    "share_payload",
    "attach_payload",
    "SharedPayload",
]

#: Sentinel id for a probe key absent from the indexed vocabulary: such a
#: key has no postings by construction, so the probe loop skips it.
UNKNOWN_KEY = -1

_INT = "i"
_INT_BYTES = array(_INT).itemsize


def _as_int_array(values) -> array:
    return array(_INT, values)


class FlatSignatures:
    """One signed side as CSR integer arrays over a shared vocabulary.

    ``key_offsets`` has ``len(self) + 1`` entries; record ``i``'s signature
    key ids are ``key_ids[key_offsets[i]:key_offsets[i + 1]]``, in prefix
    order with per-occurrence duplicates kept — the exact sequence
    ``signature_key_sequence`` holds on the tuple representation.
    """

    __slots__ = ("vocab", "record_ids", "key_offsets", "key_ids")

    def __init__(self, vocab: Vocabulary, record_ids, key_offsets, key_ids) -> None:
        self.vocab = vocab
        self.record_ids = record_ids
        self.key_offsets = key_offsets
        self.key_ids = key_ids

    @classmethod
    def from_signed(
        cls,
        signed: Sequence[SignedRecord],
        vocab: Vocabulary,
        *,
        grow: bool = True,
    ) -> "FlatSignatures":
        """Encode a signed list against ``vocab``.

        With ``grow=True`` unseen keys are interned (the indexed side owns
        the id space); with ``grow=False`` unseen keys encode as
        :data:`UNKNOWN_KEY` — the probe side of a two-collection join uses
        this so probe-only keys (which can never match) neither widen the
        postings array nor mutate a shared long-lived vocabulary.
        """
        record_ids: List[int] = []
        offsets: List[int] = [0]
        key_ids: List[int] = []
        encode = vocab.encode if grow else None
        id_of = vocab.id_of
        for record in signed:
            record_ids.append(record.record.record_id)
            sequence = record.signature_key_sequence
            if grow:
                key_ids.extend(encode(key) for key in sequence)
            else:
                for key in sequence:
                    found = id_of(key)
                    key_ids.append(UNKNOWN_KEY if found is None else found)
            offsets.append(len(key_ids))
        return cls(
            vocab,
            _as_int_array(record_ids),
            _as_int_array(offsets),
            _as_int_array(key_ids),
        )

    @classmethod
    def from_rows(
        cls, vocab: Vocabulary, record_ids: Sequence[int], rows: Sequence
    ) -> "FlatSignatures":
        """Assemble CSR arrays from per-record key-id rows (``array('i')``)."""
        offsets = array(_INT, [0])
        key_ids = array(_INT)
        for row in rows:
            key_ids.extend(row)
            offsets.append(len(key_ids))
        return cls(vocab, _as_int_array(record_ids), offsets, key_ids)

    def take(self, positions: Sequence[int]) -> "FlatSignatures":
        """The rows at ``positions``, in that order (a row gather)."""
        record_ids = self.record_ids
        key_offsets = self.key_offsets
        key_ids = self.key_ids
        return FlatSignatures.from_rows(
            self.vocab,
            [record_ids[p] for p in positions],
            [key_ids[key_offsets[p] : key_offsets[p + 1]] for p in positions],
        )

    def __len__(self) -> int:
        return len(self.record_ids)

    @property
    def total_keys(self) -> int:
        """Total signature key occurrences across all records."""
        return len(self.key_ids)


class FlatPostings:
    """The inverted index as two flat arrays: CSR offsets by key id.

    Key id ``k``'s posting list is ``data[offsets[k]:offsets[k + 1]]``.
    Posting order per key is record-major construction order (a record
    posts once per key *occurrence*, as Algorithm 6 builds its inverted
    lists), which the probe loop's semantics (processed counts, emission
    order, the ascending early break) depend on.
    """

    __slots__ = ("offsets", "data")

    def __init__(self, offsets, data) -> None:
        self.offsets = offsets
        self.data = data

    @classmethod
    def from_flat(cls, flat: FlatSignatures, num_keys: int) -> "FlatPostings":
        """Build postings from an indexed side's CSR signatures.

        Two passes — count, prefix-sum, fill — over integer arrays; NumPy,
        when present, replaces the fill with a stable argsort (stable sort
        by key id preserves record-major order within each key, so the
        result is element-identical to the pure-python pass).
        """
        key_ids = flat.key_ids
        if _np is not None and len(key_ids):
            keys_np = _np.frombuffer(
                key_ids.tobytes() if isinstance(key_ids, array) else bytes(key_ids),
                dtype=_np.int32,
            )
            counts = _np.bincount(keys_np, minlength=num_keys)
            offsets = _np.zeros(num_keys + 1, dtype=_np.int32)
            _np.cumsum(counts, out=offsets[1:])
            lengths = _np.diff(
                _np.frombuffer(flat.key_offsets.tobytes(), dtype=_np.int32)
            )
            record_np = _np.frombuffer(flat.record_ids.tobytes(), dtype=_np.int32)
            per_position = _np.repeat(record_np, lengths)
            order = _np.argsort(keys_np, kind="stable")
            data = per_position[order].astype(_np.int32)
            return cls(
                array(_INT, offsets.astype(_np.int32).tobytes()),
                array(_INT, data.tobytes()),
            )
        counts = [0] * num_keys
        for key_id in key_ids:
            counts[key_id] += 1
        offsets = array(_INT, bytes(_INT_BYTES * (num_keys + 1)))
        running = 0
        for key_id, count in enumerate(counts):
            offsets[key_id] = running
            running += count
        offsets[num_keys] = running
        cursor = list(offsets[:num_keys])
        data = array(_INT, bytes(_INT_BYTES * running))
        record_ids = flat.record_ids
        key_offsets = flat.key_offsets
        for position in range(len(flat)):
            record_id = record_ids[position]
            for i in range(key_offsets[position], key_offsets[position + 1]):
                key_id = key_ids[i]
                data[cursor[key_id]] = record_id
                cursor[key_id] += 1
        return cls(offsets, data)

    @property
    def total_postings(self) -> int:
        return len(self.data)

    def max_record_id(self) -> int:
        """The largest posted record id (-1 when there are no postings)."""
        data = self.data
        if not len(data):
            return -1
        if _np is not None and isinstance(data, array):
            return int(_np.frombuffer(data.tobytes(), dtype=_np.int32).max())
        return max(data)


class FlatJoinState:
    """The flat payload one shard plan ships: vocab, postings, probe side.

    The indexed side travels as prebuilt :class:`FlatPostings` only, and
    the vocabulary itself stays parent-side: no key tuple ever crosses the
    process boundary (pickle and shared-memory export both strip it — see
    :meth:`export`), workers receive pure integer arrays and skip index
    construction entirely.  ``counts_size`` bounds the overlap-counter
    buffer; ``postings_ascending`` (the indexed rows are in ascending id
    order) licenses the self-join early break.
    """

    __slots__ = (
        "vocab",
        "postings",
        "probe",
        "postings_ascending",
        "counts_size",
        "self_keys",
    )

    #: Canonical order of the integer arrays for buffer export/restore.
    _ARRAY_FIELDS = (
        ("postings", "offsets"),
        ("postings", "data"),
        ("probe", "record_ids"),
        ("probe", "key_offsets"),
        ("probe", "key_ids"),
    )

    #: The probe-side subset shipped when the postings are self-derivable.
    _PROBE_FIELDS = _ARRAY_FIELDS[2:]

    def __init__(
        self,
        vocab: Vocabulary,
        postings: FlatPostings,
        probe: FlatSignatures,
        *,
        postings_ascending: bool,
        counts_size: Optional[int] = None,
        self_keys: Optional[int] = None,
    ) -> None:
        self.vocab = vocab
        self.postings = postings
        self.probe = probe
        self.postings_ascending = postings_ascending
        self.counts_size = (
            postings.max_record_id() + 1 if counts_size is None else counts_size
        )
        # When set, ``postings == FlatPostings.from_flat(probe, self_keys)``
        # by construction (the self-join case): export ships the probe
        # arrays only and the receiver re-derives the postings with the
        # same counting sort — element-identical, per its docstring.
        self.self_keys = self_keys

    @classmethod
    def from_signed_sides(
        cls,
        index_signed: Sequence[SignedRecord],
        probe_signed: Sequence[SignedRecord],
        *,
        postings_ascending: bool,
        vocab: Optional[Vocabulary] = None,
    ) -> "FlatJoinState":
        """Encode a picked (index, probe) side pair into one flat state.

        A self-join (``probe_signed is index_signed``) encodes the side
        once and derives the postings from its own CSR arrays; a
        two-collection join encodes the indexed side first (growing the
        vocabulary) and the probe side non-growing, so probe-only keys map
        to the no-postings sentinel.
        """
        if vocab is None:
            vocab = Vocabulary()
        if probe_signed is index_signed:
            probe = FlatSignatures.from_signed(index_signed, vocab, grow=True)
            index_flat = probe
            self_keys: Optional[int] = len(vocab)
        else:
            index_flat = FlatSignatures.from_signed(index_signed, vocab, grow=True)
            probe = FlatSignatures.from_signed(probe_signed, vocab, grow=False)
            self_keys = None
        postings = FlatPostings.from_flat(index_flat, len(vocab))
        return cls(
            vocab,
            postings,
            probe,
            postings_ascending=postings_ascending,
            self_keys=self_keys,
        )

    @property
    def probe_count(self) -> int:
        return len(self.probe)

    def probe_span(
        self,
        start: int,
        stop: int,
        requirement: int,
        *,
        probe_is_left: bool,
        exclude_self_pairs: bool,
        kernel: str = "auto",
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Run the filter kernel over one probe shard (see module docs).

        ``kernel`` selects the implementation (``"auto"``/``"numpy"``/
        ``"python"``, see :func:`repro.join.kernels.resolve_kernel`); both
        kernels are bit-identical in candidates, orientation, and
        processed counts.
        """
        return _kernel_probe_span(
            self.postings,
            self.probe,
            start,
            stop,
            requirement,
            probe_is_left=probe_is_left,
            exclude_self_pairs=exclude_self_pairs,
            postings_ascending=self.postings_ascending,
            counts_size=self.counts_size,
            kernel=kernel,
        )

    # ------------------------------------------------------------------ #
    # buffer detach/restore (the shared-memory transport)
    # ------------------------------------------------------------------ #
    def export(self) -> Tuple[tuple, List[array]]:
        """Split into a picklable meta tuple and the raw integer arrays.

        The meta carries only the scalars (flags, sizes) — **not** the
        vocabulary: the worker-side probe loop and verifier operate purely
        on integer ids and records, so the key text table never crosses the
        process boundary; the parent keeps the only copy for decoding.
        :meth:`restore` reassembles an equivalent (vocabulary-less) state
        from the meta plus buffers — typically ``memoryview('i')`` casts
        over a shared-memory segment, making the restore zero-copy.

        A self-join state (``self_keys`` set) additionally omits the two
        postings arrays: they are a pure function of the probe arrays, so
        the receiver re-derives them with the same counting sort instead of
        shipping them — roughly halving the big arrays on the wire.
        """
        fields = (
            self._PROBE_FIELDS if self.self_keys is not None else self._ARRAY_FIELDS
        )
        arrays = [getattr(getattr(self, owner), name) for owner, name in fields]
        meta = (None, self.postings_ascending, self.counts_size, self.self_keys)
        return meta, arrays

    @classmethod
    def restore(cls, meta: tuple, buffers: Sequence) -> "FlatJoinState":
        """Reassemble from :meth:`export` output (buffers stay referenced)."""
        vocab, postings_ascending, counts_size, self_keys = meta
        if self_keys is not None:
            probe = FlatSignatures(vocab, *buffers)
            postings = FlatPostings.from_flat(probe, self_keys)
            return cls(
                vocab,
                postings,
                probe,
                postings_ascending=postings_ascending,
                counts_size=counts_size,
                self_keys=self_keys,
            )
        postings = FlatPostings(*buffers[:2])
        probe = FlatSignatures(vocab, *buffers[2:])
        return cls(
            vocab,
            postings,
            probe,
            postings_ascending=postings_ascending,
            counts_size=counts_size,
        )

    def __getstate__(self) -> tuple:
        """Pickle without the vocabulary (see :meth:`export`).

        Workers never decode key ids, so a pickled plan (and its measured
        :func:`~repro.join.parallel.plan_payload_bytes`) carries the integer
        arrays only.
        """
        meta, arrays = self.export()
        return (meta, arrays)

    def __setstate__(self, state: tuple) -> None:
        meta, buffers = state
        restored = type(self).restore(meta, buffers)
        for slot in self.__slots__:
            setattr(self, slot, getattr(restored, slot))


# --------------------------------------------------------------------- #
# shared-memory transport
# --------------------------------------------------------------------- #
class SharedPayload:
    """Parent-side handle to one exported shared-memory segment.

    The parent owns the segment: workers attach read-only by name and
    close their attachment, the parent calls :meth:`release` (idempotent)
    to close and unlink.  Always release in a ``finally`` — a leaked
    segment outlives the process in ``/dev/shm``.
    """

    __slots__ = ("shm", "name", "_released")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.name = shm.name
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        shm_registry.unregister(self.name)

    def __enter__(self) -> "SharedPayload":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _align(value: int, boundary: int = 8) -> int:
    return (value + boundary - 1) & ~(boundary - 1)


def share_payload(meta: object, arrays: Sequence) -> SharedPayload:
    """Write ``(meta, arrays)`` into one fresh shared-memory segment.

    Layout: an 8-byte little-endian length, the pickled ``meta`` (which
    includes the per-array element counts), then each array's raw ``'i'``
    bytes at 8-byte alignment.  One segment ships the whole payload to
    every worker on the machine — attach cost is a page mapping, not a
    per-worker pipe copy.
    """
    import pickle
    from multiprocessing import shared_memory

    # First export in this process: reclaim segments leaked by crashed
    # predecessors before creating new ones (see repro.shm_registry).
    shm_registry.sweep_once()
    blobs = [
        a.tobytes() if isinstance(a, array) else array(_INT, a).tobytes()
        for a in arrays
    ]
    header = pickle.dumps(
        (meta, [len(blob) // _INT_BYTES for blob in blobs]),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    offset = _align(8 + len(header))
    offsets = []
    for blob in blobs:
        offsets.append(offset)
        offset = _align(offset + len(blob))
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 16))
    try:
        shm.buf[0:8] = len(header).to_bytes(8, "little")
        shm.buf[8 : 8 + len(header)] = header
        for blob, blob_offset in zip(blobs, offsets):
            shm.buf[blob_offset : blob_offset + len(blob)] = blob
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    shm_registry.register(shm.name)
    from ..faults import FAULTS

    payload = SharedPayload(shm)
    FAULTS.on_shm_publish(payload)
    return payload


def attach_payload(name: str):
    """Attach a :func:`share_payload` segment; returns ``(meta, buffers, shm)``.

    ``buffers`` are zero-copy ``memoryview('i')`` casts into the mapping;
    the caller must keep ``shm`` alive as long as it reads them and close
    it when done.  The attachment is *not* registered with the resource
    tracker: the creating process owns the unlink, and on Python < 3.13
    (no ``track=`` knob) attach-side registration double-accounts the
    segment — several workers sharing one tracker then unlink (and warn
    about) segments they never owned.
    """
    import pickle
    from multiprocessing import resource_tracker, shared_memory

    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register
    header_len = int.from_bytes(bytes(shm.buf[0:8]), "little")
    meta, lengths = pickle.loads(bytes(shm.buf[8 : 8 + header_len]))
    offset = _align(8 + header_len)
    buffers = []
    for length in lengths:
        nbytes = length * _INT_BYTES
        buffers.append(shm.buf[offset : offset + nbytes].cast(_INT))
        offset = _align(offset + nbytes)
    return meta, buffers, shm
