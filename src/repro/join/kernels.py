"""Interchangeable filter kernels: the per-probe overlap count over flat arrays.

The prefix-filter probe is the paper's hot loop — for every probe record,
walk the posting span of each signature key, count per-partner overlaps
with τ saturation, and emit a candidate the moment a partner's counter
reaches the requirement.  This module is the only filter engine: every
filter path (serial join, pool workers, search queries, the τ estimator)
dispatches to it, in one of two modes.

*Candidate mode* (:func:`probe_span`) emits the candidate pairs:

* :func:`probe_span_python` — the pure-Python loop, the reference
  semantics and the fallback when NumPy is unavailable.
* :func:`probe_span_numpy` — the vectorized kernel: per probe it gathers
  the posting spans of the probe's key ids into one index array, applies
  the self-join exclusion as a mask (which also covers the
  ascending-postings early break), counts partners with
  ``np.bincount(..., minlength=counts_size)``, and recovers the exact
  emission order of the Python loop from each partner's
  ``requirement``-th occurrence in the stream.

*Counts mode* (:func:`overlap_histogram`) feeds Algorithm 7: it returns
the processed count and the histogram of per-partner overlap counts
saturated at a cap, so one pass yields ``V_τ`` for every ``τ <= cap``
(``V_τ = sum(histogram[τ:])``).  :func:`overlap_histogram_python` walks
the same loop as the candidate-mode reference; :func:`overlap_histogram_numpy`
gathers the whole probe span at once and counts (probe, partner) codes
with ``np.unique``, since counts need no emission order.

:func:`processed_count` reads the ``processed`` of both modes off the
posting lists alone, with no probe pass: a posting survives the
self-join exclusion by comparison with the probe id only, so each key
occurrence contributes its span's length, or — under exclusion — the part
of its span on the far side of the probe id, which a binary search finds
in an ascending span.  Algorithm 7 weighs that count against the work of
its samples before it decides to sample at all.

Within a mode the kernels are **bit-identical**: same candidates, same
orientation, same per-probe emission order, same histogram, same
``processed`` count (the loop increments ``processed`` for every
non-excluded posting *before* the saturation check, so ``processed`` is
exactly the length of the gathered, exclusion-masked stream — never an
approximation).  ``tests/test_kernels.py`` checks candidate mode against
a test-local copy of the dict probe loop the kernels replaced, and counts
mode against the exact overlaps of
:func:`~repro.join.aufilter.dual_index_filter_candidates`.

Kernel selection is a string knob plumbed through the join/query APIs:
``"auto"`` (numpy when importable, else python), ``"numpy"`` (explicit —
raises when numpy is missing), ``"python"``.  Setting ``REPRO_NO_NUMPY=1``
in the environment masks numpy at import time so the fallback path can be
exercised on machines that do have numpy (``scripts/check`` runs the
kernel callers' suites once under this guard).

This module deliberately imports nothing from ``flat.py`` — it operates
duck-typed on the CSR attributes (``offsets``/``data`` on postings,
``record_ids``/``key_offsets``/``key_ids`` on the probe side), so
``flat.py`` can import from here without an import cycle.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from typing import List, Tuple

if os.environ.get("REPRO_NO_NUMPY"):  # pragma: no cover - exercised via subprocess
    _np = None
else:
    try:  # pragma: no cover - exercised implicitly wherever numpy exists
        import numpy as _np
    except ImportError:  # pragma: no cover - the fallback path is tested directly
        _np = None

__all__ = [
    "KERNELS",
    "numpy_available",
    "resolve_kernel",
    "probe_span",
    "probe_span_python",
    "probe_span_numpy",
    "overlap_histogram",
    "overlap_histogram_python",
    "overlap_histogram_numpy",
    "processed_count",
    "processed_count_python",
    "processed_count_numpy",
]

#: Valid values for the ``kernel=`` knob on join/query APIs.
KERNELS = ("auto", "numpy", "python")

_INT = "i"
_INT_BYTES = array(_INT).itemsize


def numpy_available() -> bool:
    """True when the numpy kernel can run (numpy importable, not masked)."""
    return _np is not None


def resolve_kernel(kernel: str) -> str:
    """Resolve a ``kernel=`` knob value to a concrete implementation name.

    ``"auto"`` silently falls back to ``"python"`` when numpy is missing
    (the numpy-optional guarantee); an explicit ``"numpy"`` request on a
    numpy-less interpreter is a configuration error and raises.
    """
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}: expected one of {KERNELS}"
        )
    if kernel == "auto":
        return "numpy" if _np is not None else "python"
    if kernel == "numpy" and _np is None:
        raise ValueError(
            "kernel='numpy' requested but numpy is not importable "
            "(or masked by REPRO_NO_NUMPY); use kernel='auto' to fall back"
        )
    return kernel


def _dispatch(kernel: str, python_impl, numpy_impl):
    return numpy_impl if resolve_kernel(kernel) == "numpy" else python_impl


def probe_span(
    postings,
    probe,
    start: int,
    stop: int,
    requirement: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
    counts_size: int,
    kernel: str = "auto",
) -> Tuple[List[Tuple[int, int]], int]:
    """Probe records ``[start, stop)`` through flat postings (dispatching).

    The single entry point every filter path calls; ``kernel`` picks the
    implementation (see :func:`resolve_kernel`), and the two
    implementations are bit-identical in candidates, orientation, and
    processed counts.
    """
    impl = _dispatch(kernel, probe_span_python, probe_span_numpy)
    return impl(
        postings,
        probe,
        start,
        stop,
        requirement,
        probe_is_left=probe_is_left,
        exclude_self_pairs=exclude_self_pairs,
        postings_ascending=postings_ascending,
        counts_size=counts_size,
    )


def probe_span_python(
    postings,
    probe,
    start: int,
    stop: int,
    requirement: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
    counts_size: int,
) -> Tuple[List[Tuple[int, int]], int]:
    """The pure-Python reference loop of candidate mode.

    Per-occurrence counting with τ saturation, candidate emission the
    moment a partner's counter reaches ``requirement``, the self-join
    exclusion skips (with the ascending early break), and probe-major
    candidate order: with ``probe_is_left`` candidates are ``(probe_id,
    other)``, otherwise ``(other, probe_id)``.  Self-join exclusion keeps
    ``left < right``: a left probe skips partners ``<= probe_id``, a right
    probe skips partners ``>= probe_id`` — breaking out of the posting list
    at the first one when ``postings_ascending``.

    Overlap counters live in one zeroed buffer indexed by record id
    (``counts_size`` must exceed the largest posted id) and only touched
    entries are reset between probes, so the per-probe cost is bounded by
    the work actually done, not the corpus size.
    """
    candidates: List[Tuple[int, int]] = []
    processed = 0
    counts = (
        bytearray(counts_size)
        if requirement < 256
        else array(_INT, bytes(_INT_BYTES * counts_size))
    )
    touched: List[int] = []
    key_ids = probe.key_ids
    key_offsets = probe.key_offsets
    record_ids = probe.record_ids
    offsets = postings.offsets
    data = postings.data
    for position in range(start, stop):
        probe_id = record_ids[position]
        partners: List[int] = []
        for i in range(key_offsets[position], key_offsets[position + 1]):
            key_id = key_ids[i]
            if key_id < 0:
                continue  # probe-only key: no postings, like a dict miss
            for q in range(offsets[key_id], offsets[key_id + 1]):
                other = data[q]
                if exclude_self_pairs:
                    if probe_is_left:
                        if other <= probe_id:
                            continue
                    elif other >= probe_id:
                        if postings_ascending:
                            break  # nothing left to pair with in this list
                        continue
                processed += 1
                count = counts[other]
                if count >= requirement:
                    continue  # short-circuit: already a candidate
                if count == 0:
                    touched.append(other)
                count += 1
                counts[other] = count
                if count == requirement:
                    partners.append(other)
        if probe_is_left:
            candidates.extend((probe_id, other) for other in partners)
        else:
            candidates.extend((other, probe_id) for other in partners)
        for other in touched:
            counts[other] = 0
        touched.clear()
    return candidates, processed


def _as_int32(buffer):
    """Zero-copy int32 view over ``array('i')``/``memoryview('i')`` buffers."""
    view = _np.asarray(buffer)
    if view.dtype != _np.int32:  # pragma: no cover - 'i' is int32 on CPython/Linux
        view = view.astype(_np.int32)
    return view


def probe_span_numpy(
    postings,
    probe,
    start: int,
    stop: int,
    requirement: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
    counts_size: int,
) -> Tuple[List[Tuple[int, int]], int]:
    """The vectorized kernel — bit-identical to :func:`probe_span_python`.

    Per probe: gather every posting span of the probe's (non-negative) key
    ids into one occurrence stream, drop excluded partners as a mask, and
    count with ``bincount``.  Equivalence notes, matching the Python loop
    branch for branch:

    * *processed* is the length of the masked stream — the Python loop
      increments ``processed`` for every non-excluded posting before the
      saturation check, so saturation never affects it.
    * The ascending early ``break`` (probe on the right, self-join,
      ascending postings) skips exactly the tail ``>= probe_id`` of each
      span — and an ascending span's surviving prefix is exactly its
      elements ``< probe_id``, so the same ``< probe_id`` mask that handles
      unsorted postings removes the same elements in the same order.  The
      break is a *speed* device of the sequential loop, not a semantic one.
    * Emission order: the Python loop emits a partner at its
      ``requirement``-th surviving occurrence.  The kernel recovers those
      positions without sorting the stream: assigning ``pos[value] =
      position`` over the *reversed* stream leaves, per value, its earliest
      remaining position (fancy assignment applies writes in index order,
      so the last write — the earliest stream position — wins); repeating
      after dropping each value's current earliest occurrence walks that
      marker to the ``requirement``-th occurrence in ``requirement`` O(n)
      passes.  Sorting the (small) set of emission positions yields the
      exact emission order.
    """
    if _np is None:  # pragma: no cover - callers dispatch via resolve_kernel
        raise ValueError("probe_span_numpy requires numpy")
    np = _np
    candidates: List[Tuple[int, int]] = []
    processed = 0
    offsets_np = _as_int32(postings.offsets)
    data_np = _as_int32(postings.data)
    key_ids_np = _as_int32(probe.key_ids)
    key_offsets = probe.key_offsets
    record_ids = probe.record_ids
    for position in range(start, stop):
        probe_id = record_ids[position]
        keys = key_ids_np[key_offsets[position] : key_offsets[position + 1]]
        keys = keys[keys >= 0]  # probe-only keys: no postings, like a dict miss
        if not keys.size:
            continue
        starts = offsets_np[keys]
        ends = offsets_np[keys + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if not total:
            continue
        # Multi-span gather: absolute index = span start + offset within
        # the concatenated output.
        out_starts = np.cumsum(lengths) - lengths
        gathered = data_np[
            np.arange(total, dtype=np.int64) + np.repeat(starts - out_starts, lengths)
        ]
        if exclude_self_pairs:
            # Covers the ascending early break too (see the docstring): an
            # ascending span's survivors are exactly its ``< probe_id``
            # prefix, so one mask serves sorted and unsorted postings.
            if probe_is_left:
                gathered = gathered[gathered > probe_id]
            else:
                gathered = gathered[gathered < probe_id]
        stream = int(gathered.size)
        processed += stream
        if stream < requirement:
            continue
        counts = np.bincount(gathered, minlength=counts_size)
        qualifying = np.flatnonzero(counts >= requirement)
        if not qualifying.size:
            continue
        # Walk, per partner, an "earliest remaining occurrence" marker to
        # the requirement-th occurrence.  Reversed fancy assignment makes
        # the earliest position the surviving write; each round then drops
        # every partner's current earliest occurrence from the stream.
        # ``pos`` entries for partners outside the stream stay garbage and
        # are never read: ``qualifying`` only names streamed partners.
        pos = np.empty(counts_size, dtype=np.int32)
        vals = gathered
        cur = np.arange(stream, dtype=np.int32)
        pos[vals[::-1]] = cur[::-1]
        for _ in range(requirement - 1):
            keep = cur > pos[vals]
            vals = vals[keep]
            cur = cur[keep]
            pos[vals[::-1]] = cur[::-1]
        # A partner with fewer than ``requirement`` occurrences fell out of
        # the stream above and its marker went stale — but it cannot be in
        # ``qualifying``, so only true requirement-th positions are read.
        emit = pos[qualifying]
        emit.sort()
        if probe_is_left:
            candidates.extend(
                (probe_id, other) for other in gathered[emit].tolist()
            )
        else:
            candidates.extend(
                (other, probe_id) for other in gathered[emit].tolist()
            )
    return candidates, processed


# --------------------------------------------------------------------- #
# counts mode: the saturated overlap histogram (Algorithm 7's V_τ)
# --------------------------------------------------------------------- #
def overlap_histogram(
    postings,
    probe,
    start: int,
    stop: int,
    cap: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
    counts_size: int,
    kernel: str = "auto",
) -> Tuple[int, List[int]]:
    """Count overlaps of probe records ``[start, stop)`` (dispatching).

    Returns ``(processed, histogram)``: ``processed`` is exactly what
    :func:`probe_span` reports for the same arguments, and
    ``histogram[c]`` (``len(histogram) == cap + 1``, ``histogram[0] ==
    0``) is the number of (probe, partner) pairs whose overlap count,
    saturated at ``cap``, is ``c``.  So ``sum(histogram[τ:])`` is the
    candidate count :func:`probe_span` would emit at requirement ``τ``, for
    every ``τ <= cap``.  The flags mean what they mean there.
    """
    if cap < 1:
        raise ValueError("the histogram cap must be a positive integer")
    impl = _dispatch(kernel, overlap_histogram_python, overlap_histogram_numpy)
    return impl(
        postings,
        probe,
        start,
        stop,
        cap,
        probe_is_left=probe_is_left,
        exclude_self_pairs=exclude_self_pairs,
        postings_ascending=postings_ascending,
        counts_size=counts_size,
    )


def overlap_histogram_python(
    postings,
    probe,
    start: int,
    stop: int,
    cap: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
    counts_size: int,
) -> Tuple[int, List[int]]:
    """The pure-Python reference of counts mode.

    The loop of :func:`probe_span_python` with ``requirement = cap``; at
    the end of each probe every touched partner's saturated counter lands
    in the histogram instead of being emitted.
    """
    histogram = [0] * (cap + 1)
    processed = 0
    counts = (
        bytearray(counts_size)
        if cap < 256
        else array(_INT, bytes(_INT_BYTES * counts_size))
    )
    touched: List[int] = []
    key_ids = probe.key_ids
    key_offsets = probe.key_offsets
    record_ids = probe.record_ids
    offsets = postings.offsets
    data = postings.data
    for position in range(start, stop):
        probe_id = record_ids[position]
        for i in range(key_offsets[position], key_offsets[position + 1]):
            key_id = key_ids[i]
            if key_id < 0:
                continue
            for q in range(offsets[key_id], offsets[key_id + 1]):
                other = data[q]
                if exclude_self_pairs:
                    if probe_is_left:
                        if other <= probe_id:
                            continue
                    elif other >= probe_id:
                        if postings_ascending:
                            break
                        continue
                processed += 1
                count = counts[other]
                if count >= cap:
                    continue
                if count == 0:
                    touched.append(other)
                counts[other] = count + 1
        for other in touched:
            histogram[counts[other]] += 1
            counts[other] = 0
        touched.clear()
    return processed, histogram


def overlap_histogram_numpy(
    postings,
    probe,
    start: int,
    stop: int,
    cap: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
    counts_size: int,
) -> Tuple[int, List[int]]:
    """The vectorized counts kernel — equal to :func:`overlap_histogram_python`.

    Gathers the posting spans of every probe in ``[start, stop)`` into one
    occurrence stream tagged with its probe's position, masks the
    self-join exclusion (which covers the ascending break, as in
    :func:`probe_span_numpy`), and counts each ``(position, partner)``
    code with ``np.unique``; saturating those counts at ``cap`` and
    binning them gives the histogram.  ``postings_ascending`` only licenses
    a speed device of the sequential loop, so it is not read here.
    """
    if _np is None:  # pragma: no cover - callers dispatch via resolve_kernel
        raise ValueError("overlap_histogram_numpy requires numpy")
    np = _np
    histogram = [0] * (cap + 1)
    key_offsets = probe.key_offsets
    first, last = key_offsets[start], key_offsets[stop]
    keys = _as_int32(probe.key_ids)[first:last]
    owners = np.repeat(
        np.arange(stop - start, dtype=np.int64),
        np.diff(_as_int32(key_offsets)[start : stop + 1]),
    )
    known = keys >= 0  # probe-only keys: no postings
    keys = keys[known]
    owners = owners[known]
    offsets_np = _as_int32(postings.offsets)
    starts = offsets_np[keys]
    lengths = offsets_np[keys + 1] - starts
    total = int(lengths.sum())
    if not total:
        return 0, histogram
    out_starts = np.cumsum(lengths) - lengths
    partners = _as_int32(postings.data)[
        np.arange(total, dtype=np.int64) + np.repeat(starts - out_starts, lengths)
    ]
    owners = np.repeat(owners, lengths)
    if exclude_self_pairs:
        probe_ids = _as_int32(probe.record_ids)[start:stop][owners]
        keep = partners > probe_ids if probe_is_left else partners < probe_ids
        partners = partners[keep]
        owners = owners[keep]
    processed = int(partners.size)
    if not processed:
        return 0, histogram
    _, overlaps = np.unique(owners * counts_size + partners, return_counts=True)
    binned = np.bincount(np.minimum(overlaps, cap), minlength=cap + 1)
    return processed, binned.tolist()


# --------------------------------------------------------------------- #
# the processed count alone, read off the postings (Algorithm 7's T)
# --------------------------------------------------------------------- #
def processed_count(
    postings,
    probe,
    start: int,
    stop: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
    kernel: str = "auto",
) -> int:
    """The ``processed`` of probe records ``[start, stop)``, without probing (dispatching).

    Equal to what :func:`probe_span` and :func:`overlap_histogram` report
    for the same arguments.  A cross join processes every posting of every
    known probe key occurrence.  Under ``exclude_self_pairs`` a posting
    counts exactly when it lies above the probe id (a left probe) or below
    it (a right probe) — the early break of an ascending span stops at the
    first posting that does not — so an ascending span contributes the
    count a binary search for the probe id finds.
    """
    impl = _dispatch(kernel, processed_count_python, processed_count_numpy)
    return impl(
        postings,
        probe,
        start,
        stop,
        probe_is_left=probe_is_left,
        exclude_self_pairs=exclude_self_pairs,
        postings_ascending=postings_ascending,
    )


def processed_count_python(
    postings,
    probe,
    start: int,
    stop: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
) -> int:
    """The pure-Python count: one span length or binary search per key occurrence."""
    processed = 0
    key_ids = probe.key_ids
    key_offsets = probe.key_offsets
    record_ids = probe.record_ids
    offsets = postings.offsets
    data = postings.data
    for position in range(start, stop):
        probe_id = record_ids[position]
        for i in range(key_offsets[position], key_offsets[position + 1]):
            key_id = key_ids[i]
            if key_id < 0:
                continue
            low, high = offsets[key_id], offsets[key_id + 1]
            if not exclude_self_pairs:
                processed += high - low
            elif postings_ascending:
                if probe_is_left:
                    processed += high - bisect_right(data, probe_id, low, high)
                else:
                    processed += bisect_left(data, probe_id, low, high) - low
            elif probe_is_left:
                processed += sum(1 for q in range(low, high) if data[q] > probe_id)
            else:
                processed += sum(1 for q in range(low, high) if data[q] < probe_id)
    return processed


def processed_count_numpy(
    postings,
    probe,
    start: int,
    stop: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    postings_ascending: bool,
) -> int:
    """The vectorized count — equal to :func:`processed_count_python`.

    Under exclusion with ascending spans, tagging each posting with its
    key id as ``key · width + id`` (``width`` above every id) makes the
    whole ``data`` array ascending, since spans lie in key order; one
    ``searchsorted`` of every ``key · width + probe_id`` then finds each
    occurrence's cut.  Unsorted spans are gathered and masked, as
    :func:`overlap_histogram_numpy` does.
    """
    if _np is None:  # pragma: no cover - callers dispatch via resolve_kernel
        raise ValueError("processed_count_numpy requires numpy")
    np = _np
    key_offsets = probe.key_offsets
    keys = _as_int32(probe.key_ids)[key_offsets[start] : key_offsets[stop]]
    known = keys >= 0  # probe-only keys: no postings
    keys = keys[known].astype(np.int64)
    offsets_np = _as_int32(postings.offsets).astype(np.int64)
    starts = offsets_np[keys]
    ends = offsets_np[keys + 1]
    if not exclude_self_pairs:
        return int((ends - starts).sum())
    probe_ids = np.repeat(
        _as_int32(probe.record_ids)[start:stop],
        np.diff(_as_int32(key_offsets)[start : stop + 1]),
    )[known].astype(np.int64)
    data = _as_int32(postings.data).astype(np.int64)
    if not postings_ascending:
        lengths = ends - starts
        total = int(lengths.sum())
        if not total:
            return 0
        out_starts = np.cumsum(lengths) - lengths
        partners = data[
            np.arange(total, dtype=np.int64) + np.repeat(starts - out_starts, lengths)
        ]
        owners = np.repeat(probe_ids, lengths)
        keep = partners > owners if probe_is_left else partners < owners
        return int(np.count_nonzero(keep))
    if not keys.size or not data.size:
        return 0
    width = max(int(data.max()), int(probe_ids.max())) + 1
    span_keys = np.repeat(np.arange(len(offsets_np) - 1, dtype=np.int64), np.diff(offsets_np))
    tagged = span_keys * width + data
    targets = keys * width + probe_ids
    if probe_is_left:
        return int((ends - np.searchsorted(tagged, targets, side="right")).sum())
    return int((np.searchsorted(tagged, targets, side="left") - starts).sum())
