"""The group bound stages: stages 1 and 2 of verification for a whole probe group.

Stage 1 is the maxima bound of :class:`~repro.core.graph.PairUpperBound`:
a matrix of per-segment-pair msim upper bounds, summed over its row maxima
and (when that sum alone does not prune) its column maxima.  Stage 2, the
partition bound (:func:`~repro.core.graph.partition_bound`), reads the
same maxima.  The filter emits candidates probe-major, so
:class:`GroupUpperBounds` runs stage 1 for one probe's run of partners at
once and stage 2 for its survivors, from the maxima stage 1 kept.

Two implementations of stage 1, selected per group:

* the scalar loop — one :class:`~repro.core.graph.PairUpperBound` per
  candidate.  It is the oracle the kernel is tested against, the path of
  small groups, and the only path without numpy (``kernel="python"`` or
  ``REPRO_NO_NUMPY=1``, as for the filter kernels of
  :mod:`repro.join.kernels`).
* :func:`group_maxima_numpy` — one vectorised pass over the integer
  encodings of :attr:`~repro.core.graph.GraphSide.bound_codes`.  Per
  chunk of partners it builds the probe-segments × partner-segments
  matrix: Jaccard entries from gram-intersection counts (each partner
  gram looked up in a dense table of the probe's gram universe and fanned
  out to the probe segments holding it, counted with ``bincount``);
  synonym entries
  from the two self-key matches of the scalar bound (a partner entry
  keyed by a probe segment's own key, and a probe entry keyed by a
  partner segment's own key); taxonomy entries from the common prefix of
  two root paths, which is the LCA depth (the root has depth 1).

The kernel is bit-identical to the scalar loop, not merely close: every
matrix entry is one correctly rounded int/int division or a min/max of
such values, and the row and column maxima are added one at a time in the
scalar order (vector adds across candidates, never ``np.sum``, whose
pairwise summation can round differently).  The denominator, the θ short
circuit and the 1.0 clamp follow :meth:`PairUpperBound.maxima`.  The
maxima it hands to stage 2 are exact, so stage 2 is bit-identical too,
and a kernel group builds a scalar matrix only for Algorithm 1's pairs.

The kernel has a fixed numpy cost per group, so it runs only when the
group's segment-pair count (probe segments × summed partner segments)
reaches :data:`GROUP_KERNEL_MIN_PAIRS`; smaller groups take the scalar
loop.  Temporaries are bounded by cutting a group into chunks of about
:data:`_CHUNK_COLUMNS` partner segments.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.graph import GraphSide, PairUpperBound, SideBoundCodes, partition_bound
from ..core.measures import MeasureConfig
from .kernels import _np, resolve_kernel

__all__ = ["GROUP_KERNEL_MIN_PAIRS", "GroupUpperBounds", "group_maxima_numpy"]

#: Segment pairs from which a group runs the numpy kernel; smaller groups
#: run the scalar loop.  Measured on a 2-vCPU box (probe groups against a
#: 400-record MED collection, sides already encoded): the kernel breaks
#: even near 370 segment pairs under J and 430 under TJS, and takes 0.67
#: to 0.76 of the scalar time at 600–800.  The margin pays for encoding a
#: probe seen for the first time (40–100 µs a side).
GROUP_KERNEL_MIN_PAIRS = 600

#: Partner segments per kernel chunk (bounds the matrix temporaries).
_CHUNK_COLUMNS = 768


#: One candidate's row and column maxima (``r`` and ``c``).
Maxima = Tuple[List[float], List[float]]


class GroupUpperBounds:
    """Both upper-bound stages of one probe record against its candidates.

    :meth:`maxima` is stage 1 for the whole group (see the module docs) and
    :meth:`partition` stage 2 for its survivors; :meth:`matrix` hands a
    scalar survivor's bound matrix to Algorithm 1.  The sides must be
    bound to ``config`` (prepared collections guarantee it).
    """

    __slots__ = (
        "probe_side", "partner_sides", "config", "probe_is_left", "use_kernel",
        "_maxima", "_matrices",
    )

    def __init__(
        self,
        probe_side: GraphSide,
        partner_sides: Sequence[GraphSide],
        config: MeasureConfig,
        *,
        probe_is_left: bool,
        kernel: str = "auto",
    ) -> None:
        self.probe_side = probe_side
        self.partner_sides = partner_sides
        self.config = config
        self.probe_is_left = probe_is_left
        self.use_kernel = resolve_kernel(kernel) == "numpy" and (
            len(probe_side.segments) * sum(len(side.segments) for side in partner_sides)
            >= GROUP_KERNEL_MIN_PAIRS
        )
        self._maxima: Dict[int, Maxima] = {}
        self._matrices: Dict[int, List[List[float]]] = {}

    def _sides(self, position: int) -> Tuple[GraphSide, GraphSide]:
        partner = self.partner_sides[position]
        if self.probe_is_left:
            return self.probe_side, partner
        return partner, self.probe_side

    def maxima(self, threshold: float) -> List[float]:
        """Every candidate's :meth:`PairUpperBound.maxima` at ``threshold``.

        Keeps the maxima of the survivors (bound ≥ ``threshold``).
        """
        if self.use_kernel:
            values, self._maxima = group_maxima_numpy(
                self.probe_side.bound_codes,
                [side.bound_codes for side in self.partner_sides],
                threshold,
                probe_is_left=self.probe_is_left,
            )
            return values
        values = []
        for position in range(len(self.partner_sides)):
            bound = PairUpperBound(*self._sides(position), self.config)
            value = bound.maxima(threshold)
            if value >= threshold:
                self._maxima[position] = (bound.row_maxima, bound.column_maxima)
                self._matrices[position] = bound.matrix
            values.append(value)
        return values

    def partition(self, positions: Iterable[int]) -> List[float]:
        """:meth:`PairUpperBound.partition` of each survivor of :meth:`maxima`."""
        values = []
        for position in positions:
            rows, columns = self._maxima[position]
            values.append(partition_bound(*self._sides(position), rows, columns))
        return values

    def matrix(self, position: int) -> Optional[List[List[float]]]:
        """Hand over (once) a scalar survivor's matrix; ``None`` after the kernel."""
        return self._matrices.pop(position, None)


# --------------------------------------------------------------------- #
# the numpy kernel
# --------------------------------------------------------------------- #
def _expand(starts, counts):
    """``starts[i] + 0 .. starts[i] + counts[i] - 1``, concatenated over i."""
    np = _np
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)


def _sort_by_key(keys, values):
    """``keys`` sorted, with ``values`` carried along (a lookup table)."""
    order = _np.argsort(keys, kind="stable")
    return keys[order], values[order]


def _matches(sorted_keys, keys):
    """Per key, its count in ``sorted_keys`` and, concatenated, the positions."""
    np = _np
    low = np.searchsorted(sorted_keys, keys, "left")
    fanout = np.searchsorted(sorted_keys, keys, "right") - low
    return fanout, _expand(low, fanout)


def _root_paths(nodes, depths, rows, width: int, pad: int):
    """The root paths of ``rows`` (segments with a node), cut or padded to ``width``."""
    np = _np
    starts = (np.cumsum(depths) - depths)[rows]
    take = np.minimum(depths[rows], width)
    paths = np.full((rows.size, width), pad, dtype=np.int64)
    step = _expand(np.zeros_like(starts), take)
    paths[np.repeat(np.arange(rows.size), take), step] = nodes[np.repeat(starts, take) + step]
    return paths


def _concat(buffers: Sequence[array], typecode: str, dtype):
    """Concatenate same-typed ``array`` buffers into one numpy array."""
    joined = array(typecode)
    for buffer in buffers:
        joined.extend(buffer)
    return _np.frombuffer(joined, dtype=dtype)


class _ProbeArrays:
    """The probe side's encoding as numpy lookup tables."""

    def __init__(self, codes: SideBoundCodes) -> None:
        np = _np
        rows = self.rows = codes.segment_count
        row_ids = np.arange(rows)
        # Jaccard: the probe's gram universe as a dense id -> slot table
        # (ids past its largest gram land on the final -1), and per slot
        # the rows holding that gram, as one CSR.
        gram_counts = np.frombuffer(codes.gram_counts, dtype=np.intc)
        self.gram_sizes = gram_counts.astype(np.int64)
        universe, local = np.unique(
            np.frombuffer(codes.gram_ids, dtype=np.intc), return_inverse=True
        )
        self.gram_slot = np.full(
            int(universe[-1]) + 2 if universe.size else 1, -1, dtype=np.intc
        )
        self.gram_slot[universe] = np.arange(universe.size)
        self.gram_fanout = np.bincount(local, minlength=universe.size)
        self.gram_start = np.cumsum(self.gram_fanout) - self.gram_fanout
        self.gram_rows = np.repeat(row_ids, gram_counts)[np.argsort(local, kind="stable")]
        # Synonyms: the probe's entries, and its own keys as a lookup table.
        self.syn_keys = np.frombuffer(codes.syn_keys, dtype=np.intc)
        self.syn_values = np.frombuffer(codes.syn_values, dtype=np.float64)
        self.syn_rows = np.repeat(row_ids, np.frombuffer(codes.syn_counts, dtype=np.intc))
        self_keys = np.frombuffer(codes.self_keys, dtype=np.intc)
        own = np.flatnonzero(self_keys >= 0)
        self.own_keys, self.own_rows = _sort_by_key(self_keys[own], own)
        self.self_closeness = np.frombuffer(codes.self_closeness, dtype=np.float64)
        # Taxonomy: root paths padded with -1 to the deepest (a partner pads
        # with -2, so pads never match).
        depths = np.frombuffer(codes.tax_depths, dtype=np.intc)
        self.tax_rows = np.flatnonzero(depths)
        self.tax_depths = depths[self.tax_rows]
        width = int(self.tax_depths.max()) if self.tax_rows.size else 0
        self.tax_paths = _root_paths(
            np.frombuffer(codes.tax_nodes, dtype=np.intc), depths, self.tax_rows, width, -1
        )


def _jaccard(probe: _ProbeArrays, partners, matrix, columns: int) -> None:
    np = _np
    gram_ids = _concat([codes.gram_ids for codes in partners], "i", np.intc)
    gram_counts = _concat([codes.gram_counts for codes in partners], "i", np.intc)
    # Each partner gram fans out to the probe rows holding it.
    slot = probe.gram_slot[np.minimum(gram_ids, probe.gram_slot.size - 1)]
    hit = slot >= 0
    slot = slot[hit]
    fanout = probe.gram_fanout[slot]
    rows = probe.gram_rows[_expand(probe.gram_start[slot], fanout)]
    column_of = np.repeat(np.arange(columns), gram_counts)[hit]
    cells = rows * columns + np.repeat(column_of, fanout)
    shared = np.bincount(cells, minlength=probe.rows * columns).reshape(probe.rows, columns)
    union = probe.gram_sizes[:, None] + gram_counts[None, :] - shared
    np.divide(shared, union, out=matrix, where=shared > 0)


def _synonyms(probe: _ProbeArrays, partners, matrix, columns: int) -> None:
    np = _np
    # Key = a probe row's own key: partner entries carrying it.
    if probe.own_keys.size:
        keys = _concat([codes.syn_keys for codes in partners], "i", np.intc)
        values = _concat([codes.syn_values for codes in partners], "d", np.float64)
        counts = _concat([codes.syn_counts for codes in partners], "i", np.intc)
        fanout, positions = _matches(probe.own_keys, keys)
        rows = probe.own_rows[positions]
        cols = np.repeat(np.repeat(np.arange(columns), counts), fanout)
        value = np.minimum(probe.self_closeness[rows], np.repeat(values, fanout))
        np.maximum.at(matrix, (rows, cols), value)
    # Key = a partner column's own key: probe entries carrying it.
    self_keys = _concat([codes.self_keys for codes in partners], "i", np.intc)
    own = np.flatnonzero(self_keys >= 0)
    if own.size:
        self_closeness = _concat([codes.self_closeness for codes in partners], "d", np.float64)
        own_keys, own_columns = _sort_by_key(self_keys[own], own)
        fanout, positions = _matches(own_keys, probe.syn_keys)
        cols = own_columns[positions]
        value = np.minimum(np.repeat(probe.syn_values, fanout), self_closeness[cols])
        np.maximum.at(matrix, (np.repeat(probe.syn_rows, fanout), cols), value)


def _taxonomy(probe: _ProbeArrays, partners, matrix) -> None:
    np = _np
    depths = _concat([codes.tax_depths for codes in partners], "i", np.intc)
    cols = np.flatnonzero(depths)
    if not cols.size:
        return
    nodes = _concat([codes.tax_nodes for codes in partners], "i", np.intc)
    paths = _root_paths(nodes, depths, cols, probe.tax_paths.shape[1], -2)
    # Matching entries form the common prefix of two root paths, and its
    # length is the LCA depth.
    lca = (probe.tax_paths[:, None, :] == paths[None, :, :]).sum(axis=2)
    value = lca / np.maximum(probe.tax_depths[:, None], depths[cols][None, :])
    cells = np.ix_(probe.tax_rows, cols)
    matrix[cells] = np.maximum(matrix[cells], value)


def _entry_matrix(probe: _ProbeArrays, partners: Sequence[SideBoundCodes], columns: int):
    """The probe-segments × partner-segments bound matrix of one chunk."""
    matrix = _np.zeros((probe.rows, columns))
    if probe.gram_fanout.size:
        _jaccard(probe, partners, matrix, columns)
    if probe.syn_keys.size:
        _synonyms(probe, partners, matrix, columns)
    if probe.tax_rows.size:
        _taxonomy(probe, partners, matrix)
    return matrix


def group_maxima_numpy(
    probe: SideBoundCodes,
    partners: Sequence[SideBoundCodes],
    threshold: float,
    *,
    probe_is_left: bool,
) -> Tuple[List[float], Dict[int, Maxima]]:
    """Every partner's maxima bound against ``probe``, in one vectorised pass.

    Returns the bounds and, per partner whose bound reaches ``threshold``,
    its ``(row_maxima, column_maxima)``; all bit-identical to
    :class:`PairUpperBound` with the probe on the left when
    ``probe_is_left`` (see the module docs).
    """
    np = _np
    values = [0.0] * len(partners)
    # An empty record's scalar matrix is empty, and so are its maxima.
    kept = {position: ([], []) for position in range(len(partners) if threshold <= 0.0 else 0)}
    if not probe.segment_count:
        return values, kept
    chosen = [position for position, codes in enumerate(partners) if codes.segment_count]
    if not chosen:
        return values, kept
    probe_arrays = _ProbeArrays(probe)
    counts = np.array([partners[position].segment_count for position in chosen])
    offsets = np.zeros(len(chosen) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Per candidate, the maximum over its columns of each probe row, and
    # per partner segment (column) the maximum over the probe rows.
    probe_max = np.empty((probe_arrays.rows, len(chosen)))
    partner_max = np.empty(int(offsets[-1]))
    begin = 0
    while begin < len(chosen):
        end = int(np.searchsorted(offsets, offsets[begin] + _CHUNK_COLUMNS, "left"))
        end = min(max(end, begin + 1), len(chosen))
        matrix = _entry_matrix(
            probe_arrays,
            [partners[position] for position in chosen[begin:end]],
            int(offsets[end] - offsets[begin]),
        )
        probe_max[:, begin:end] = np.maximum.reduceat(
            matrix, offsets[begin:end] - offsets[begin], axis=1
        )
        partner_max[offsets[begin]:offsets[end]] = matrix.max(axis=0)
        begin = end
    # The scalar sums, one addend at a time: over the probe rows, and over
    # each candidate's own columns (zero padding past a candidate's last
    # column leaves its sum unchanged).
    probe_sum = probe_max[0].copy()
    for row in probe_max[1:]:
        probe_sum += row
    padded = np.zeros((int(counts.max()), len(chosen)))
    padded[
        np.arange(partner_max.size) - np.repeat(offsets[:-1], counts),
        np.repeat(np.arange(len(chosen)), counts),
    ] = partner_max
    partner_sum = padded[0].copy()
    for row in padded[1:]:
        partner_sum += row
    row_sum, col_sum = (
        (probe_sum, partner_sum) if probe_is_left else (partner_sum, probe_sum)
    )
    denominator = np.maximum(
        np.array([partners[position].min_partition_size for position in chosen]),
        max(probe.min_partition_size, 1),
    )
    cheap = np.where(
        row_sum / denominator >= threshold, np.minimum(row_sum, col_sum), row_sum
    )
    bound = np.minimum(cheap / denominator, 1.0)
    for position, value in zip(chosen, bound.tolist()):
        values[position] = value
    # Survivors take their maxima along: the probe's, and the partner's.
    survivors = np.flatnonzero(bound >= threshold)
    for index, probe_maxima in zip(survivors.tolist(), probe_max[:, survivors].T.tolist()):
        partner_maxima = partner_max[offsets[index]:offsets[index + 1]].tolist()
        kept[chosen[index]] = (
            (probe_maxima, partner_maxima)
            if probe_is_left
            else (partner_maxima, probe_maxima)
        )
    return values, kept
