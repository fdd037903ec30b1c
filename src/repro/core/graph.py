"""Conflict-graph construction for the unified similarity (Section 2.3).

Given two strings ``S`` and ``T``, the approximation algorithm works on a
graph whose vertices are candidate segment pairs and whose edges connect
pairs that cannot be applied simultaneously (their segments overlap
positionally on the same side).  The graph is (k+1)-claw-free where ``k`` is
the maximal token count of any applicable synonym-rule side or taxonomy
label, which is what makes the w-MIS approximation possible.

Prepared verification
---------------------
Everything the graph needs from one string — its well-defined segments,
per-segment synonym/taxonomy lookups, gram sets, positional overlaps among
segments, and its minimal partition size ``MP(S)`` (the exact minimum of
:func:`~repro.core.segments.min_partition_size`, which signing uses too) —
depends on that string alone.
:class:`GraphSide` caches this one-sided state so that a record verified
against ``k`` candidates pays the segment enumeration and per-segment
bookkeeping once instead of ``k`` times.  Every graph is assembled by one
path, :func:`build_conflict_graph_from_sides`, from two sides and their
stage-1 bound matrix (:class:`PairUpperBound`): the verifier hands over
the one its scalar stage 1 built, and otherwise the graph builds it.
:func:`build_conflict_graph` prepares both sides ad hoc.

Weights come from that matrix, not from ``msim``.  Its Jaccard and taxonomy
entries are exact (the same integer ratios ``msim`` divides), so an entry
equals ``msim`` bit for bit unless both segments carry a synonym closeness
map; only for those entries is the rule looked up, and the entry becomes
the larger of the rule's closeness and its Jaccard and taxonomy parts.  A
rule of positive closeness connecting two segments puts its lhs in both
maps, so no other entry has a synonym part.  The corrected matrix is the graph's weight
:attr:`~ConflictGraph.table`, which ``GetSim`` reads too.  Adjacency is one
int mask per vertex: each segment gets the mask of its vertices, and a
vertex's conflicts are the OR of those masks over the segments overlapping
its own, on either side, without its own bit.

The side state also powers the verification cascade's two bounds:
:class:`PairUpperBound` bounds USIM from above without building the pair
graph, by row and column maxima of per-segment msim upper bounds summed
over all segments (the maxima bound) or over each side's best partitions
(the partition bound; its soundness proof is in the class docs).

Integer bound encoding
----------------------
:attr:`GraphSide.bound_codes` re-encodes a side's bound material once as
flat integer arrays (:class:`SideBoundCodes`), which is what the group
maxima kernel of :mod:`repro.join.bound_kernel` reads: each segment's
q-gram ids with its gram count, its synonym ``(key id, closeness)``
entries, its own key id (set only when the key is in its own closeness
map — the scalar bound needs a key in *both* maps), and the root path of
its taxonomy node.  Grams and synonym keys are interned in one
process-local table, so an encoding means nothing in another process:
:meth:`GraphSide.__getstate__` drops it, and a side that crossed a process
boundary (a worker payload, an index snapshot) encodes again on first use
against the receiving process's table.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .grams import qgram_set
from .measures import Measure, MeasureConfig
from .segments import (
    UNREACHABLE,
    Segment,
    enumerate_segments,
    min_partition_size,
    partition_sums,
)
from .tokenizer import TokenSpan
from .vocab import Vocabulary

__all__ = [
    "PairVertex",
    "ConflictGraph",
    "mask_indices",
    "GraphSide",
    "build_conflict_graph",
    "build_conflict_graph_from_sides",
    "PairUpperBound",
    "SideBoundCodes",
    "PARTITION_SLACK",
    "partition_bound",
]

_EPSILON = 1e-12

#: The process-local intern table of the bound encoding: q-grams (strings)
#: and synonym lhs keys (token tuples) share it, since the two never compare
#: equal.  The lock keeps concurrent first encodings from assigning one id
#: twice.
_BOUND_VOCAB = Vocabulary()
_BOUND_VOCAB_LOCK = threading.Lock()


def mask_indices(mask: int) -> List[int]:
    """The set bits of ``mask``, in ascending order."""
    indices: List[int] = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


@dataclass(frozen=True)
class PairVertex:
    """A vertex of the conflict graph: one segment of S matched to one of T.

    Attributes
    ----------
    index:
        Position of the vertex in its graph's vertex list.
    left, right:
        The segments of ``S`` and ``T`` respectively.
    weight:
        ``msim(left, right)`` under the active measure configuration.
    """

    index: int
    left: Segment
    right: Segment
    weight: float


class ConflictGraph:
    """The conflict graph over candidate segment pairs of two strings.

    Vertex ``v`` matches left segment ``ends[v][0]`` with right segment
    ``ends[v][1]`` (indices into the sides' segment lists) at weight
    ``weights[v]``; ``adjacency[v]`` is the int mask of the vertices it
    conflicts with.  ``table[i][j]`` is ``msim`` of left segment ``i`` and
    right segment ``j``, for every segment pair (the vertices' weights
    included), which is what ``GetSim`` aggregates.  :attr:`vertices` and the
    set-valued helpers are views derived on use, for tests and explanations.
    """

    def __init__(
        self,
        left_side: "GraphSide",
        right_side: "GraphSide",
        ends: Sequence[Tuple[int, int]],
        weights: Sequence[float],
        adjacency: Sequence[int],
        table: Sequence[Sequence[float]],
    ) -> None:
        self.left_side = left_side
        self.right_side = right_side
        self.left_tokens: Tuple[str, ...] = left_side.tokens
        self.right_tokens: Tuple[str, ...] = right_side.tokens
        self.ends: Tuple[Tuple[int, int], ...] = tuple(ends)
        self.weights: Tuple[float, ...] = tuple(weights)
        self.adjacency: Tuple[int, ...] = tuple(adjacency)
        self.table = table

    def __len__(self) -> int:
        return len(self.weights)

    @cached_property
    def vertices(self) -> Tuple[PairVertex, ...]:
        """The vertices as segment pairs."""
        left, right = self.left_side.segments, self.right_side.segments
        return tuple(
            PairVertex(index, left[i], right[j], weight)
            for index, ((i, j), weight) in enumerate(zip(self.ends, self.weights))
        )

    @cached_property
    def segment_rows(self) -> Tuple[Dict[TokenSpan, int], Dict[TokenSpan, int]]:
        """Per side, each segment's :attr:`table` index by its span."""
        return (
            {segment.span: index for index, segment in enumerate(self.left_side.segments)},
            {segment.span: index for index, segment in enumerate(self.right_side.segments)},
        )

    def neighbors(self, index: int) -> FrozenSet[int]:
        """Indices of vertices conflicting with vertex ``index``."""
        return frozenset(mask_indices(self.adjacency[index]))

    def is_independent(self, indices: Iterable[int]) -> bool:
        """True when no two of ``indices`` conflict."""
        adjacency = self.adjacency
        blocked = 0
        for index in indices:
            if blocked >> index & 1:
                return False
            blocked |= adjacency[index]
        return True

    def total_weight(self, indices: Iterable[int]) -> float:
        """Sum of vertex weights over ``indices``."""
        return sum(self.weights[index] for index in indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edge_count = sum(bin(mask).count("1") for mask in self.adjacency) // 2
        return f"ConflictGraph(vertices={len(self)}, edges={edge_count})"


class _SegmentMatchState:
    """Per-segment material for the qualification test (conditions a–c)."""

    __slots__ = ("is_single", "syn_keys", "has_tax")

    def __init__(
        self,
        is_single: bool,
        syn_keys: Optional[FrozenSet[Tuple[str, ...]]],
        has_tax: bool,
    ) -> None:
        self.is_single = is_single
        self.syn_keys = syn_keys
        self.has_tax = has_tax


class _SegmentBoundState:
    """Per-segment material for the msim upper bound (pruning cascade).

    ``self_tokens`` is the segment's own token tuple: a directional rule
    connecting two segments must have one of them as its lhs, so the
    synonym bound only consults those two keys of the closeness maps.
    """

    __slots__ = ("grams", "syn_closeness", "self_tokens", "tax_ancestors", "tax_depth")

    def __init__(
        self,
        grams: FrozenSet[str],
        syn_closeness: Optional[Dict[Tuple[str, ...], float]],
        self_tokens: Tuple[str, ...],
        tax_ancestors: Optional[Dict[int, int]],
        tax_depth: int,
    ) -> None:
        self.grams = grams
        self.syn_closeness = syn_closeness
        self.self_tokens = self_tokens
        self.tax_ancestors = tax_ancestors
        self.tax_depth = tax_depth


class SideBoundCodes:
    """One side's bound material as flat arrays (see the module docs).

    Per segment, in segment order: ``gram_counts`` grams in ``gram_ids``;
    ``syn_counts`` synonym entries in ``syn_keys`` / ``syn_values``;
    ``self_keys`` (``-1`` when the segment's own key is not in its own
    closeness map) with that entry's closeness in ``self_closeness``
    (``0.0`` when absent); and ``tax_depths`` root-path node ids in
    ``tax_nodes`` (depth 0: no taxonomy node).  Ids come from the
    process-local intern table, except taxonomy node ids, which are the
    taxonomy's own.
    """

    __slots__ = (
        "segment_count",
        "min_partition_size",
        "gram_ids",
        "gram_counts",
        "syn_keys",
        "syn_values",
        "syn_counts",
        "self_keys",
        "self_closeness",
        "tax_nodes",
        "tax_depths",
    )

    def __init__(self, side: "GraphSide") -> None:
        states = side.bound_state
        self.segment_count = len(states)
        self.min_partition_size = side.min_partition_size
        self.gram_ids = array("i")
        self.gram_counts = array("i")
        self.syn_keys = array("i")
        self.syn_values = array("d")
        self.syn_counts = array("i")
        self.self_keys = array("i")
        self.self_closeness = array("d")
        self.tax_nodes = array("i")
        self.tax_depths = array("i")
        with _BOUND_VOCAB_LOCK:
            encode = _BOUND_VOCAB.encode
            for state in states:
                self.gram_ids.extend(map(encode, state.grams))
                self.gram_counts.append(len(state.grams))
                closeness = state.syn_closeness or {}
                self.syn_keys.extend(map(encode, closeness))
                self.syn_values.extend(closeness.values())
                self.syn_counts.append(len(closeness))
                own = closeness.get(state.self_tokens)
                self.self_keys.append(-1 if own is None else encode(state.self_tokens))
                self.self_closeness.append(0.0 if own is None else own)
                ancestors = state.tax_ancestors or {}
                self.tax_nodes.extend(sorted(ancestors, key=ancestors.__getitem__))
                self.tax_depths.append(len(ancestors))


class GraphSide:
    """One string's cached conflict-graph material (everything pair-free).

    A side is bound to one :class:`~repro.core.measures.MeasureConfig`; all
    derived state is computed lazily so cheap uses (plain graph assembly)
    never pay for the bound-specific extras (gram sets, partition DP).
    """

    def __init__(
        self,
        tokens: Sequence[str],
        config: MeasureConfig,
        segments: Optional[Sequence[Segment]] = None,
    ) -> None:
        self.tokens: Tuple[str, ...] = tuple(tokens)
        self.config = config
        if segments is None:
            segments = enumerate_segments(
                self.tokens,
                rules=config.rules if config.uses(Measure.SYNONYM) else None,
                taxonomy=config.taxonomy if config.uses(Measure.TAXONOMY) else None,
            )
        self.segments: Tuple[Segment, ...] = tuple(segments)

    @cached_property
    def match_state(self) -> Tuple[_SegmentMatchState, ...]:
        """Qualification material per segment (syn lhs keys, taxonomy hit)."""
        config = self.config
        rules = config.rules if config.uses(Measure.SYNONYM) else None
        taxonomy = config.taxonomy if config.uses(Measure.TAXONOMY) else None
        states: List[_SegmentMatchState] = []
        for segment in self.segments:
            syn_keys: Optional[FrozenSet[Tuple[str, ...]]] = None
            if rules is not None:
                keys = frozenset(
                    lhs for lhs, _ in rules.lhs_pebbles_for(segment.tokens)
                )
                syn_keys = keys or None
            has_tax = (
                taxonomy is not None
                and segment.from_taxonomy
                and taxonomy.find(segment.tokens) is not None
            )
            states.append(
                _SegmentMatchState(segment.is_single_token, syn_keys, has_tax)
            )
        return tuple(states)

    @cached_property
    def overlap_sets(self) -> Tuple[FrozenSet[int], ...]:
        """For each segment, the indices of segments it overlaps (incl. self)."""
        spans = [segment.span for segment in self.segments]
        count = len(spans)
        overlaps: List[Set[int]] = [set() for _ in range(count)]
        for i in range(count):
            overlaps[i].add(i)
            for j in range(i + 1, count):
                if spans[i].overlaps(spans[j]):
                    overlaps[i].add(j)
                    overlaps[j].add(i)
        return tuple(frozenset(ov) for ov in overlaps)

    @cached_property
    def bound_state(self) -> Tuple[_SegmentBoundState, ...]:
        """Per-segment upper-bound material (gram sets, closeness, ancestors)."""
        config = self.config
        rules = config.rules if config.uses(Measure.SYNONYM) else None
        taxonomy = config.taxonomy if config.uses(Measure.TAXONOMY) else None
        use_grams = config.uses(Measure.JACCARD)
        states: List[_SegmentBoundState] = []
        for segment in self.segments:
            grams: FrozenSet[str] = (
                qgram_set(segment.text, config.q) if use_grams else frozenset()
            )
            syn_closeness: Optional[Dict[Tuple[str, ...], float]] = None
            if rules is not None:
                closeness: Dict[Tuple[str, ...], float] = {}
                for lhs, value in rules.lhs_pebbles_for(segment.tokens):
                    if value > closeness.get(lhs, 0.0):
                        closeness[lhs] = value
                syn_closeness = closeness or None
            tax_ancestors: Optional[Dict[int, int]] = None
            tax_depth = 0
            if taxonomy is not None:
                node = taxonomy.find(segment.tokens)
                if node is not None:
                    tax_depth = node.depth
                    tax_ancestors = {
                        ancestor.node_id: ancestor.depth
                        for ancestor in taxonomy.ancestors(node)
                    }
            states.append(
                _SegmentBoundState(
                    grams, syn_closeness, segment.tokens, tax_ancestors, tax_depth
                )
            )
        return tuple(states)

    @cached_property
    def min_partition_size(self) -> int:
        """``MP(S)``, the exact minimal partition size.

        See :func:`~repro.core.segments.min_partition_size`.  It
        lower-bounds ``max(|P_S|, |P_T|)`` for every well-defined partition
        pair, which is what the upper bound divides by.
        """
        return min_partition_size(len(self.tokens), self.segments)

    @cached_property
    def bound_codes(self) -> SideBoundCodes:
        """The bound material as process-local integer arrays (never pickled)."""
        return SideBoundCodes(self)

    def __getstate__(self) -> dict:
        # Everything else ships by value; the encoding's ids belong to this
        # process's intern table and would be wrong in any other.
        state = dict(self.__dict__)
        state.pop("bound_codes", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphSide(tokens={len(self.tokens)}, segments={len(self.segments)})"


def build_conflict_graph_from_sides(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
    matrix: Optional[List[List[float]]] = None,
) -> ConflictGraph:
    """Assemble the pair conflict graph from two cached sides.

    Vertices are emitted left-major over the positionally sorted segment
    lists; weights come from the pair's bound matrix, made exact where a
    rule may connect the segments (see the module docs); edges connect
    vertices whose segments overlap on either side, read from each side's
    cached overlap sets.  ``matrix`` is the pair's
    :attr:`PairUpperBound.matrix` when the verifier's bound stages built
    one; without it the matrix is built here.
    """
    _check_side_configs(left_side, right_side, config)
    if matrix is None:
        matrix = _bound_matrix(left_side, right_side, config)
    return _assemble_graph(left_side, right_side, config, matrix)


def _weight_table(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
    matrix: List[List[float]],
) -> Tuple[List[List[float]], Set[Tuple[int, int]]]:
    """``msim`` of every segment pair, from the bound matrix.

    Returns the table and the entries a rule connects (positive synonym
    similarity, condition (b) of the graph).  Only entries whose segments
    both carry a closeness map can have a synonym part; each such entry
    with a positive bound is recomputed with the rule's exact closeness in
    place of the closeness bound.  Their rows are copies, so ``matrix``
    itself is left as it was.
    """
    linked: Set[Tuple[int, int]] = set()
    rules = config.rules if config.uses(Measure.SYNONYM) else None
    if rules is None:
        return matrix, linked
    right_states = right_side.bound_state
    right_synonym = [
        j for j, state in enumerate(right_states) if state.syn_closeness is not None
    ]
    if not right_synonym:
        return matrix, linked
    use_jaccard = config.uses(Measure.JACCARD)
    table = matrix
    for i, left in enumerate(left_side.bound_state):
        if left.syn_closeness is None:
            continue
        if table is matrix:
            table = list(matrix)
        row = table[i] = list(matrix[i])
        for j in right_synonym:
            if not row[j]:
                continue  # 0 ≤ msim ≤ bound = 0
            right = right_states[j]
            synonym = rules.similarity(left.self_tokens, right.self_tokens)
            if synonym > 0.0:
                linked.add((i, j))
            row[j] = _segment_pair_upper_bound(left, right, use_jaccard, synonym)
    return table, linked


def _conflict_masks(
    overlap_sets: Sequence[FrozenSet[int]], members: List[int]
) -> List[int]:
    """Per segment with vertices, the OR of ``members`` over its overlaps."""
    masks = [0] * len(members)
    for index, own in enumerate(members):
        if own:
            mask = 0
            for other in overlap_sets[index]:
                mask |= members[other]
            masks[index] = mask
    return masks


def _assemble_graph(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
    matrix: List[List[float]],
) -> ConflictGraph:
    """The one graph-assembly path (configs already checked).

    ``matrix`` is the pair's stage-1 bound matrix (left segments × right
    segments).
    """
    left_segments = left_side.segments
    right_segments = right_side.segments
    if not matrix:
        # An empty side: no segment pairs, no vertices.
        return ConflictGraph(left_side, right_side, (), (), (), matrix)
    table, linked = _weight_table(left_side, right_side, config, matrix)
    right_match = right_side.match_state

    ends: List[Tuple[int, int]] = []
    weights: List[float] = []
    for i, left_state in enumerate(left_side.match_state):
        row = table[i]
        left_single = left_state.is_single
        left_tax = left_state.has_tax
        for j, right_state in enumerate(right_match):
            weight = row[j]
            if weight < _EPSILON:
                continue  # a zero-weight vertex never contributes
            # Conditions (a)–(c) of Section 2.3: two single tokens, a rule
            # connecting the segments, or two taxonomy nodes.
            if (
                (left_single and right_state.is_single)
                or (left_tax and right_state.has_tax)
                or (i, j) in linked
            ):
                ends.append((i, j))
                weights.append(weight)

    left_members = [0] * len(left_segments)
    right_members = [0] * len(right_segments)
    for vertex, (i, j) in enumerate(ends):
        bit = 1 << vertex
        left_members[i] |= bit
        right_members[j] |= bit
    left_conflicts = _conflict_masks(left_side.overlap_sets, left_members)
    right_conflicts = _conflict_masks(right_side.overlap_sets, right_members)
    # A segment overlaps itself, so each union holds the vertex's own bit.
    adjacency = [
        (left_conflicts[i] | right_conflicts[j]) ^ (1 << vertex)
        for vertex, (i, j) in enumerate(ends)
    ]
    return ConflictGraph(left_side, right_side, ends, weights, adjacency, table)


def build_conflict_graph(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    config: MeasureConfig,
) -> ConflictGraph:
    """Build the conflict graph of two token sequences.

    Vertices are segment pairs qualifying under conditions (a)–(c) of
    Section 2.3 whose ``msim`` weight is positive (zero-weight vertices can
    never contribute to the similarity, so they are dropped to keep the
    graph small).  Edges connect vertices whose segments overlap on
    either side.  This is a convenience wrapper that prepares both sides ad
    hoc; repeated verification should cache :class:`GraphSide` objects and
    call :func:`build_conflict_graph_from_sides`.
    """
    return build_conflict_graph_from_sides(
        GraphSide(left_tokens, config),
        GraphSide(right_tokens, config),
        config,
    )


def _check_side_configs(
    left_side: GraphSide, right_side: GraphSide, config: MeasureConfig
) -> None:
    """Reject sides prepared under a different measure configuration.

    A side's cached segments and bound material are derived from its own
    config; mixing them with another config's gating/weights would build a
    silently inconsistent graph.  Configs compare by content (see
    :class:`~repro.core.measures.MeasureConfig`), so equal-but-distinct
    configs — e.g. sides that crossed a process boundary via pickle — are
    accepted; the identity test is just the fast path.
    """
    if left_side.config is config and right_side.config is config:
        return
    if left_side.config != config or right_side.config != config:
        raise ValueError(
            "graph sides are bound to a different MeasureConfig; prepare them "
            "under a config equal to the one used for assembly"
        )


# --------------------------------------------------------------------- #
# verification bounds (the pruning cascade's tiers)
# --------------------------------------------------------------------- #
def _segment_pair_upper_bound(
    left: _SegmentBoundState,
    right: _SegmentBoundState,
    use_jaccard: bool,
    synonym: Optional[float] = None,
) -> float:
    """An upper bound on ``msim`` of one segment pair from cached state.

    Jaccard and taxonomy contributions are exact (gram-set arithmetic and
    shared-ancestor LCA depth); the synonym contribution is an upper bound.
    Rules are directional, so a rule connecting the two segments must have
    one of *them* as its lhs — only those two keys of the shared-lhs
    closeness maps can witness an actual rule, and each map value (the max
    closeness over rules depositing that lhs on that segment) caps the
    connecting rule's closeness from above.  Keys deposited transitively —
    both segments being the rhs of rules sharing some third lhs — can never
    realise a similarity and are no longer consulted (they made the
    historical full-intersection bound loose under rule transitivity).
    The bound stays an upper bound because two segments may carry each
    other's lhs keys without a rule mapping one to the *other*.  Given the
    pair's exact rule closeness as ``synonym``, the entry uses it instead
    and is ``msim`` exactly (see :func:`_weight_table`).
    """
    bound = 0.0
    if use_jaccard and left.grams and right.grams:
        intersection = len(left.grams & right.grams)
        if intersection:
            union = len(left.grams) + len(right.grams) - intersection
            value = intersection / union
            if value > bound:
                bound = value
    if synonym is not None:
        if synonym > bound:
            bound = synonym
    elif left.syn_closeness is not None and right.syn_closeness is not None:
        keys = (
            (left.self_tokens,)
            if left.self_tokens == right.self_tokens
            else (left.self_tokens, right.self_tokens)
        )
        for key in keys:
            closeness = left.syn_closeness.get(key)
            if closeness is None:
                continue
            other = right.syn_closeness.get(key)
            if other is None:
                continue
            value = closeness if closeness < other else other
            if value > bound:
                bound = value
    if left.tax_ancestors is not None and right.tax_ancestors is not None:
        smaller_anc, larger_anc = left.tax_ancestors, right.tax_ancestors
        if len(larger_anc) < len(smaller_anc):
            smaller_anc, larger_anc = larger_anc, smaller_anc
        lca_depth = 0
        for node_id, depth in smaller_anc.items():
            if depth > lca_depth and node_id in larger_anc:
                lca_depth = depth
        if lca_depth:
            value = lca_depth / max(left.tax_depth, right.tax_depth)
            if value > bound:
                bound = value
    return bound


def _bound_matrix(
    left_side: GraphSide, right_side: GraphSide, config: MeasureConfig
) -> List[List[float]]:
    """Per-segment-pair msim upper bounds (empty when a side has no tokens)."""
    if not left_side.tokens or not right_side.tokens:
        return []
    use_jaccard = config.uses(Measure.JACCARD)
    right_bounds = right_side.bound_state
    return [
        [_segment_pair_upper_bound(left, right, use_jaccard) for right in right_bounds]
        for left in left_side.bound_state
    ]


#: Stage 2 prunes only below θ minus this, and the top-k queue adds it to
#: its keys: the bound and ``exact_usim`` add the same terms in different
#: orders, so rounding can put the bound below the exact USIM (on 101 of
#: 25,830 TINY pairs, by at most 1.2e-16).
PARTITION_SLACK = 1e-9


def partition_bound(
    left_side: GraphSide,
    right_side: GraphSide,
    row_maxima: Sequence[float],
    column_maxima: Sequence[float],
) -> float:
    """``max_{a,b} min(A[a], B[b], min(a, b)) / max(a, b)``, clamped to 1.0.

    ``A`` is :func:`~repro.core.segments.partition_sums` of the left side
    weighted by the pair's row maxima ``r``, ``B`` that of the right side
    weighted by its column maxima ``c`` (see :class:`PairUpperBound`).
    """
    if not row_maxima or not column_maxima:
        return 0.0
    left = partition_sums(len(left_side.tokens), left_side.segments, row_maxima)
    right = partition_sums(len(right_side.tokens), right_side.segments, column_maxima)
    # With A'[a] = min(A[a], a), the best numerator over max(a, b) = m is
    # max(min(A'[m], max_{b<=m} B'[b]), min(max_{a<=m} A'[a], B'[m])); min,
    # max and rounding are monotone, so this equals the pairwise maximum.
    best = 0.0
    left_best = right_best = UNREACHABLE
    for size in range(1, max(len(left), len(right))):
        here_left = min(left[size], size) if size < len(left) else UNREACHABLE
        here_right = min(right[size], size) if size < len(right) else UNREACHABLE
        left_best = max(left_best, here_left)
        right_best = max(right_best, here_right)
        numerator = max(min(here_left, right_best), min(left_best, here_right))
        best = max(best, numerator / size)
    return min(best, 1.0)


class PairUpperBound:
    """An upper bound on one pair's unified similarity, in two stages.

    A well-defined partition pair realises ``W(P) / max(|P_S|, |P_T|)``,
    where the matching ``W(P)`` pairs segments of the two partitions.
    :attr:`matrix` bounds msim from above for *every* pair of well-defined
    segments, so a matched msim is at most its row maximum ``r(p)`` and its
    column maximum ``c(q)``.  Both stages bound USIM, and so the Algorithm-1
    value, which realises some partition pair, from above:

    * :meth:`maxima` sums ``r`` over all left segments (and ``c`` over all
      right ones) and divides by ``max(MP(S), MP(T)) ≤ max(|P_S|, |P_T|)``.
    * :meth:`partition`: with ``a = |P_S|`` and ``b = |P_T|``, a matching
      uses each segment of ``P_S`` once, so ``W(P) ≤ Σ_{p∈P_S} r(p) ≤
      A[a]``, the best such sum over partitions of S into ``a`` segments;
      likewise ``W(P) ≤ B[b]``; and ``W(P) ≤ min(a, b)``, as it has at most
      that many pairs of msim ≤ 1.  So USIM ≤ :func:`partition_bound`, and
      USIM ≤ 1 keeps its clamp sound.

    In floating point the partition bound can fall a few ulps below the
    exact USIM (see :data:`PARTITION_SLACK`).  It never exceeds
    ``maxima(0.0)``, bit for bit: ``A[a]`` adds a subset of the row maxima
    in the order the row sum adds all of them, so with non-negative terms
    and monotone rounding it is at most the row sum (``B[b]`` likewise),
    and ``max(a, b) ≥ max(MP(S), MP(T), 1)``.  It does not dominate a
    maximum-weight matching over all segments pair by pair (row maxima may
    share a right segment): on 5,166 TINY pairs (seeds 1–3 with
    near-duplicates, q 2 and 3) under J, JS, TJS, T and S at θ 0.6–0.9,
    that matching bound alone pruned 6 (pair, θ) stage-1 survivors, and the
    partition bound alone 453.
    """

    __slots__ = (
        "left_side", "right_side", "matrix", "denominator", "_row_maxima", "_column_maxima"
    )

    def __init__(
        self, left_side: GraphSide, right_side: GraphSide, config: MeasureConfig
    ) -> None:
        _check_side_configs(left_side, right_side, config)
        self.left_side = left_side
        self.right_side = right_side
        self.matrix = _bound_matrix(left_side, right_side, config)
        self.denominator = 1
        if self.matrix:
            self.denominator = max(
                left_side.min_partition_size, right_side.min_partition_size, 1
            )
        self._row_maxima: Optional[List[float]] = None
        self._column_maxima: Optional[List[float]] = None

    @property
    def row_maxima(self) -> List[float]:
        """``r``: each left segment's largest matrix entry (computed once)."""
        if self._row_maxima is None:
            self._row_maxima = [max(row) for row in self.matrix]
        return self._row_maxima

    @property
    def column_maxima(self) -> List[float]:
        """``c``: each right segment's largest matrix entry (computed once)."""
        if self._column_maxima is None:
            self._column_maxima = [max(column) for column in zip(*self.matrix)]
        return self._column_maxima

    def maxima(self, threshold: float) -> float:
        """The maxima bound; the column sum is skipped when rows prune.

        The smaller of the two sums is the bound, but when the row sum
        alone already falls below ``threshold`` the (looser, still valid)
        row bound is returned: only its comparison with ``threshold`` is
        ever used.  Both sums add their maxima one at a time, in row and
        column order: the group kernel of :mod:`repro.join.bound_kernel`
        adds in the same order, which is what makes it bit-identical.
        """
        if not self.matrix or not self.matrix[0]:
            return 0.0
        cheap = 0.0
        for value in self.row_maxima:
            cheap += value
        if cheap / self.denominator >= threshold:
            col_sum = 0.0
            for value in self.column_maxima:
                col_sum += value
            cheap = min(cheap, col_sum)
        value = cheap / self.denominator
        return 1.0 if value > 1.0 else value

    def partition(self) -> float:
        """The partition bound (see :func:`partition_bound`)."""
        if not self.matrix or not self.matrix[0]:
            return 0.0
        return partition_bound(
            self.left_side, self.right_side, self.row_maxima, self.column_maxima
        )
