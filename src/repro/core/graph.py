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
bookkeeping once instead of ``k`` times;
:func:`build_conflict_graph_from_sides` assembles the pair graph from two
cached sides, and :func:`build_conflict_graph` is now a thin wrapper that
builds both sides ad hoc (one code path, so the cached and uncached
constructions cannot diverge).

The side state also powers the verification cascade's two bounds:
:func:`usim_upper_bound` bounds the unified similarity from above without
building the pair graph (per-segment msim upper bounds fed to a maxima
bound and then a matching bound, the two stages of
:class:`PairUpperBound`), and a pair either bound puts below the
threshold never reaches Algorithm 1.

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
from .matching import matching_weight_upper_bound
from .measures import Measure, MeasureConfig
from .segments import Segment, enumerate_segments, min_partition_size
from .vocab import Vocabulary

__all__ = [
    "PairVertex",
    "ConflictGraph",
    "GraphSide",
    "PairGraphAssembler",
    "build_conflict_graph",
    "build_conflict_graph_from_sides",
    "PairUpperBound",
    "SideBoundCodes",
    "usim_upper_bound",
]

_EPSILON = 1e-12

#: The process-local intern table of the bound encoding: q-grams (strings)
#: and synonym lhs keys (token tuples) share it, since the two never compare
#: equal.  The lock keeps concurrent first encodings from assigning one id
#: twice.
_BOUND_VOCAB = Vocabulary()
_BOUND_VOCAB_LOCK = threading.Lock()


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
    measure:
        The measure attaining the weight (None only for zero-weight vertices,
        which the builder drops).
    """

    index: int
    left: Segment
    right: Segment
    weight: float
    measure: Optional[Measure]

    def conflicts_with(self, other: "PairVertex") -> bool:
        """True when the two vertices cannot be selected together."""
        return self.left.conflicts_with(other.left) or self.right.conflicts_with(other.right)


class ConflictGraph:
    """The conflict graph over candidate segment pairs of two strings."""

    def __init__(
        self,
        left_tokens: Sequence[str],
        right_tokens: Sequence[str],
        vertices: Sequence[PairVertex],
        adjacency: Sequence[Set[int]],
    ) -> None:
        self.left_tokens: Tuple[str, ...] = tuple(left_tokens)
        self.right_tokens: Tuple[str, ...] = tuple(right_tokens)
        self.vertices: Tuple[PairVertex, ...] = tuple(vertices)
        self._adjacency: Tuple[FrozenSet[int], ...] = tuple(frozenset(neigh) for neigh in adjacency)

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors(self, index: int) -> FrozenSet[int]:
        """Indices of vertices conflicting with vertex ``index``."""
        return self._adjacency[index]

    def are_adjacent(self, left_index: int, right_index: int) -> bool:
        """True when the two vertices conflict."""
        return right_index in self._adjacency[left_index]

    def is_independent(self, indices: Iterable[int]) -> bool:
        """True when no two of ``indices`` conflict."""
        selected = list(indices)
        for position, index in enumerate(selected):
            neighbours = self._adjacency[index]
            for other in selected[position + 1:]:
                if other in neighbours:
                    return False
        return True

    def total_weight(self, indices: Iterable[int]) -> float:
        """Sum of vertex weights over ``indices``."""
        return sum(self.vertices[index].weight for index in indices)

    def degree(self, index: int) -> int:
        """Number of conflicting vertices of vertex ``index``."""
        return len(self._adjacency[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edge_count = sum(len(neigh) for neigh in self._adjacency) // 2
        return f"ConflictGraph(vertices={len(self.vertices)}, edges={edge_count})"


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
) -> ConflictGraph:
    """Assemble the pair conflict graph from two cached sides.

    Produces a graph identical (vertex order, weights, adjacency) to the
    historical per-pair construction: vertices are emitted left-major over
    the positionally sorted segment lists, weights come from the shared
    memoised ``msim``, and edges connect vertices whose segments overlap on
    either side — now looked up in each side's cached overlap sets instead
    of re-testing spans per vertex pair.
    """
    _check_side_configs(left_side, right_side, config)
    return _assemble_graph(left_side, right_side, config)


def _assemble_graph(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
    left_indices: Optional[Sequence[int]] = None,
    right_indices: Optional[Sequence[int]] = None,
) -> ConflictGraph:
    """The shared graph-assembly core (configs already checked).

    ``left_indices`` / ``right_indices`` restrict one side to a subset of
    its segments, in ascending order; a restriction is only sound when the
    skipped segments provably form no vertex against *any* partner segment
    (see :class:`PairGraphAssembler`), in which case the restricted build
    is vertex-for-vertex identical to the full one.
    """
    rules = config.rules if config.uses(Measure.SYNONYM) else None
    use_tax = config.uses(Measure.TAXONOMY) and config.taxonomy is not None
    left_match = left_side.match_state
    right_match = right_side.match_state
    left_segments = left_side.segments
    right_segments = right_side.segments
    if left_indices is None:
        left_indices = range(len(left_segments))
    if right_indices is None:
        right_indices = range(len(right_segments))
    msim = config.msim_with_measure

    vertices: List[PairVertex] = []
    vertex_sides: List[Tuple[int, int]] = []
    for i in left_indices:
        left = left_segments[i]
        left_state = left_match[i]
        for j in right_indices:
            right = right_segments[j]
            right_state = right_match[j]
            # Conditions (a)–(c) of Section 2.3.  The synonym condition is
            # pre-filtered by shared lhs pebble keys: a connecting rule
            # deposits its lhs key on both sides, so disjoint key sets imply
            # similarity 0 without the directional rule lookup.
            if left_state.is_single and right_state.is_single:
                pass
            elif (
                rules is not None
                and left_state.syn_keys is not None
                and right_state.syn_keys is not None
                and not left_state.syn_keys.isdisjoint(right_state.syn_keys)
                and rules.similarity(left.tokens, right.tokens) > 0.0
            ):
                pass
            elif use_tax and left_state.has_tax and right_state.has_tax:
                pass
            else:
                continue
            weight, measure = msim(
                left.tokens,
                right.tokens,
                left_text=left.text,
                right_text=right.text,
            )
            if weight < _EPSILON:
                continue
            vertices.append(
                PairVertex(
                    index=len(vertices),
                    left=left,
                    right=right,
                    weight=weight,
                    measure=measure,
                )
            )
            vertex_sides.append((i, j))

    by_left: Dict[int, Set[int]] = {}
    by_right: Dict[int, Set[int]] = {}
    for vertex_id, (i, j) in enumerate(vertex_sides):
        by_left.setdefault(i, set()).add(vertex_id)
        by_right.setdefault(j, set()).add(vertex_id)

    left_overlap = left_side.overlap_sets
    right_overlap = right_side.overlap_sets
    union_left: Dict[int, Set[int]] = {}
    union_right: Dict[int, Set[int]] = {}

    def conflict_union(
        index: int,
        overlaps: Sequence[FrozenSet[int]],
        by_segment: Dict[int, Set[int]],
        cache: Dict[int, Set[int]],
    ) -> Set[int]:
        union = cache.get(index)
        if union is None:
            union = set()
            for other in overlaps[index]:
                members = by_segment.get(other)
                if members:
                    union |= members
            cache[index] = union
        return union

    adjacency: List[Set[int]] = []
    for vertex_id, (i, j) in enumerate(vertex_sides):
        neighbours = conflict_union(i, left_overlap, by_left, union_left) | conflict_union(
            j, right_overlap, by_right, union_right
        )
        neighbours.discard(vertex_id)
        adjacency.append(neighbours)

    return ConflictGraph(left_side.tokens, right_side.tokens, vertices, adjacency)


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


class PairGraphAssembler:
    """Builds conflict graphs of one fixed *probe* side against many partners.

    The batch verifier checks every candidate of a probe against the same
    probe-side state, so the per-pair work that depends only on the probe
    can be hoisted out of the pair loop.  The assembler precomputes, once,
    which probe segments can qualify under conditions (a)–(c) at all: a
    segment that is not a singleton, carries no synonym lhs keys, and has
    no taxonomy node fails every branch of the qualification test against
    *any* partner segment, so the vertex loop skips its whole row (or
    column) without consulting the partner.  Because the surviving indices
    are iterated in their original ascending order, the assembled graph is
    vertex-for-vertex identical — order, weights, adjacency — to
    :func:`build_conflict_graph_from_sides` on the same pair.

    ``probe_is_left`` fixes which side of the graph the probe occupies
    (vertex order is left-major, so it is part of the bit-identity
    contract); partners supply the other side per :meth:`build` call.
    """

    __slots__ = ("probe_side", "config", "probe_is_left", "_active")

    def __init__(
        self,
        probe_side: GraphSide,
        config: MeasureConfig,
        *,
        probe_is_left: bool = True,
    ) -> None:
        self.probe_side = probe_side
        self.config = config
        self.probe_is_left = probe_is_left
        match_state = probe_side.match_state
        active = tuple(
            index
            for index, state in enumerate(match_state)
            if state.is_single or state.syn_keys is not None or state.has_tax
        )
        # ``None`` keeps the plain ``range`` fast path when nothing is skipped.
        self._active: Optional[Tuple[int, ...]] = (
            None if len(active) == len(match_state) else active
        )

    def build(self, partner_side: GraphSide) -> ConflictGraph:
        """Assemble the conflict graph of the probe against ``partner_side``."""
        if self.probe_is_left:
            left_side, right_side = self.probe_side, partner_side
            left_indices, right_indices = self._active, None
        else:
            left_side, right_side = partner_side, self.probe_side
            left_indices, right_indices = None, self._active
        _check_side_configs(left_side, right_side, self.config)
        return _assemble_graph(
            left_side,
            right_side,
            self.config,
            left_indices,
            right_indices,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        skipped = (
            0
            if self._active is None
            else len(self.probe_side.segments) - len(self._active)
        )
        return (
            f"PairGraphAssembler(segments={len(self.probe_side.segments)}, "
            f"skipped={skipped}, probe_is_left={self.probe_is_left})"
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
    other's lhs keys without a rule mapping one to the *other*.
    """
    bound = 0.0
    if use_jaccard and left.grams and right.grams:
        intersection = len(left.grams & right.grams)
        if intersection:
            union = len(left.grams) + len(right.grams) - intersection
            value = intersection / union
            if value > bound:
                bound = value
    if left.syn_closeness is not None and right.syn_closeness is not None:
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


class PairUpperBound:
    """The two stages of :func:`usim_upper_bound` over one pair's matrix.

    Every well-defined partition pair realises ``W(P) / max(|P_S|, |P_T|)``
    where the matching ``W(P)`` only pairs well-defined segments; bounding
    the numerator by a matching over *all* segment pairs (with per-pair
    msim upper bounds, :attr:`matrix`) and the denominator from below by
    the exact minimal partition sizes therefore bounds USIM — and a
    fortiori the Algorithm-1 approximation, which realises some partition
    pair — from above.  The numerator comes in two strengths: :meth:`maxima`
    sums row/column maxima, which dominate any matching's weight (a
    matching takes at most one entry per row and per column), and
    :meth:`matching` runs the matching solver, which is tighter and dearer.
    The two stages share one instance, so a candidate that reaches the
    matching stage builds its matrix once.
    """

    __slots__ = ("matrix", "denominator")

    def __init__(
        self, left_side: GraphSide, right_side: GraphSide, config: MeasureConfig
    ) -> None:
        _check_side_configs(left_side, right_side, config)
        self.matrix: List[List[float]] = []
        self.denominator = 1
        if not left_side.tokens or not right_side.tokens:
            return
        use_jaccard = config.uses(Measure.JACCARD)
        right_bounds = right_side.bound_state
        self.matrix = [
            [
                _segment_pair_upper_bound(left, right, use_jaccard)
                for right in right_bounds
            ]
            for left in left_side.bound_state
        ]
        self.denominator = max(
            left_side.min_partition_size, right_side.min_partition_size, 1
        )

    def maxima(self, threshold: float) -> float:
        """The maxima bound; the column sum is skipped when rows prune.

        The smaller of the two sums is the bound, but when the row sum
        alone already falls below ``threshold`` the (looser, still valid)
        row bound is returned: only its comparison with ``threshold`` is
        ever used.  Both sums add their maxima one at a time, in row and
        column order: the group kernel of :mod:`repro.join.bound_kernel`
        adds in the same order, which is what makes it bit-identical.
        """
        matrix = self.matrix
        if not matrix or not matrix[0]:
            return 0.0
        cheap = 0.0
        for row in matrix:
            cheap += max(row)
        if cheap / self.denominator >= threshold:
            col_sum = 0.0
            for column in range(len(matrix[0])):
                col_sum += max(row[column] for row in matrix)
            cheap = min(cheap, col_sum)
        value = cheap / self.denominator
        return 1.0 if value > 1.0 else value

    def matching(self) -> float:
        """The matching-solver bound (see :func:`matching_weight_upper_bound`)."""
        numerator = matching_weight_upper_bound(self.matrix)
        value = numerator / self.denominator
        return 1.0 if value > 1.0 else value


def usim_upper_bound(
    left_side: GraphSide,
    right_side: GraphSide,
    config: MeasureConfig,
    *,
    threshold: Optional[float] = None,
) -> float:
    """An upper bound on the unified similarity, pair graph not required.

    The composition of the two :class:`PairUpperBound` stages: without
    ``threshold`` this is the matching bound (the tightest; top-k search
    refines a candidate to it at the head of its queue).  ``threshold`` is
    a pure short circuit
    for callers that only compare the bound against a pruning threshold:
    when the cheap maxima bound already falls below it, that bound is
    returned and the matching solver never runs.  Every decision of the
    form ``usim_upper_bound(...) < threshold`` is identical with or without
    the short circuit — only the returned value may be the (valid but
    looser) maxima bound in the sub-threshold cases.  The verification
    cascade runs the same two stages itself (see
    :mod:`repro.join.verification`).
    """
    bound = PairUpperBound(left_side, right_side, config)
    if threshold is not None:
        cheap = bound.maxima(threshold)
        if cheap < threshold:
            return cheap
    return bound.matching()

