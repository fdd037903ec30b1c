"""Well-defined segments and partitions (Definitions 1 and 2 of the paper).

A *well-defined segment* of a string ``S`` is a run of consecutive tokens
that (i) equals the lhs or rhs of a synonym rule, or (ii) equals the label of
a taxonomy entity, or (iii) consists of exactly one token.  A *well-defined
partition* is a set of pairwise disjoint well-defined segments that covers
every token of ``S`` exactly once.

This module enumerates segments and partitions, computes the minimal
partition size ``MP(S)``, and defines the :class:`Segment` value object that
the rest of the library passes around.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.tokenizer import TokenSpan, join_tokens
from ..synonyms.rules import SynonymRuleSet
from ..taxonomy.tree import Taxonomy

__all__ = [
    "Segment",
    "enumerate_segments",
    "enumerate_partitions",
    "count_partitions",
    "min_partition_size",
    "partition_sums",
    "singleton_partition",
]


@dataclass(frozen=True, order=True)
class Segment:
    """A well-defined segment: a token span of a record plus its token text.

    Attributes
    ----------
    span:
        The half-open token interval the segment covers.
    tokens:
        The tokens covered (redundant with the record but kept so segments
        are self-contained value objects).
    from_synonym, from_taxonomy:
        Which of the paper's three qualifying conditions the segment meets.
        A single-token segment always qualifies even when both flags are
        False.
    """

    span: TokenSpan
    tokens: Tuple[str, ...]
    from_synonym: bool = False
    from_taxonomy: bool = False

    @cached_property
    def text(self) -> str:
        """The segment tokens joined into canonical text (computed once).

        ``cached_property`` writes straight into ``__dict__``, which frozen
        dataclasses permit; equality and hashing still use only the declared
        fields, so the cache never affects value semantics.
        """
        return join_tokens(self.tokens)

    @property
    def is_single_token(self) -> bool:
        """True for segments containing exactly one token."""
        return len(self.tokens) == 1

    def __len__(self) -> int:
        return len(self.tokens)


def enumerate_segments(
    tokens: Sequence[str],
    *,
    rules: Optional[SynonymRuleSet] = None,
    taxonomy: Optional[Taxonomy] = None,
    max_tokens: Optional[int] = None,
) -> List[Segment]:
    """Enumerate every well-defined segment of ``tokens``.

    Multi-token segments are those matching a synonym rule side or a taxonomy
    node label; every single token is always a segment.  ``max_tokens`` caps
    the length of multi-token segments (useful for stress tests); ``None``
    means no cap beyond what the rule set / taxonomy contain.
    """
    token_tuple = tuple(tokens)
    n = len(token_tuple)
    found: Dict[Tuple[int, int], Tuple[bool, bool]] = {}

    if rules is not None:
        for start, end in rules.matching_spans(token_tuple):
            if max_tokens is not None and end - start > max_tokens:
                continue
            syn, tax = found.get((start, end), (False, False))
            found[(start, end)] = (True, tax)
    if taxonomy is not None:
        for start, end in taxonomy.matching_spans(token_tuple):
            if max_tokens is not None and end - start > max_tokens:
                continue
            syn, tax = found.get((start, end), (False, False))
            found[(start, end)] = (syn, True)
    # Single-token segments always qualify (condition iii).
    for position in range(n):
        found.setdefault((position, position + 1), (False, False))

    segments = [
        Segment(
            span=TokenSpan(start, end),
            tokens=token_tuple[start:end],
            from_synonym=syn,
            from_taxonomy=tax,
        )
        for (start, end), (syn, tax) in found.items()
    ]
    segments.sort(key=lambda segment: (segment.span.start, segment.span.end))
    return segments


def singleton_partition(tokens: Sequence[str]) -> List[Segment]:
    """Return the partition where every token is its own segment."""
    return [
        Segment(span=TokenSpan(i, i + 1), tokens=(token,))
        for i, token in enumerate(tokens)
    ]


def _segments_by_start(segments: Iterable[Segment]) -> Dict[int, List[Segment]]:
    by_start: Dict[int, List[Segment]] = {}
    for segment in segments:
        by_start.setdefault(segment.span.start, []).append(segment)
    return by_start


def enumerate_partitions(
    tokens: Sequence[str],
    segments: Optional[Iterable[Segment]] = None,
    *,
    rules: Optional[SynonymRuleSet] = None,
    taxonomy: Optional[Taxonomy] = None,
    limit: Optional[int] = None,
) -> Iterator[Tuple[Segment, ...]]:
    """Yield every well-defined partition of ``tokens``.

    A partition is represented as a tuple of segments in positional order.
    Because every single token is a well-defined segment, at least one
    partition (the all-singletons one) always exists for non-empty input.

    ``limit`` bounds the number of partitions yielded; exceeding it raises
    ``RuntimeError`` so callers cannot silently truncate an exact
    computation.
    """
    token_tuple = tuple(tokens)
    n = len(token_tuple)
    if n == 0:
        yield ()
        return
    if segments is None:
        segments = enumerate_segments(token_tuple, rules=rules, taxonomy=taxonomy)
    by_start = _segments_by_start(segments)
    # Ensure every position can start at least a singleton segment.
    for position in range(n):
        if not any(seg.span.start == position for seg in by_start.get(position, [])):
            by_start.setdefault(position, []).append(
                Segment(span=TokenSpan(position, position + 1), tokens=(token_tuple[position],))
            )

    emitted = 0
    stack: List[Segment] = []

    def recurse(position: int) -> Iterator[Tuple[Segment, ...]]:
        nonlocal emitted
        if position == n:
            emitted += 1
            if limit is not None and emitted > limit:
                raise RuntimeError(
                    f"partition enumeration exceeded limit of {limit}; "
                    "string has too many well-defined partitions for exact computation"
                )
            yield tuple(stack)
            return
        for segment in by_start.get(position, ()):
            stack.append(segment)
            yield from recurse(segment.span.end)
            stack.pop()

    yield from recurse(0)


def count_partitions(
    tokens: Sequence[str],
    *,
    rules: Optional[SynonymRuleSet] = None,
    taxonomy: Optional[Taxonomy] = None,
) -> int:
    """Count well-defined partitions without materialising them.

    Uses the standard linear DP over positions: the number of partitions of
    the suffix starting at ``i`` is the sum over segments starting at ``i``
    of the count at their end position.
    """
    token_tuple = tuple(tokens)
    n = len(token_tuple)
    if n == 0:
        return 1
    segments = enumerate_segments(token_tuple, rules=rules, taxonomy=taxonomy)
    by_start = _segments_by_start(segments)
    counts = [0] * (n + 1)
    counts[n] = 1
    for position in range(n - 1, -1, -1):
        total = 0
        for segment in by_start.get(position, ()):
            total += counts[segment.span.end]
        counts[position] = total
    return counts[0]


#: :func:`partition_sums`' entry for a segment count no partition has.
UNREACHABLE = float("-inf")


def partition_sums(
    token_count: int,
    segments: Iterable[Segment],
    weights: Optional[Sequence[float]] = None,
) -> List[float]:
    """Per segment count ``a``, the largest weight sum of a partition into ``a`` segments.

    ``weights[i]`` is the non-negative weight of ``segments[i]`` (0.0 for
    all when ``None``); entry ``a = 0 .. token_count`` is :data:`UNREACHABLE`
    when no partition has ``a`` segments, and a position no segment starts
    at counts as a weightless singleton.  An interval DP over positions ×
    counts, run forward, so each entry adds its partition's weights left to
    right: for segments in positional order, a subset of the terms of the
    full weight sum in that sum's order.  With non-negative terms and
    monotone rounding, no entry exceeds the floating-point full sum, which
    :class:`~repro.core.graph.PairUpperBound` relies on.
    """
    by_start: Dict[int, List[Tuple[int, float]]] = {}
    for index, segment in enumerate(segments):
        weight = 0.0 if weights is None else weights[index]
        by_start.setdefault(segment.span.start, []).append((segment.span.end, weight))
    # sums[i][a]: the best sum over partitions of tokens [0, i) into a
    # segments; no partition of [0, i) has fewer than fewest[i].
    sums = [[UNREACHABLE] * (position + 1) for position in range(token_count + 1)]
    sums[0][0] = 0.0
    fewest = list(range(token_count + 1))
    for position in range(token_count):
        source = sums[position]
        low = fewest[position]
        for end, weight in by_start.get(position, ((position + 1, 0.0),)):
            target = sums[end]
            fewest[end] = min(fewest[end], low + 1)
            for count in range(low, position + 1):
                total = source[count] + weight
                if total > target[count + 1]:
                    target[count + 1] = total
    return sums[token_count]


def min_partition_size(token_count: int, segments: Iterable[Segment]) -> int:
    """``MP(S)``: the exact minimal number of segments of a well-defined partition.

    ``segments`` are the well-defined segments of a string of
    ``token_count`` tokens; the minimum is the weight-free case of
    :func:`partition_sums` (segments are intervals, so no exact cover is
    solved).  Both users of ``MP(S)`` read this one definition: the verification
    bounds, which divide by ``max(|P_S|, |P_T|)``, and the signature walk
    of Algorithms 2, 4 and 5, whose target is ``MP(S)·θ``.

    The paper estimates ``MP(S)`` instead, as a greedy set cover divided
    by ``ln n + 1`` (Algorithm 2, Lines 6–12).  Signing with the exact
    minimum cannot change an answer:

    * USIM divides the matching weight by ``max(|P_S|, |P_T|)``, so a pair
      with USIM ≥ θ has a matching weight of at least ``θ·|P_S|``, hence of
      at least ``θ·MP(S)`` for any lower bound ``MP(S)`` on ``|P_S|``.  That
      is the only place where the walk's guarantee uses ``MP(S)``.
    * The exact minimum is such a bound, and it is never below the paper's
      estimate: the smallest partition is at least the smallest cover,
      which is at least the greedy cover divided by ``ln n + 1``, and both
      sides are integers.
    * At each step of the walk, the value compared with the target (the
      suffix's accumulated similarity plus the credit) does not depend on
      ``MP(S)``.  A larger target therefore drops at least as many pebbles:
      each prefix is a prefix of the one the estimate gives, so a pair can
      only share fewer pebbles.  The walk's DP gate is computed from the
      same target, so it stays exact.
    * When every segment is one token (Jaccard alone), both definitions
      equal the token count.
    """
    sums = partition_sums(token_count, segments)
    return next(count for count, total in enumerate(sums) if total != UNREACHABLE)
