"""Bound-ordered top-k selection (the search subsystem's pruning core).

Given candidates with cheap upper bounds on an expensive score, the exact
top-k can be found without scoring everything: evaluate candidates in
descending bound order and stop as soon as the k-th best *verified* score
is strictly above every remaining bound — no unevaluated candidate can
then enter the result, tie-breaks included.

Bounds may come in two strengths.  With a ``refine`` callable the queue is
lazy: a candidate enters keyed by its cheap bound, and when it first
reaches the head its key is replaced by the tighter refined bound and it
goes back into the queue; only on its second arrival is it evaluated.  The
stop test reads the head's key, cheap or refined, and both dominate the
score, so the answer stays exact while the dear bound is computed only for
candidates that reach the head.

This is measure-agnostic machinery: :mod:`repro.search` drives it with the
group maxima bound as the cheap key, the matching bound as the refinement
and the tiered verification cascade as the evaluator, but nothing here
knows about records or similarity.
"""

from __future__ import annotations

import bisect
import heapq
import numbers
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["bounded_top_k", "check_top_k"]

Item = TypeVar("Item")


def check_top_k(k: object) -> int:
    """``k`` when it is an integer ``>= 1``; raise ``ValueError`` otherwise.

    A float ``k`` — NaN, infinite or fractional — is rejected even when
    integral in value: the early stop tests ``len(kept) == k``, which a
    non-integer never satisfies.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be a positive integer; got {k!r}")
    return int(k)


def bounded_top_k(
    items: Sequence[Item],
    bounds: Sequence[float],
    evaluate: Callable[[Item], Optional[float]],
    k: int,
    *,
    tie_key: Optional[Callable[[Item], object]] = None,
    refine: Optional[Callable[[Item], Optional[float]]] = None,
) -> Tuple[List[Tuple[Item, float]], int]:
    """Exact top-k by an expensive score, pruned by per-item upper bounds.

    Parameters
    ----------
    items, bounds:
        Aligned sequences; ``bounds[i]`` must upper-bound the true score of
        ``items[i]`` (an invalid bound makes the early stop lossy).
    evaluate:
        The expensive scorer; ``None`` means the item is ineligible (e.g.
        below a threshold floor) and never enters the result.
    k:
        How many items to keep (an integer ``>= 1``).
    tie_key:
        Total order among equal scores (and equal bounds), so the selection
        is deterministic; defaults to the item's position in ``items``.
    refine:
        Optional tighter bound, computed when the item first reaches the
        head of the queue: it must lie between the item's score and
        ``bounds[i]``; ``None`` drops the item as ineligible.

    Returns
    -------
    ``(top, evaluated)`` where ``top`` holds at most ``k`` ``(item, score)``
    pairs sorted by ``(-score, tie_key)`` and ``evaluated`` counts how many
    candidates were actually scored.  The early stop is exact: items are
    evaluated in descending order of their (refined) bounds and the queue
    halts once the k-th best score is *strictly* greater than the key at its
    head — every remaining item's score is at most its key, hence strictly
    worse, so even a tie cannot displace a kept item.
    """
    k = check_top_k(k)
    if len(items) != len(bounds):
        raise ValueError("items and bounds must be aligned")
    key = tie_key if tie_key is not None else (lambda item: 0)
    # Entries are (-bound, tie, position, refined): the heap pops the
    # highest bound first, ties by the tie key, then by position.
    queue = [
        (-bounds[position], key(items[position]), position, refine is None)
        for position in range(len(items))
    ]
    heapq.heapify(queue)

    # ``kept`` holds (-score, tie, position) so bisect keeps it best-first.
    kept: List[Tuple[float, object, int]] = []
    evaluated = 0
    while queue:
        negated_bound, tie, position, refined = queue[0]
        if len(kept) == k and -negated_bound < -kept[-1][0]:
            break
        if not refined:
            tighter = refine(items[position])
            if tighter is None:
                heapq.heappop(queue)
            else:
                heapq.heapreplace(queue, (-tighter, tie, position, True))
            continue
        heapq.heappop(queue)
        score = evaluate(items[position])
        evaluated += 1
        if score is None:
            continue
        bisect.insort(kept, (-score, tie, position))
        if len(kept) > k:
            kept.pop()
    return [(items[position], -negated) for negated, _, position in kept], evaluated
