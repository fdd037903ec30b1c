"""Weighted maximum independent set on the conflict graph.

The approximation algorithm of the paper (Algorithm 1) seeds its solution
with a w-MIS computed by SquareImp [Berman 2000], a local-search algorithm
for d-claw-free graphs that repeatedly applies claw improvements with
respect to the *squared* vertex weights.  This module provides:

* :func:`greedy_mask` — a weight-descending greedy baseline,
* :func:`squareimp_mask` — greedy seed followed by SquareImp-style claw
  improvements on squared weights, with a configurable maximum claw size,
* :func:`exact_wmis` — exhaustive search for small graphs, used by tests
  as ground truth.

Every search runs on the graph's int adjacency masks
(:attr:`~repro.core.graph.ConflictGraph.adjacency`), with the selection as
one more mask: conflict sets, partner pools and independence tests are bit
operations.  :func:`greedy_mask` and :func:`squareimp_mask` return the
selection mask, which is what Algorithm 1 keeps working on
(:func:`~repro.core.graph.mask_indices` lists its vertex indices).

SquareImp skips the partner sets of an anchor that cannot win.  Every
talon set around anchor ``a`` removes at least ``a``'s own selected
neighbours, so its loss is at least ``loss(a)``, while its gain is at most
``sq[a]`` plus ``c − 1`` of the heaviest outside squared weights.  When
that ceiling stays ``1e-9`` below ``loss(a)``, no partner set can pass the
``gain > loss + 1e-12`` test, and the scan moves to the next anchor
without pooling partners.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Set

from .graph import ConflictGraph, mask_indices

__all__ = [
    "greedy_mask",
    "squareimp_mask",
    "exact_wmis",
    "is_maximal_independent_set",
]

#: Slack of the claw-improvement test ``gain > loss + _GAIN_SLACK``.
_GAIN_SLACK = 1e-12

#: Margin of the partner-set skip (see the module docs): far above the
#: rounding of a few-term sum, so the skip never drops a passing set.
_SKIP_MARGIN = 1e-9


def _mask_sum(values: Sequence[float], mask: int) -> float:
    """``values`` summed over the set bits of ``mask``, in ascending order."""
    total = 0.0
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def is_maximal_independent_set(graph: ConflictGraph, selection: Set[int]) -> bool:
    """True when ``selection`` is independent and no vertex can be added."""
    if not graph.is_independent(selection):
        return False
    for index in range(len(graph)):
        if index in selection:
            continue
        if not (graph.neighbors(index) & selection):
            return False
    return True


def greedy_mask(graph: ConflictGraph) -> int:
    """Greedy w-MIS as a mask: take the heaviest remaining non-conflicting vertex."""
    adjacency = graph.adjacency
    order = sorted(range(len(graph)), key=graph.weights.__getitem__, reverse=True)
    selected = blocked = 0
    for index in order:
        bit = 1 << index
        if blocked & bit:
            continue
        selected |= bit
        blocked |= bit | adjacency[index]
    return selected


def squareimp_mask(
    graph: ConflictGraph,
    *,
    max_claw_size: int = 2,
    max_iterations: int = 200,
) -> int:
    """SquareImp-style local search for w-MIS on a claw-free conflict graph.

    Starting from the greedy solution, the search looks for a *claw
    improvement*: an independent set of up to ``max_claw_size`` vertices
    (the talons) outside the current solution whose squared weight exceeds
    the squared weight of the solution vertices they conflict with.  Applying
    such improvements until none exists yields Berman's d/2 guarantee on
    d-claw-free graphs when ``max_claw_size`` ≥ d−1; smaller values trade the
    constant for speed, which is the same trade-off the paper's ``t``
    parameter expresses.

    Talon sets are enumerated around each outside vertex (the *anchor*), in
    index order: first the anchor alone, then the anchor with up to
    ``max_claw_size - 1`` *partners* — outside vertices, in index order,
    that are not adjacent to the anchor but share a neighbour with it; only
    the first ``max(8, 4 * max_claw_size) - 1`` are pooled, and only once
    the anchor alone has failed and the skip of the module docs does not
    apply.  The first improving set is applied and the scan restarts.
    Returns the selection as a mask.
    """
    if max_claw_size < 1:
        raise ValueError("max_claw_size must be at least 1")

    adjacency = graph.adjacency
    weights = graph.weights
    squared = [weight ** 2 for weight in weights]
    selected = greedy_mask(graph)
    everything = (1 << len(graph)) - 1
    partner_limit = max(8, max_claw_size * 4) - 1
    extra_talons = max_claw_size - 1

    for _ in range(max_iterations):
        outside = mask_indices(everything & ~selected)
        partner_room = extra_talons * max((squared[i] for i in outside), default=0.0)
        swap = None
        for anchor in outside:
            neighbours = adjacency[anchor]
            removed = neighbours & selected
            loss = _mask_sum(squared, removed)
            if squared[anchor] > loss + _GAIN_SLACK:
                swap = (1 << anchor, removed)
                break
            if not extra_talons or squared[anchor] + partner_room <= loss - _SKIP_MARGIN:
                continue
            partners: List[int] = []
            for index in outside:
                if (
                    index != anchor
                    and not neighbours >> index & 1
                    and neighbours & adjacency[index]
                ):
                    partners.append(index)
                    if len(partners) == partner_limit:
                        break
            for size in range(1, max_claw_size):
                for rest in itertools.combinations(partners, size):
                    if size > 1 and not graph.is_independent(rest):
                        continue
                    gain = squared[anchor]
                    talons = 1 << anchor
                    conflicts = neighbours
                    for talon in rest:
                        gain += squared[talon]
                        talons |= 1 << talon
                        conflicts |= adjacency[talon]
                    removed = conflicts & selected
                    if gain > _mask_sum(squared, removed) + _GAIN_SLACK:
                        swap = (talons, removed)
                        break
                if swap is not None:
                    break
            if swap is not None:
                break
        if swap is None:
            break
        talons, removed = swap
        selected = (selected & ~removed) | talons

    # Make the solution maximal: add any non-conflicting leftover vertex.
    for index in sorted(range(len(graph)), key=lambda i: -weights[i]):
        if not (selected >> index & 1 or adjacency[index] & selected):
            selected |= 1 << index
    return selected


def exact_wmis(graph: ConflictGraph, *, max_vertices: int = 24) -> Set[int]:
    """Exhaustive maximum-weight independent set for small graphs.

    Uses branch and bound over the vertex list ordered by descending weight.
    Raises ``ValueError`` when the graph exceeds ``max_vertices`` to guard
    against accidental exponential blow-ups.
    """
    n = len(graph)
    if n > max_vertices:
        raise ValueError(
            f"exact w-MIS limited to {max_vertices} vertices, got {n}; "
            "use squareimp_mask for larger graphs"
        )
    weights = graph.weights
    adjacency = graph.adjacency
    order = sorted(range(n), key=lambda index: -weights[index])
    suffix_weight = [0.0] * (n + 1)
    for position in range(n - 1, -1, -1):
        suffix_weight[position] = suffix_weight[position + 1] + weights[order[position]]

    best_weight = 0.0
    best_selection = 0

    def branch(position: int, current: int, current_weight: float, blocked: int) -> None:
        nonlocal best_weight, best_selection
        if current_weight > best_weight:
            best_weight = current_weight
            best_selection = current
        if position == n:
            return
        if current_weight + suffix_weight[position] <= best_weight:
            return
        index = order[position]
        bit = 1 << index
        # Option 1: include the vertex when allowed.
        if not blocked & bit:
            branch(
                position + 1,
                current | bit,
                current_weight + weights[index],
                blocked | adjacency[index] | bit,
            )
        # Option 2: skip the vertex.
        branch(position + 1, current, current_weight, blocked)

    branch(0, 0, 0.0, 0)
    return set(mask_indices(best_selection))
