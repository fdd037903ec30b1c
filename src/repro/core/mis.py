"""Weighted maximum independent set on the conflict graph.

The approximation algorithm of the paper (Algorithm 1) seeds its solution
with a w-MIS computed by SquareImp [Berman 2000], a local-search algorithm
for d-claw-free graphs that repeatedly applies claw improvements with
respect to the *squared* vertex weights.  This module provides:

* :func:`greedy_wmis` — a weight-descending greedy baseline,
* :func:`squareimp_wmis` — greedy seed followed by SquareImp-style claw
  improvements on squared weights, with a configurable maximum claw size,
* :func:`exact_wmis` — exhaustive search for small graphs (used by tests and
  by the exact unified similarity).

All functions operate on :class:`~repro.core.graph.ConflictGraph` and return
sets of vertex indices.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterator, List, Sequence, Set, Tuple

from .graph import ConflictGraph

__all__ = ["greedy_wmis", "squareimp_wmis", "exact_wmis", "is_maximal_independent_set"]


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


def greedy_wmis(graph: ConflictGraph) -> Set[int]:
    """Greedy w-MIS: repeatedly take the heaviest remaining non-conflicting vertex."""
    order = sorted(
        range(len(graph)), key=lambda index: graph.vertices[index].weight, reverse=True
    )
    selected: Set[int] = set()
    blocked: Set[int] = set()
    for index in order:
        if index in blocked:
            continue
        selected.add(index)
        blocked.add(index)
        blocked |= graph.neighbors(index)
    return selected


def _talon_sets(
    graph: ConflictGraph,
    adjacency: Sequence[FrozenSet[int]],
    anchor: int,
    outside: Sequence[int],
    max_claw_size: int,
) -> Iterator[Tuple[int, ...]]:
    """Yield the candidate talon sets around ``anchor``, in search order.

    A talon set is the anchor plus up to ``max_claw_size - 1`` of its
    *partners*: outside vertices, in index order, that are not adjacent to
    the anchor but share a neighbour with it.  Only the first
    ``max(8, 4 * max_claw_size) - 1`` partners are pooled, and they are
    looked up only once the anchor alone has failed to improve.  Partners
    are non-adjacent to the anchor by construction, so a talon set is
    independent exactly when its partners are: a single partner needs no
    test.
    """
    yield (anchor,)
    if max_claw_size == 1:
        return
    limit = max(8, max_claw_size * 4) - 1
    anchor_neighbours = adjacency[anchor]
    partners: List[int] = []
    for index in outside:
        if (
            index != anchor
            and index not in anchor_neighbours
            and not anchor_neighbours.isdisjoint(adjacency[index])
        ):
            partners.append(index)
            if len(partners) == limit:
                break
    for size in range(1, max_claw_size):
        for rest in itertools.combinations(partners, size):
            if size == 1 or graph.is_independent(rest):
                yield (anchor,) + rest


def squareimp_wmis(
    graph: ConflictGraph,
    *,
    max_claw_size: int = 2,
    max_iterations: int = 200,
) -> Set[int]:
    """SquareImp-style local search for w-MIS on a claw-free conflict graph.

    Starting from the greedy solution, the search looks for a *claw
    improvement*: an independent set of up to ``max_claw_size`` vertices
    (the talons) outside the current solution whose squared weight exceeds
    the squared weight of the solution vertices they conflict with.  Applying
    such improvements until none exists yields Berman's d/2 guarantee on
    d-claw-free graphs when ``max_claw_size`` ≥ d−1; smaller values trade the
    constant for speed, which is the same trade-off the paper's ``t``
    parameter expresses.  Talon sets are enumerated locally around each
    outside vertex (see :func:`_talon_sets`), and the first improving one
    is applied.
    """
    if max_claw_size < 1:
        raise ValueError("max_claw_size must be at least 1")

    selected = greedy_wmis(graph)
    weights = [vertex.weight for vertex in graph.vertices]
    squared = [weight ** 2 for weight in weights]
    adjacency = [graph.neighbors(index) for index in range(len(graph))]

    def conflict_set(talons: Sequence[int]) -> Set[int]:
        # Talons are outside the solution, so only their neighbours leave it.
        removed: Set[int] = set()
        for talon in talons:
            removed |= adjacency[talon] & selected
        return removed

    for _ in range(max_iterations):
        improved = False
        outside = [index for index in range(len(graph)) if index not in selected]
        for anchor in outside:
            for talons in _talon_sets(
                graph, adjacency, anchor, outside, max_claw_size
            ):
                removed = conflict_set(talons)
                gain = sum(squared[talon] for talon in talons)
                loss = sum(squared[vertex] for vertex in removed)
                if gain > loss + 1e-12:
                    selected -= removed
                    selected |= set(talons)
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    # Make the solution maximal: add any non-conflicting leftover vertex.
    for index in sorted(range(len(graph)), key=lambda i: -weights[i]):
        if index in selected:
            continue
        if not (graph.neighbors(index) & selected):
            selected.add(index)
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
            "use squareimp_wmis for larger graphs"
        )
    weights = [vertex.weight for vertex in graph.vertices]
    order = sorted(range(n), key=lambda index: -weights[index])
    suffix_weight = [0.0] * (n + 1)
    for position in range(n - 1, -1, -1):
        suffix_weight[position] = suffix_weight[position + 1] + weights[order[position]]

    best_weight = 0.0
    best_selection: Set[int] = set()

    def branch(position: int, current: Set[int], current_weight: float, blocked: Set[int]) -> None:
        nonlocal best_weight, best_selection
        if current_weight > best_weight:
            best_weight = current_weight
            best_selection = set(current)
        if position == n:
            return
        if current_weight + suffix_weight[position] <= best_weight:
            return
        index = order[position]
        # Option 1: include the vertex when allowed.
        if index not in blocked:
            branch(
                position + 1,
                current | {index},
                current_weight + weights[index],
                blocked | graph.neighbors(index) | {index},
            )
        # Option 2: skip the vertex.
        branch(position + 1, current, current_weight, blocked)

    branch(0, set(), 0.0, set())
    return best_selection
