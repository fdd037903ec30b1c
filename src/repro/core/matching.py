"""Maximum-weight bipartite matching (the numerator of Equation 6).

The unified similarity pairs segments of ``S`` with segments of ``T``, each
used at most once, maximising the summed similarities: a maximum-weight
bipartite matching.  :func:`maximum_weight_matching` solves it with the
O(n^3) Kuhn–Munkres (Hungarian) algorithm the paper cites, for ``GetSim``
(:mod:`repro.core.aggregation`) and the K-Join baseline; the verification
cascade bounds matchings without it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["maximum_weight_matching"]

_EPSILON = 1e-12


def _validate_non_negative(weights: Sequence[Sequence[float]]) -> None:
    for row in weights:
        for value in row:
            if value < -_EPSILON:
                raise ValueError("similarity weights must be non-negative")


def _pad_to_square(weights: Sequence[Sequence[float]]) -> Tuple[List[List[float]], int, int]:
    """Return a square copy of ``weights`` padded with zeros."""
    rows = len(weights)
    cols = len(weights[0]) if rows else 0
    size = max(rows, cols)
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(rows):
        row = weights[i]
        if len(row) != cols:
            raise ValueError("weight matrix rows must all have the same length")
        for j in range(cols):
            matrix[i][j] = float(row[j])
    return matrix, rows, cols


def _hungarian_min_cost(cost: List[List[float]]) -> List[int]:
    """Solve the square min-cost assignment; return the matched column per row.

    Classic O(n^3) potentials-based formulation (1-based internal indexing).
    """
    size = len(cost)
    INF = float("inf")
    u = [0.0] * (size + 1)
    v = [0.0] * (size + 1)
    assignment = [0] * (size + 1)

    for i in range(1, size + 1):
        assignment[0] = i
        j0 = 0
        minv = [INF] * (size + 1)
        way = [0] * (size + 1)
        used = [False] * (size + 1)
        while True:
            used[j0] = True
            i0 = assignment[j0]
            delta = INF
            j1 = 0
            for j in range(1, size + 1):
                if used[j]:
                    continue
                current = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(size + 1):
                if used[j]:
                    u[assignment[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if assignment[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            assignment[j0] = assignment[j1]
            j0 = j1

    row_to_col = [0] * size
    for j in range(1, size + 1):
        if assignment[j] != 0:
            row_to_col[assignment[j] - 1] = j - 1
    return row_to_col


def maximum_weight_matching(
    weights: Sequence[Sequence[float]],
) -> Tuple[float, List[Tuple[int, int]]]:
    """Maximum-weight bipartite matching on a non-negative weight matrix.

    This is the solver used by the unified similarity (Equation 6).  It pads
    the matrix to a square, converts to min-cost form, runs the Hungarian
    algorithm, and reports only assignments with strictly positive weight.

    Returns ``(total_weight, pairs)`` where ``pairs`` lists the selected
    ``(row, col)`` assignments.
    """
    if not weights or not weights[0]:
        return 0.0, []
    _validate_non_negative(weights)

    matrix, original_rows, original_cols = _pad_to_square(weights)
    size = len(matrix)
    max_value = max(max(row) for row in matrix)
    cost = [[max_value - matrix[i][j] for j in range(size)] for i in range(size)]
    row_to_col = _hungarian_min_cost(cost)

    total = 0.0
    pairs: List[Tuple[int, int]] = []
    for i in range(original_rows):
        j = row_to_col[i]
        if j < original_cols and matrix[i][j] > _EPSILON:
            total += matrix[i][j]
            pairs.append((i, j))
    return total, pairs
