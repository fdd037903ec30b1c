"""Maximum-weight bipartite matching (the numerator of Equation 6).

The unified similarity aggregates per-segment similarities by selecting a
set of segment pairs such that every segment is used at most once and the
sum of the selected similarities is maximal — a maximum-weight matching in a
bipartite graph whose left vertices are the segments of ``S`` and right
vertices are the segments of ``T``.

Two solvers are provided:

* :func:`maximum_weight_matching` — an O(n^3) implementation of the
  Kuhn–Munkres (Hungarian) algorithm on a dense weight matrix, the solver
  the paper cites.  :func:`hungarian_matching` is an alias.
* :func:`greedy_matching` — a simple weight-descending greedy used as a fast
  fallback and as a cross-check in property tests.

Both return the total weight together with the selected ``(row, col)`` pairs.
Zero-weight assignments are dropped from the returned pair list because a
pair with similarity 0 contributes nothing to Equation 6.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

__all__ = [
    "hungarian_matching",
    "greedy_matching",
    "maximum_weight_matching",
    "matching_weight_lower_bound",
    "matching_weight_upper_bound",
]

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


#: Alias kept for readers following the paper's terminology.
hungarian_matching = maximum_weight_matching


def matching_weight_upper_bound(
    weights: Sequence[Sequence[float]],
    *,
    exact_limit: int = 16,
) -> float:
    """A cheap upper bound on the maximum-weight matching of ``weights``.

    Used by the verification pruning cascade: when the matrix is small the
    exact Hungarian solver is run (the tightest possible bound); larger
    matrices fall back to the minimum of three sound bounds —

    * the sum of per-row maxima (each row is matched at most once),
    * the sum of per-column maxima (symmetrically), and
    * twice the greedy matching weight (greedy is a 1/2-approximation, so
      ``2 · greedy ≥ optimum``).

    Every returned value is ≥ the true maximum matching weight, which is what
    makes threshold pruning against it lossless.
    """
    if not weights or not weights[0]:
        return 0.0
    rows = len(weights)
    cols = len(weights[0])
    if max(rows, cols) <= exact_limit:
        total, _ = maximum_weight_matching(weights)
        return total
    row_max_sum = sum(max(row) for row in weights)
    col_max_sum = sum(
        max(weights[i][j] for i in range(rows)) for j in range(cols)
    )
    greedy_total, _ = greedy_matching(weights)
    return min(row_max_sum, col_max_sum, 2.0 * greedy_total)


def matching_weight_lower_bound(
    weights: Sequence[Sequence[float]],
    *,
    exact_limit: int = 8,
) -> float:
    """A sound lower bound on the maximum-weight matching of ``weights``.

    The dual of :func:`matching_weight_upper_bound`, used by the
    verification cascade's lower-bound tier: any feasible matching weight
    is ≤ the optimum, so clearing a threshold with it is lossless.  Small
    matrices (every dimension ≤ ``exact_limit``) get the exact Hungarian
    optimum — the tightest possible lower bound, so strictly more pairs
    skip the matching-bound stage than under greedy, at O(n³) on at most
    ``exact_limit``² weights; larger matrices keep the weight-descending
    greedy (≥ 1/2 of the optimum).
    """
    if not weights or not weights[0]:
        return 0.0
    if max(len(weights), len(weights[0])) <= exact_limit:
        total, _ = maximum_weight_matching(weights)
        return total
    total, _ = greedy_matching(weights)
    return total


def greedy_matching(
    weights: Sequence[Sequence[float]],
) -> Tuple[float, List[Tuple[int, int]]]:
    """Greedy weight-descending matching (at least 1/2 of the optimum).

    Used as a fast fallback and as a lower-bound cross-check in tests; the
    exact solver is :func:`maximum_weight_matching`.
    """
    if not weights or not weights[0]:
        return 0.0, []
    _validate_non_negative(weights)
    entries: List[Tuple[float, int, int]] = []
    for i, row in enumerate(weights):
        for j, value in enumerate(row):
            if value > _EPSILON:
                entries.append((float(value), i, j))
    entries.sort(key=lambda item: -item[0])
    used_rows: Set[int] = set()
    used_cols: Set[int] = set()
    total = 0.0
    pairs: List[Tuple[int, int]] = []
    for value, i, j in entries:
        if i in used_rows or j in used_cols:
            continue
        used_rows.add(i)
        used_cols.add(j)
        total += value
        pairs.append((i, j))
    return total, pairs
