"""Tests for maximum-weight bipartite matching (the Hungarian solver)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import maximum_weight_matching


def brute_force_matching(weights):
    """Exhaustive optimum for small matrices (reference implementation)."""
    rows = len(weights)
    cols = len(weights[0]) if rows else 0
    best = 0.0
    smaller, larger = (rows, cols) if rows <= cols else (cols, rows)
    for assignment in itertools.permutations(range(larger), smaller):
        total = 0.0
        for small_index, large_index in enumerate(assignment):
            if rows <= cols:
                total += weights[small_index][large_index]
            else:
                total += weights[large_index][small_index]
        best = max(best, total)
    return best


WEIGHT_MATRICES = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
)


class TestMaximumWeightMatching:
    def test_simple_square(self):
        weights = [[1.0, 0.0], [0.0, 1.0]]
        total, pairs = maximum_weight_matching(weights)
        assert total == pytest.approx(2.0)
        assert set(pairs) == {(0, 0), (1, 1)}

    def test_prefers_heavier_diagonal(self):
        weights = [[0.9, 0.5], [0.5, 0.9]]
        total, _ = maximum_weight_matching(weights)
        assert total == pytest.approx(1.8)

    def test_anti_diagonal_is_better(self):
        weights = [[0.1, 0.9], [0.9, 0.1]]
        total, pairs = maximum_weight_matching(weights)
        assert total == pytest.approx(1.8)
        assert set(pairs) == {(0, 1), (1, 0)}

    def test_rectangular_matrix(self):
        weights = [[0.5, 0.9, 0.1]]
        total, pairs = maximum_weight_matching(weights)
        assert total == pytest.approx(0.9)
        assert pairs == [(0, 1)]

    def test_zero_weights_excluded_from_pairs(self):
        weights = [[0.0, 0.0], [0.0, 0.7]]
        total, pairs = maximum_weight_matching(weights)
        assert total == pytest.approx(0.7)
        assert pairs == [(1, 1)]

    def test_empty_matrix(self):
        assert maximum_weight_matching([]) == (0.0, [])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            maximum_weight_matching([[-0.5]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            maximum_weight_matching([[0.1, 0.2], [0.3]])

    def test_example3_aggregation(self):
        # Example 3: segment similarities 1, 0.8, 2/3 all matched.
        weights = [
            [1.0, 0.0, 0.0],
            [0.0, 0.8, 0.0],
            [0.0, 0.0, 2 / 3],
        ]
        total, _ = maximum_weight_matching(weights)
        assert total == pytest.approx(1.0 + 0.8 + 2 / 3)

    @settings(max_examples=60, deadline=None)
    @given(WEIGHT_MATRICES)
    def test_matches_brute_force(self, weights):
        total, pairs = maximum_weight_matching(weights)
        assert total == pytest.approx(brute_force_matching(weights), abs=1e-9)
        # Pairs form a valid matching.
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(rows) == len(set(rows))
        assert len(cols) == len(set(cols))

    @settings(max_examples=60, deadline=None)
    @given(WEIGHT_MATRICES)
    def test_total_equals_sum_of_selected(self, weights):
        total, pairs = maximum_weight_matching(weights)
        assert total == pytest.approx(sum(weights[i][j] for i, j in pairs))
