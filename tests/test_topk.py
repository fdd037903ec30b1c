"""Unit tests for the bound-ordered top-k core (`repro.core.topk`)."""

from __future__ import annotations

import random

import pytest

from repro.core.topk import bounded_top_k


def brute_force(items, scores, k, tie_key):
    scored = [
        (item, scores[item]) for item in items if scores[item] is not None
    ]
    scored.sort(key=lambda pair: (-pair[1], tie_key(pair[0])))
    return scored[:k]


def test_exact_against_brute_force_randomized():
    rng = random.Random(2024)
    for trial in range(200):
        count = rng.randint(0, 20)
        items = list(range(count))
        scores = {}
        bounds = []
        for item in items:
            score = round(rng.uniform(0.0, 1.0), 2)
            # Bounds must dominate scores; make many of them equal or tied
            # so the early stop's strictness is actually exercised.
            bound = min(1.0, score + rng.choice([0.0, 0.0, 0.1, 0.3]))
            scores[item] = score if rng.random() > 0.2 else None
            bounds.append(bound)
        k = rng.randint(1, 6)
        evaluated_items = []

        def evaluate(item):
            evaluated_items.append(item)
            return scores[item]

        top, evaluated = bounded_top_k(
            items, bounds, evaluate, k, tie_key=lambda item: item
        )
        assert top == brute_force(items, scores, k, lambda item: item)
        assert evaluated == len(evaluated_items) <= len(items)


def test_lazy_refinement_against_brute_force_randomized():
    """With a refine step (maxima >= matching >= score) the answer is the
    brute-force top-k, and the evaluated sequence is that of the eager
    queue keyed by the refined bounds: laziness only skips refinements."""
    rng = random.Random(2026)
    for trial in range(300):
        count = rng.randint(0, 25)
        items = list(range(count))
        floor = rng.choice([None, 0.3, 0.6])
        scores, matching, maxima = {}, {}, []
        for item in items:
            score = round(rng.uniform(0.0, 1.0), 2)
            refined = min(1.0, score + rng.choice([0.0, 0.0, 0.05, 0.2]))
            cheap = min(1.0, refined + rng.choice([0.0, 0.0, 0.1, 0.4]))
            eligible = rng.random() > 0.2 and (floor is None or score >= floor)
            scores[item] = score if eligible else None
            matching[item] = refined
            maxima.append(cheap)
        k = rng.randint(1, 6)

        def refine(item):
            value = matching[item]
            return value if floor is None or value >= floor else None

        lazy_calls, eager_calls, refined_calls = [], [], []

        def traced(calls, scorer):
            def evaluate(item):
                calls.append(item)
                return scorer(item)
            return evaluate

        def counted_refine(item):
            refined_calls.append(item)
            return refine(item)

        top, evaluated = bounded_top_k(
            items,
            maxima,
            traced(lazy_calls, scores.__getitem__),
            k,
            tie_key=lambda item: item,
            refine=counted_refine,
        )
        assert top == brute_force(items, scores, k, lambda item: item)
        assert evaluated == len(lazy_calls)
        # Every evaluated item was refined first, and at most once.
        assert set(lazy_calls) <= set(refined_calls)
        assert len(refined_calls) == len(set(refined_calls))
        if floor is None:
            eager_top, _ = bounded_top_k(
                items,
                [matching[item] for item in items],
                traced(eager_calls, scores.__getitem__),
                k,
                tie_key=lambda item: item,
            )
            assert eager_top == top
            assert lazy_calls == eager_calls


def test_early_stop_skips_dominated_candidates():
    items = ["a", "b", "c", "d"]
    bounds = [1.0, 0.9, 0.3, 0.2]
    scores = {"a": 0.95, "b": 0.85, "c": 0.3, "d": 0.2}
    calls = []

    def evaluate(item):
        calls.append(item)
        return scores[item]

    top, evaluated = bounded_top_k(items, bounds, evaluate, 2)
    assert [item for item, _ in top] == ["a", "b"]
    # c and d are bounded strictly below the 2nd-best score: never scored.
    assert calls == ["a", "b"]
    assert evaluated == 2


def test_ties_at_the_boundary_are_still_evaluated():
    # kth best == remaining bound: the remaining item may tie and win on
    # the tie key, so it must be evaluated (strict-inequality stop).
    items = [10, 3]
    bounds = [0.5, 0.5]
    top, evaluated = bounded_top_k(
        items, bounds, lambda item: 0.5, 1, tie_key=lambda item: item
    )
    assert evaluated == 2
    assert top == [(3, 0.5)]


def test_validation():
    with pytest.raises(ValueError, match="k"):
        bounded_top_k([], [], lambda item: None, 0)
    # A non-integer k never meets the early stop's `len(kept) == k`.
    for k in (float("nan"), float("inf"), 1.5, 2.5, 2.0, -1, True, "3"):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            bounded_top_k([1, 2, 3], [0.5, 0.4, 0.3], lambda item: 0.1, k)
    with pytest.raises(ValueError, match="aligned"):
        bounded_top_k([1], [], lambda item: None, 1)
    assert bounded_top_k([], [], lambda item: None, 3) == ([], 0)
