"""Tests for the unified similarity: exact, approximate, and the facade."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import UnifiedSimilarity
from repro.core.approximation import approximate_usim, approximate_usim_on_graph
from repro.core.graph import build_conflict_graph
from repro.core.exact import ExactBudgetExceeded, exact_usim
from repro.core.measures import MeasureConfig
from repro.core.aggregation import partition_similarity
from repro.core.segments import enumerate_partitions


class TestExactUsim:
    def test_paper_example3(self, figure1_config):
        # Example 3: best partition yields (1 + 0.8 + 2/3)/3 with 2-gram Jaccard.
        breakdown = exact_usim(
            ("coffee", "shop", "latte", "helsingki"),
            ("espresso", "cafe", "helsinki"),
            figure1_config,
        )
        assert breakdown.value == pytest.approx((1.0 + 0.8 + 2 / 3) / 3)
        assert len(breakdown.left_partition) == 3

    def test_exact_is_max_over_partitions(self, figure1_config):
        left = ("coffee", "shop", "latte")
        right = ("espresso", "cafe")
        best = exact_usim(left, right, figure1_config)
        for left_partition in enumerate_partitions(
            left, rules=figure1_config.rules, taxonomy=figure1_config.taxonomy
        ):
            for right_partition in enumerate_partitions(
                right, rules=figure1_config.rules, taxonomy=figure1_config.taxonomy
            ):
                value = partition_similarity(left_partition, right_partition, figure1_config).value
                assert value <= best.value + 1e-12

    def test_identical_single_tokens(self, figure1_config):
        assert exact_usim(("espresso",), ("espresso",), figure1_config).value == 1.0

    def test_empty_inputs(self, figure1_config):
        assert exact_usim((), ("a",), figure1_config).value == 0.0
        assert exact_usim(("a",), (), figure1_config).value == 0.0

    def test_budget_exceeded(self, figure1_config):
        with pytest.raises(ExactBudgetExceeded):
            exact_usim(
                ("coffee", "shop", "apple", "cake", "coffee", "shop"),
                ("cafe", "gateau"),
                figure1_config,
                partition_limit=1,
            )


class TestApproximateUsim:
    def test_never_exceeds_exact(self, figure1_config):
        pairs = [
            (("coffee", "shop", "latte", "helsingki"), ("espresso", "cafe", "helsinki")),
            (("cake",), ("apple", "cake")),
            (("apple", "cake", "bakery"), ("gateau", "bakery")),
            (("pizza", "new", "york"), ("pizza", "ny")),
        ]
        for left, right in pairs:
            exact = exact_usim(left, right, figure1_config)
            approx = approximate_usim(left, right, figure1_config)
            assert approx.value <= exact.value + 1e-9

    def test_good_accuracy_on_figure1(self, figure1_config):
        exact = exact_usim(
            ("coffee", "shop", "latte", "helsingki"), ("espresso", "cafe", "helsinki"),
            figure1_config,
        )
        approx = approximate_usim(
            ("coffee", "shop", "latte", "helsingki"), ("espresso", "cafe", "helsinki"),
            figure1_config,
        )
        assert approx.value >= 0.9 * exact.value

    def test_result_in_unit_interval(self, figure1_config):
        result = approximate_usim(("cake", "bakery"), ("gateau", "bakery"), figure1_config)
        assert 0.0 <= result.value <= 1.0

    def test_empty_input(self, figure1_config):
        assert approximate_usim((), ("a",), figure1_config).value == 0.0

    def test_invalid_t(self, figure1_config):
        with pytest.raises(ValueError):
            approximate_usim(("a",), ("a",), figure1_config, t=1.0)

    def test_greedy_seed_supported(self, figure1_config):
        result = approximate_usim(
            ("coffee", "shop", "latte"), ("espresso", "cafe"), figure1_config, seed="greedy"
        )
        assert result.value > 0.0

    def test_unknown_seed_rejected(self, figure1_config):
        with pytest.raises(ValueError):
            approximate_usim(("a",), ("a",), figure1_config, seed="magic")

    def test_unknown_seed_rejected_on_empty_input(self, figure1_config):
        """The seed is checked before the empty-input early returns."""
        with pytest.raises(ValueError, match="seed"):
            approximate_usim((), ("a",), figure1_config, seed="bogus")
        graph = build_conflict_graph(("xyz",), ("qqq",), figure1_config)
        assert len(graph) == 0
        with pytest.raises(ValueError, match="seed"):
            approximate_usim_on_graph(graph, seed="bogus")

    @settings(max_examples=25, deadline=None)
    @given(
        left=st.lists(st.sampled_from(["coffee", "shop", "latte", "cake", "apple", "bakery"]),
                      min_size=1, max_size=4),
        right=st.lists(st.sampled_from(["cafe", "espresso", "gateau", "cake", "bakery"]),
                       min_size=1, max_size=4),
    )
    def test_approx_bounded_by_exact_property(self, figure1_config, left, right):
        exact = exact_usim(tuple(left), tuple(right), figure1_config, partition_limit=3000)
        approx = approximate_usim(tuple(left), tuple(right), figure1_config)
        assert 0.0 <= approx.value <= exact.value + 1e-9


class TestUnifiedSimilarityFacade:
    @pytest.mark.parametrize("t", [1.0, 0.5, float("nan"), float("inf")])
    def test_invalid_t_rejected(self, t, figure1_config):
        """An invalid Algorithm-1 ``t`` used to construct (NaN failed only
        at the first non-empty approximation, and the exact method never
        checked it) and an empty side returned 0.0 without a check."""
        for method in ("approximate", "exact"):
            with pytest.raises(ValueError, match="t must be"):
                UnifiedSimilarity(method=method, t=t)
        with pytest.raises(ValueError, match="t must be"):
            approximate_usim((), ("a",), figure1_config, t=t)

    def test_similarity_and_explain_agree(self, figure1_rules, figure1_taxonomy):
        usim = UnifiedSimilarity(rules=figure1_rules, taxonomy=figure1_taxonomy)
        left, right = "coffee shop latte Helsingki", "espresso cafe Helsinki"
        assert usim.similarity(left, right) == pytest.approx(usim.explain(left, right).value)

    def test_exact_method(self, figure1_rules, figure1_taxonomy):
        usim = UnifiedSimilarity(rules=figure1_rules, taxonomy=figure1_taxonomy, method="exact")
        value = usim.similarity("coffee shop latte Helsingki", "espresso cafe Helsinki")
        assert value == pytest.approx((1.0 + 0.8 + 2 / 3) / 3)

    def test_with_measures_restriction(self, figure1_rules, figure1_taxonomy):
        usim = UnifiedSimilarity(rules=figure1_rules, taxonomy=figure1_taxonomy)
        jaccard_only = usim.with_measures("J")
        assert jaccard_only.similarity("latte", "espresso") < 0.5
        assert usim.with_measures("T").similarity("latte", "espresso") == pytest.approx(0.8)

    def test_is_similar_predicate(self, figure1_rules, figure1_taxonomy):
        usim = UnifiedSimilarity(rules=figure1_rules, taxonomy=figure1_taxonomy)
        assert usim.is_similar("coffee shop", "cafe", 0.9)
        assert not usim.is_similar("coffee shop", "qqqq", 0.5)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            UnifiedSimilarity(method="magic")

    def test_no_knowledge_sources_still_works(self):
        usim = UnifiedSimilarity()
        assert usim.similarity("hello world", "hello world") == 1.0
        assert usim.similarity("hello", "xyz") < 0.3

    def test_breakdown_matches_are_consistent(self, figure1_rules, figure1_taxonomy):
        usim = UnifiedSimilarity(rules=figure1_rules, taxonomy=figure1_taxonomy)
        breakdown = usim.explain("coffee shop latte Helsingki", "espresso cafe Helsinki")
        total = sum(match.similarity for match in breakdown.matches)
        denominator = max(len(breakdown.left_partition), len(breakdown.right_partition))
        assert breakdown.value == pytest.approx(total / denominator)
