"""Tests for individual measures, msim, and MeasureConfig."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.measures import Measure, MeasureConfig


class TestMeasureCodes:
    def test_from_code(self):
        assert Measure.from_code("J") is Measure.JACCARD
        assert Measure.from_code("s") is Measure.SYNONYM
        assert Measure.from_code("T") is Measure.TAXONOMY

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            Measure.from_code("X")

    def test_short_codes_roundtrip(self):
        for measure in Measure:
            assert Measure.from_code(measure.short_code) is measure


class TestMeasureConfig:
    def test_default_enables_all(self, figure1_config):
        assert figure1_config.uses(Measure.JACCARD)
        assert figure1_config.uses(Measure.SYNONYM)
        assert figure1_config.uses(Measure.TAXONOMY)
        assert figure1_config.codes == "JST"

    def test_from_codes_subsets(self, figure1_rules, figure1_taxonomy):
        config = MeasureConfig.from_codes("TJ", rules=figure1_rules, taxonomy=figure1_taxonomy)
        assert config.uses(Measure.TAXONOMY)
        assert config.uses(Measure.JACCARD)
        assert not config.uses(Measure.SYNONYM)

    def test_with_measures_copy(self, figure1_config):
        restricted = figure1_config.with_measures("J")
        assert restricted.enabled == frozenset({Measure.JACCARD})
        assert figure1_config.enabled != restricted.enabled

    def test_empty_measures_rejected(self):
        with pytest.raises(ValueError):
            MeasureConfig(enabled=frozenset())

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            MeasureConfig(q=0)

    @pytest.mark.parametrize("q", [2.5, float("nan"), 3.0, True])
    def test_non_integer_q_rejected(self, q):
        """q slices text into grams: a float (fractional, NaN or integral)
        or a bool used to construct and then fail in the first similarity
        call; q=True also equalled q=1 but fingerprinted differently."""
        from repro.core.unified import UnifiedSimilarity
        from repro.join import UnifiedJoin

        with pytest.raises(ValueError, match="q must be a positive integer"):
            MeasureConfig(q=q)
        with pytest.raises(ValueError, match="q must be a positive integer"):
            UnifiedSimilarity(q=q)
        with pytest.raises(ValueError, match="q must be a positive integer"):
            UnifiedJoin(q=q)

    def test_max_rule_tokens(self, figure1_config):
        # "coffee shop" (rule) and "coffee drinks"/"apple cake" (taxonomy) are 2 tokens.
        assert figure1_config.max_rule_tokens == 2


class TestIndividualMeasures:
    def test_jaccard_segments(self, figure1_config):
        value = figure1_config.jaccard(("helsingki",), ("helsinki",))
        assert value == pytest.approx(2 / 3)

    def test_synonym_similarity(self, figure1_config):
        assert figure1_config.synonym(("coffee", "shop"), ("cafe",)) == 1.0
        assert figure1_config.synonym(("coffee",), ("cafe",)) == 0.0

    def test_taxonomy_similarity(self, figure1_config):
        assert figure1_config.taxonomy_similarity(("latte",), ("espresso",)) == pytest.approx(0.8)

    def test_disabled_measure_returns_zero(self, figure1_rules, figure1_taxonomy):
        config = MeasureConfig.from_codes("J", rules=figure1_rules, taxonomy=figure1_taxonomy)
        assert config.synonym(("coffee", "shop"), ("cafe",)) == 1.0  # raw helper still works
        # but msim ignores it:
        value = config.msim(("coffee", "shop"), ("cafe",))
        assert value == config.jaccard(("coffee", "shop"), ("cafe",)) < 1.0

    def test_missing_knowledge_sources(self):
        config = MeasureConfig()  # no rules, no taxonomy
        assert config.synonym(("a",), ("b",)) == 0.0
        assert config.taxonomy_similarity(("a",), ("b",)) == 0.0
        assert config.msim(("ab",), ("ab",)) == 1.0


class TestMsim:
    def test_msim_picks_maximum(self, figure1_config):
        # Paper: msim(cake, apple cake) = max(Jaccard 0.33, taxonomy 0.75) = 0.75.
        left, right = ("cake",), ("apple", "cake")
        value = figure1_config.msim(left, right)
        assert value == pytest.approx(0.75)
        assert value == figure1_config.taxonomy_similarity(left, right)

    def test_msim_synonym_beats_jaccard(self, figure1_config):
        left, right = ("coffee", "shop"), ("cafe",)
        value = figure1_config.msim(left, right)
        assert value == 1.0 == figure1_config.synonym(left, right)
        assert figure1_config.jaccard(left, right) < value

    def test_msim_zero_for_unrelated(self, figure1_config):
        assert figure1_config.msim(("xyz",), ("qqq",)) == 0.0

    def test_msim_repeats_its_value(self, figure1_config):
        first = figure1_config.msim(("latte",), ("espresso",))
        second = figure1_config.msim(("latte",), ("espresso",))
        assert first == second == pytest.approx(0.8)

    def test_rule_added_after_first_use_is_seen(self):
        """msim and exact USIM reflect a rule added after the config's
        first use, as a fresh (and equal) config does."""
        from repro.core.exact import exact_usim
        from repro.synonyms.rules import SynonymRuleSet

        rules = SynonymRuleSet()
        config = MeasureConfig.from_codes("S", rules=rules)
        left, right = ("big", "apple"), ("new", "york")
        assert config.msim(left, right) == 0.0
        assert exact_usim(left, right, config).value == 0.0
        rules.add_text_rule("big apple", "new york", 0.9)
        fresh = MeasureConfig.from_codes("S", rules=rules)
        assert config == fresh
        assert fresh.msim(left, right) == 0.9
        assert config.msim(left, right) == 0.9
        assert exact_usim(left, right, config).value == exact_usim(left, right, fresh).value == 0.9

    @settings(max_examples=40, deadline=None)
    @given(
        left=st.lists(st.sampled_from(["coffee", "shop", "latte", "cake", "apple"]), min_size=1, max_size=3),
        right=st.lists(st.sampled_from(["cafe", "espresso", "cake", "gateau", "apple"]), min_size=1, max_size=3),
    )
    def test_msim_range_and_symmetry_guard(self, figure1_config, left, right):
        value = figure1_config.msim(tuple(left), tuple(right))
        assert 0.0 <= value <= 1.0
        # msim dominates every individual enabled measure.
        assert value >= figure1_config.jaccard(left, right) - 1e-12
        assert value >= figure1_config.synonym(left, right) - 1e-12
        assert value >= figure1_config.taxonomy_similarity(left, right) - 1e-12
