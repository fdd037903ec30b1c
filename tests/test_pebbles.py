"""Tests for pebble generation, the global order, and the partition bound."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.measures import Measure, MeasureConfig
from repro.core.segments import min_partition_size
from repro.join.global_order import GlobalOrder
from repro.join.pebbles import generate_pebbles, segments_for_pebbles


class TestPebbleGeneration:
    def test_table2_coffee_pebbles(self, figure1_config):
        # Table 2: segment "coffee" has 5 Jaccard 2-gram pebbles of weight 1/5
        # and 3 taxonomy ancestor pebbles (Wikipedia, food, coffee) of weight 1/3.
        segments, pebbles = generate_pebbles(("coffee",), figure1_config)
        assert len(segments) == 1
        jaccard = [p for p in pebbles if p.measure is Measure.JACCARD]
        taxonomy = [p for p in pebbles if p.measure is Measure.TAXONOMY]
        synonym = [p for p in pebbles if p.measure is Measure.SYNONYM]
        assert {p.text for p in jaccard} == {"co", "of", "ff", "fe", "ee"}
        assert all(p.weight == pytest.approx(1 / 5) for p in jaccard)
        assert {p.text for p in taxonomy} == {"wikipedia", "food", "coffee"}
        assert all(p.weight == pytest.approx(1 / 3) for p in taxonomy)
        assert synonym == []

    def test_table2_cafe_pebbles(self, figure1_config):
        # Table 2: "cafe" has 3 Jaccard pebbles of weight 1/3 and the synonym
        # pebble "coffee shop" of weight 1.
        _, pebbles = generate_pebbles(("cafe",), figure1_config)
        jaccard = [p for p in pebbles if p.measure is Measure.JACCARD]
        synonym = [p for p in pebbles if p.measure is Measure.SYNONYM]
        assert {p.text for p in jaccard} == {"ca", "af", "fe"}
        assert all(p.weight == pytest.approx(1 / 3) for p in jaccard)
        assert [(p.text, p.weight) for p in synonym] == [("coffee shop", 1.0)]

    def test_example6_pebble_count(self, figure1_config):
        # Example 6: string T = "espresso cafe Helsinki" generates 23 pebbles.
        _, pebbles = generate_pebbles(("espresso", "cafe", "helsinki"), figure1_config)
        assert len(pebbles) == 23

    def test_keys_are_namespaced_by_measure(self, figure1_config):
        _, pebbles = generate_pebbles(("coffee",), figure1_config)
        measures_per_text = {}
        for pebble in pebbles:
            assert pebble.key[0] in {"J", "S", "T"}
            measures_per_text.setdefault(pebble.text, set()).add(pebble.key[0])
        # "coffee" appears both as taxonomy node and could collide with grams otherwise.
        assert measures_per_text["coffee"] == {"T"}

    def test_disabled_measures_generate_no_pebbles(self, figure1_rules, figure1_taxonomy):
        config = MeasureConfig.from_codes("J", rules=figure1_rules, taxonomy=figure1_taxonomy)
        _, pebbles = generate_pebbles(("coffee", "shop"), config)
        assert all(p.measure is Measure.JACCARD for p in pebbles)

    def test_segment_indices_are_valid(self, figure1_config):
        segments, pebbles = generate_pebbles(
            ("coffee", "shop", "latte", "helsingki"), figure1_config
        )
        for pebble in pebbles:
            assert 0 <= pebble.segment_index < len(segments)


class TestGlobalOrder:
    def test_frequency_order_puts_rare_first(self, figure1_config):
        _, common = generate_pebbles(("coffee",), figure1_config)
        _, rare = generate_pebbles(("zebra",), figure1_config)
        # "coffee" pebbles counted twice, "zebra" pebbles once.
        order = GlobalOrder(pebble_lists=(common, common, rare))
        mixed = list(common) + list(rare)
        ordered = order.sort_pebbles(mixed)
        frequencies = [order.frequency(p.key) for p in ordered]
        assert frequencies == sorted(frequencies)

    def test_weight_order(self, figure1_config):
        order = GlobalOrder("weight")
        _, pebbles = generate_pebbles(("cafe",), figure1_config)
        ordered = order.sort_pebbles(pebbles)
        weights = [p.weight for p in ordered]
        assert weights == sorted(weights, reverse=True)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            GlobalOrder("alphabetical")

    def test_unseen_keys_sort_first(self, figure1_config):
        _, seen = generate_pebbles(("coffee",), figure1_config)
        order = GlobalOrder(pebble_lists=[seen])
        _, unseen = generate_pebbles(("zebra",), figure1_config)
        ordered = order.sort_pebbles(list(seen) + list(unseen))
        assert order.frequency(ordered[0].key) == 0

    def test_orders_are_values(self, figure1_config):
        _, coffee = generate_pebbles(("coffee",), figure1_config)
        _, zebra = generate_pebbles(("zebra",), figure1_config)
        order = GlobalOrder(pebble_lists=[coffee, zebra])
        twin = GlobalOrder(pebble_lists=[zebra, coffee])
        assert twin is not order and twin == order and hash(twin) == hash(order)
        assert GlobalOrder("weight", [coffee, zebra]) != order
        assert GlobalOrder(pebble_lists=[coffee, coffee, zebra]) != order
        clone = pickle.loads(pickle.dumps(order))
        assert clone == order and hash(clone) == hash(order)


def _min_partition_size(tokens, config):
    return min_partition_size(len(tokens), segments_for_pebbles(tokens, config))


class TestPartitionBound:
    def test_example6_min_partition_size(self, figure1_config):
        # Example 6: GetMinPartitionSize of "espresso cafe Helsinki" returns 3.
        assert _min_partition_size(("espresso", "cafe", "helsinki"), figure1_config) == 3

    def test_empty_tokens(self, figure1_config):
        assert _min_partition_size((), figure1_config) == 0

    def test_single_token(self, figure1_config):
        assert _min_partition_size(("espresso",), figure1_config) == 1

    @settings(max_examples=30, deadline=None)
    @given(tokens=st.lists(st.sampled_from(["coffee", "shop", "latte", "cake", "apple", "x"]),
                           min_size=1, max_size=6))
    def test_bound_is_positive_and_at_most_token_count(self, figure1_config, tokens):
        bound = _min_partition_size(tuple(tokens), figure1_config)
        assert 1 <= bound <= len(tokens)
