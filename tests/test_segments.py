"""Tests for well-defined segments and partitions (Definitions 1–2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.segments import (
    UNREACHABLE,
    Segment,
    count_partitions,
    enumerate_partitions,
    enumerate_segments,
    min_partition_size,
    partition_sums,
    singleton_partition,
)
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.core.tokenizer import TokenSpan
from repro.synonyms.rules import SynonymRuleSet


class TestEnumerateSegments:
    def test_single_tokens_always_qualify(self):
        segments = enumerate_segments(("a", "b", "c"))
        spans = {(s.span.start, s.span.end) for s in segments}
        assert spans == {(0, 1), (1, 2), (2, 3)}

    def test_synonym_segment_detected(self, figure1_rules):
        segments = enumerate_segments(("coffee", "shop", "latte"), rules=figure1_rules)
        multi = [s for s in segments if len(s) > 1]
        assert len(multi) == 1
        assert multi[0].tokens == ("coffee", "shop")
        assert multi[0].from_synonym

    def test_taxonomy_segment_detected(self, figure1_taxonomy):
        segments = enumerate_segments(("apple", "cake", "bakery"), taxonomy=figure1_taxonomy)
        multi = [s for s in segments if len(s) > 1]
        assert any(s.tokens == ("apple", "cake") and s.from_taxonomy for s in multi)

    def test_paper_example_not_well_defined(self, figure1_rules, figure1_taxonomy):
        # "shop latte" is explicitly not a well-defined segment in the paper.
        segments = enumerate_segments(
            ("coffee", "shop", "latte", "helsingki"),
            rules=figure1_rules, taxonomy=figure1_taxonomy,
        )
        assert not any(s.tokens == ("shop", "latte") for s in segments)

    def test_empty_tokens(self):
        assert enumerate_segments(()) == []

    def test_segment_conflict(self):
        a = Segment(TokenSpan(0, 2), ("x", "y"))
        b = Segment(TokenSpan(1, 3), ("y", "z"))
        c = Segment(TokenSpan(2, 3), ("z",))
        assert a.span.overlaps(b.span)
        assert not a.span.overlaps(c.span)


class TestEnumeratePartitions:
    def test_paper_example3_partitions(self, figure1_rules, figure1_taxonomy):
        # String S of Figure 1 has exactly two well-defined partitions.
        tokens = ("coffee", "shop", "latte", "helsingki")
        partitions = list(
            enumerate_partitions(tokens, rules=figure1_rules, taxonomy=figure1_taxonomy)
        )
        assert len(partitions) == 2
        sizes = sorted(len(p) for p in partitions)
        assert sizes == [3, 4]

    def test_every_partition_covers_all_tokens_once(self, figure1_rules, figure1_taxonomy):
        tokens = ("apple", "cake", "coffee", "shop")
        for partition in enumerate_partitions(
            tokens, rules=figure1_rules, taxonomy=figure1_taxonomy
        ):
            covered = sorted(pos for seg in partition for pos in seg.span.positions())
            assert covered == list(range(len(tokens)))

    def test_limit_enforced(self, figure1_rules, figure1_taxonomy):
        tokens = ("coffee", "shop", "latte", "helsingki")
        with pytest.raises(RuntimeError):
            list(enumerate_partitions(tokens, rules=figure1_rules,
                                      taxonomy=figure1_taxonomy, limit=1))

    def test_empty_tokens_single_empty_partition(self):
        assert list(enumerate_partitions(())) == [()]

    def test_count_matches_enumeration(self, figure1_rules, figure1_taxonomy):
        tokens = ("coffee", "shop", "apple", "cake")
        count = count_partitions(tokens, rules=figure1_rules, taxonomy=figure1_taxonomy)
        enumerated = len(list(
            enumerate_partitions(tokens, rules=figure1_rules, taxonomy=figure1_taxonomy)
        ))
        assert count == enumerated

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6))
    def test_count_partitions_with_rules_property(self, tokens):
        rules = SynonymRuleSet.from_pairs([("a b", "x"), ("c d", "y")])
        count = count_partitions(tokens, rules=rules)
        enumerated = len(list(enumerate_partitions(tokens, rules=rules)))
        assert count == enumerated
        assert count >= 1

    def test_singleton_partition(self):
        partition = singleton_partition(("a", "b"))
        assert [seg.tokens for seg in partition] == [("a",), ("b",)]


class TestCachedEnumerationAgreement:
    def test_prepared_segments_match_fresh_enumeration(
        self, figure1_config, poi_collections
    ):
        """Cached (prepared/graph-side) and uncached enumeration agree."""
        from repro.core.graph import GraphSide
        from repro.join import PebbleJoin

        left, right = poi_collections
        prepared = PebbleJoin(figure1_config, 0.8).prepare(left)
        for record in left:
            fresh = enumerate_segments(
                record.tokens,
                rules=figure1_config.rules,
                taxonomy=figure1_config.taxonomy,
            )
            assert list(prepared.prepared_records[record.record_id].segments) == fresh
            side = prepared.graph_side(record.record_id)
            assert list(side.segments) == fresh
            ad_hoc = GraphSide(record.tokens, figure1_config)
            assert list(ad_hoc.segments) == fresh

    def test_singleton_flags_survive_rule_matches(self, figure1_rules):
        """A single token matching a rule side keeps its measure flags.

        Guards the simplified singleton ``setdefault`` in
        ``enumerate_segments``: condition (iii) must never overwrite the
        synonym/taxonomy flags recorded for a single-token span.
        """
        segments = enumerate_segments(("ny", "pizza"), rules=figure1_rules)
        ny = [s for s in segments if s.tokens == ("ny",)]
        assert len(ny) == 1 and ny[0].from_synonym
        pizza = [s for s in segments if s.tokens == ("pizza",)]
        assert len(pizza) == 1 and not pizza[0].from_synonym


class TestPartitionSums:
    """The interval DP against the partitions it summarises, bit for bit."""

    def test_equal_the_best_sum_over_enumerated_partitions(self):
        dataset = generate_dataset(TINY_PROFILE, count=60, seed=11)
        rng = random.Random(11)
        multi = 0
        for record in dataset.records:
            segments = enumerate_segments(
                record.tokens, rules=dataset.rules, taxonomy=dataset.taxonomy
            )
            multi += any(len(segment) > 1 for segment in segments)
            weights = [rng.choice([0.0, 0.25, rng.random(), 1.0]) for _ in segments]
            position = {segment: index for index, segment in enumerate(segments)}
            expected = [UNREACHABLE] * (len(record.tokens) + 1)
            for partition in enumerate_partitions(record.tokens, segments):
                total = 0.0  # left to right, as the DP adds
                for segment in partition:
                    total += weights[position[segment]]
                expected[len(partition)] = max(expected[len(partition)], total)
            assert partition_sums(len(record.tokens), segments, weights) == expected
            # The weight-free case: every reachable count sums to 0.0, and
            # MP(S) is the smallest of them.
            reachable = [count for count, total in enumerate(expected) if total != UNREACHABLE]
            assert partition_sums(len(record.tokens), segments) == [
                0.0 if count in reachable else UNREACHABLE
                for count in range(len(record.tokens) + 1)
            ]
            assert min_partition_size(len(record.tokens), segments) == reachable[0]
            # No entry exceeds the sum of all the weights, added in order.
            full = 0.0
            for weight in weights:
                full += weight
            assert max(expected) <= full
        assert multi > 10

    def test_positions_without_a_segment_count_as_weightless_singletons(self):
        segments = [Segment(TokenSpan(0, 2), ("a", "b"))]
        assert partition_sums(3, segments, [0.5]) == [UNREACHABLE, UNREACHABLE, 0.5, UNREACHABLE]
        assert min_partition_size(3, segments) == 2
        assert partition_sums(0, []) == [0.0]
        assert min_partition_size(0, []) == 0
