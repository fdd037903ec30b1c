"""Tests for conflict-graph construction and w-MIS solvers."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import ConflictGraph, PairVertex, build_conflict_graph
from repro.core.measures import MeasureConfig
from repro.core.mis import exact_wmis, greedy_wmis, is_maximal_independent_set, squareimp_wmis
from repro.core.segments import Segment
from repro.core.tokenizer import TokenSpan
from repro.datasets import MED_PROFILE, TINY_PROFILE, generate_dataset, generate_ground_truth
from repro.synonyms.rules import SynonymRuleSet


@pytest.fixture
def example5_graph():
    """The graph of the paper's Example 4/5 (Figure 2), built from its rules.

    S = {a, b, c, d, e}, T = {f, g, h} with six synonym rules; rule R6 is not
    applicable, so the graph has 5 vertices.
    """
    rules = SynonymRuleSet()
    rules.add_text_rule("b c d", "f", 0.3)
    rules.add_text_rule("b c", "f g", 0.13)
    rules.add_text_rule("c d", "f g", 0.27)
    rules.add_text_rule("a", "g", 0.09)
    rules.add_text_rule("d", "h", 0.22)
    rules.add_text_rule("z e f", "g", 0.5)
    config = MeasureConfig.from_codes("S", rules=rules)
    graph = build_conflict_graph(tuple("abcde"), tuple("fgh"), config)
    return graph, config


class TestConflictGraph:
    def test_example5_vertex_count(self, example5_graph):
        graph, _ = example5_graph
        # R1–R5 are applicable, R6 is not.
        assert len(graph) == 5

    def test_conflicting_rules_are_adjacent(self, example5_graph):
        graph, _ = example5_graph
        by_weight = {round(v.weight, 2): v.index for v in graph.vertices}
        r3 = by_weight[0.27]  # {c d} -> {f g}
        r5 = by_weight[0.22]  # {d} -> {h}
        assert graph.are_adjacent(r3, r5)  # share token "d" on the S side

    def test_non_conflicting_rules_not_adjacent(self, example5_graph):
        graph, _ = example5_graph
        by_weight = {round(v.weight, 2): v.index for v in graph.vertices}
        r1 = by_weight[0.3]   # {b c d} -> {f}
        r4 = by_weight[0.09]  # {a} -> {g}
        assert not graph.are_adjacent(r1, r4)

    def test_zero_weight_pairs_dropped(self, figure1_config):
        graph = build_conflict_graph(("xyz",), ("qqq",), figure1_config)
        assert len(graph) == 0

    def test_figure1_graph_has_key_vertices(self, figure1_config):
        graph = build_conflict_graph(
            ("coffee", "shop", "latte", "helsingki"),
            ("espresso", "cafe", "helsinki"),
            figure1_config,
        )
        descriptions = {
            (vertex.left.tokens, vertex.right.tokens): vertex.weight for vertex in graph.vertices
        }
        assert descriptions[(("coffee", "shop"), ("cafe",))] == pytest.approx(1.0)
        assert descriptions[(("latte",), ("espresso",))] == pytest.approx(0.8)
        assert descriptions[(("helsingki",), ("helsinki",))] == pytest.approx(2 / 3)

    def test_is_independent(self, example5_graph):
        graph, _ = example5_graph
        assert graph.is_independent([])
        for vertex in graph.vertices:
            assert graph.is_independent([vertex.index])


class TestWMIS:
    def test_exact_beats_or_equals_greedy(self, example5_graph):
        graph, _ = example5_graph
        exact = exact_wmis(graph)
        greedy = greedy_wmis(graph)
        assert graph.total_weight(exact) >= graph.total_weight(greedy) - 1e-12

    def test_exact_optimal_on_example5(self, example5_graph):
        graph, _ = example5_graph
        exact = exact_wmis(graph)
        # The optimum selects R1 (0.3) and R4 (0.09): R1's T-side {f} and R4's
        # {g} are disjoint, while any set containing R2 or R3 conflicts with
        # R4 on token "g", capping those alternatives at 0.35.  This is the
        # selection the paper's Example 5 reports for Algorithm 1.
        assert graph.total_weight(exact) == pytest.approx(0.39)

    def test_solutions_are_independent_sets(self, example5_graph):
        graph, _ = example5_graph
        for solver in (greedy_wmis, squareimp_wmis, exact_wmis):
            selection = solver(graph)
            assert graph.is_independent(selection)

    def test_solutions_are_maximal(self, example5_graph):
        graph, _ = example5_graph
        assert is_maximal_independent_set(graph, greedy_wmis(graph))
        assert is_maximal_independent_set(graph, squareimp_wmis(graph))

    def test_squareimp_at_least_greedy_weight_on_figure1(self, figure1_config):
        graph = build_conflict_graph(
            ("coffee", "shop", "latte", "helsingki"),
            ("espresso", "cafe", "helsinki"),
            figure1_config,
        )
        greedy = graph.total_weight(greedy_wmis(graph))
        square = graph.total_weight(squareimp_wmis(graph))
        exact = graph.total_weight(exact_wmis(graph))
        assert square >= greedy - 1e-9 or square == pytest.approx(greedy)
        assert exact >= square - 1e-9

    def test_exact_rejects_large_graphs(self, figure1_config):
        graph = build_conflict_graph(
            tuple("abcdefghij"), tuple("abcdefghij"), MeasureConfig.from_codes("J")
        )
        if len(graph) > 8:
            with pytest.raises(ValueError):
                exact_wmis(graph, max_vertices=8)


# --------------------------------------------------------------------- #
# SquareImp oracle: the original, unoptimised claw search, kept verbatim
# --------------------------------------------------------------------- #
def _reference_independent_subsets(graph, candidates, max_size):
    """Yield all independent subsets of ``candidates`` with size 1..max_size."""
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(candidates, size):
            if graph.is_independent(combo):
                yield combo


def _reference_squareimp_wmis(graph, *, max_claw_size=2, max_iterations=200):
    """The historical squareimp_wmis loop: every anchor's full neighbourhood,
    every subset of its pool, non-anchored talon sets discarded."""
    selected = greedy_wmis(graph)
    weights = [vertex.weight for vertex in graph.vertices]

    def conflict_set(talons):
        removed = set()
        for talon in talons:
            removed |= graph.neighbors(talon) & selected
            if talon in selected:
                removed.add(talon)
        return removed

    for _ in range(max_iterations):
        improved = False
        outside = [index for index in range(len(graph)) if index not in selected]
        # Candidate talon sets are built around each outside vertex and its
        # independent outside neighbours, which keeps enumeration local.
        for anchor in outside:
            neighbourhood = [anchor] + [
                index for index in outside
                if index != anchor and graph.are_adjacent(anchor, index) is False
                and (graph.neighbors(anchor) & graph.neighbors(index))
            ]
            # Restrict to a bounded pool for tractability.
            pool = neighbourhood[: max(8, max_claw_size * 4)]
            for talons in _reference_independent_subsets(graph, pool, max_claw_size):
                if anchor not in talons:
                    continue
                removed = conflict_set(talons)
                gain = sum(weights[t] ** 2 for t in talons)
                loss = sum(weights[r] ** 2 for r in removed)
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


def _random_graph(rng, vertex_count, edge_probability):
    """A ConflictGraph with random weights (some tied) and symmetric edges."""
    vertices = []
    for index in range(vertex_count):
        segment = Segment(TokenSpan(index, index + 1), (f"t{index}",))
        weight = rng.choice((round(rng.random(), 1), rng.random()))
        vertices.append(PairVertex(index, segment, segment, weight, None))
    adjacency = [set() for _ in range(vertex_count)]
    for i in range(vertex_count):
        for j in range(i + 1, vertex_count):
            if rng.random() < edge_probability:
                adjacency[i].add(j)
                adjacency[j].add(i)
    tokens = [f"t{index}" for index in range(vertex_count)]
    return ConflictGraph(tokens, tokens, vertices, adjacency)


class TestSquareImpOracle:
    """The lazy anchored talon search selects exactly what the original did."""

    @pytest.mark.parametrize("profile", [TINY_PROFILE, MED_PROFILE], ids=["TINY", "MED"])
    def test_corpus_graphs_match_reference(self, profile):
        dataset = generate_dataset(profile, count=300, seed=3)
        records = list(dataset.records)
        # Near-duplicates give the synonym-only config non-empty graphs too.
        truth = generate_ground_truth(dataset, positive_pairs=15, negative_pairs=0, seed=5)
        improved = 0
        for codes in ("J", "S", "T", "TJS"):
            config = MeasureConfig.from_codes(
                codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
            )
            rng = random.Random(5)
            pairs = [(rng.choice(records), rng.choice(records)) for _ in range(25)]
            pairs += [(pair.left, pair.right) for pair in truth.positives()]
            for left, right in pairs:
                graph = build_conflict_graph(left.tokens, right.tokens, config)
                expected = _reference_squareimp_wmis(graph)
                assert squareimp_wmis(graph) == expected, codes
                improved += expected != greedy_wmis(graph)
        # The claw search moved off the greedy seed, so swaps were compared.
        assert improved > 0

    @pytest.mark.parametrize("max_claw_size", [1, 2, 3])
    def test_random_graphs_match_reference(self, max_claw_size):
        rng = random.Random(100 + max_claw_size)
        improved = 0
        for _ in range(60):
            graph = _random_graph(
                rng, rng.randrange(2, 26), rng.choice((0.1, 0.25, 0.5))
            )
            expected = _reference_squareimp_wmis(graph, max_claw_size=max_claw_size)
            got = squareimp_wmis(graph, max_claw_size=max_claw_size)
            assert got == expected
            improved += expected != greedy_wmis(graph)
        # A lone talon never beats the weight-descending greedy seed (each
        # outside vertex has a heavier selected neighbour), so only larger
        # claws can move the solution.
        assert improved > 0 or max_claw_size == 1
