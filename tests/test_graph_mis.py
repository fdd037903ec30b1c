"""Tests for conflict-graph construction and w-MIS solvers."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    SimilarityBreakdown,
    _fill_with_singletons,
    partition_similarity,
)
from repro.core.approximation import (
    MAX_EVALUATIONS,
    MAX_TALONS,
    POOL_LIMIT,
    ApproximationResult,
    approximate_usim_on_graph,
)
from repro.core.graph import ConflictGraph, GraphSide, build_conflict_graph, mask_indices
from repro.core.measures import MeasureConfig
from repro.core.mis import exact_wmis, greedy_mask, is_maximal_independent_set, squareimp_mask
from repro.core.segments import Segment, singleton_partition
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
        assert graph.adjacency[r3] >> r5 & 1  # share token "d" on the S side

    def test_non_conflicting_rules_not_adjacent(self, example5_graph):
        graph, _ = example5_graph
        by_weight = {round(v.weight, 2): v.index for v in graph.vertices}
        r1 = by_weight[0.3]   # {b c d} -> {f}
        r4 = by_weight[0.09]  # {a} -> {g}
        assert not graph.adjacency[r1] >> r4 & 1

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


def _selection(mask):
    """A selection mask as the set of its vertex indices."""
    return set(mask_indices(mask))


class TestWMIS:
    def test_exact_beats_or_equals_greedy(self, example5_graph):
        graph, _ = example5_graph
        exact = exact_wmis(graph)
        greedy = _selection(greedy_mask(graph))
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
        for selection in (
            _selection(greedy_mask(graph)),
            _selection(squareimp_mask(graph)),
            exact_wmis(graph),
        ):
            assert graph.is_independent(selection)

    def test_solutions_are_maximal(self, example5_graph):
        graph, _ = example5_graph
        assert is_maximal_independent_set(graph, _selection(greedy_mask(graph)))
        assert is_maximal_independent_set(graph, _selection(squareimp_mask(graph)))

    def test_squareimp_at_least_greedy_weight_on_figure1(self, figure1_config):
        graph = build_conflict_graph(
            ("coffee", "shop", "latte", "helsingki"),
            ("espresso", "cafe", "helsinki"),
            figure1_config,
        )
        greedy = graph.total_weight(_selection(greedy_mask(graph)))
        square = graph.total_weight(_selection(squareimp_mask(graph)))
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
# SquareImp oracles: the original, unoptimised claw search, kept verbatim,
# and the set-based search the mask version replaced
# --------------------------------------------------------------------- #
def _reference_independent_subsets(graph, candidates, max_size):
    """Yield all independent subsets of ``candidates`` with size 1..max_size."""
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(candidates, size):
            if graph.is_independent(combo):
                yield combo


def _reference_greedy(graph):
    """The set-based greedy seed."""
    order = sorted(
        range(len(graph)), key=lambda index: graph.vertices[index].weight, reverse=True
    )
    selected, blocked = set(), set()
    for index in order:
        if index in blocked:
            continue
        selected.add(index)
        blocked.add(index)
        blocked |= graph.neighbors(index)
    return selected


def _reference_squareimp_wmis(graph, *, max_claw_size=2, max_iterations=200):
    """The historical squareimp_wmis loop: every anchor's full neighbourhood,
    every subset of its pool, non-anchored talon sets discarded."""
    selected = _reference_greedy(graph)
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
                if index != anchor and not graph.adjacency[anchor] >> index & 1
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


def _set_talon_sets(graph, adjacency, anchor, outside, max_claw_size):
    """The set-based anchored talon enumeration, in search order."""
    yield (anchor,)
    if max_claw_size == 1:
        return
    limit = max(8, max_claw_size * 4) - 1
    anchor_neighbours = adjacency[anchor]
    partners = []
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


def _set_squareimp_wmis(graph, *, max_claw_size=2, max_iterations=200):
    """The set-based lazy anchored search that the mask search replaced."""
    selected = _reference_greedy(graph)
    weights = [vertex.weight for vertex in graph.vertices]
    squared = [weight ** 2 for weight in weights]
    adjacency = [graph.neighbors(index) for index in range(len(graph))]

    def conflict_set(talons):
        removed = set()
        for talon in talons:
            removed |= adjacency[talon] & selected
        return removed

    for _ in range(max_iterations):
        improved = False
        outside = [index for index in range(len(graph)) if index not in selected]
        for anchor in outside:
            for talons in _set_talon_sets(graph, adjacency, anchor, outside, max_claw_size):
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

    for index in sorted(range(len(graph)), key=lambda i: -weights[i]):
        if index in selected:
            continue
        if not (graph.neighbors(index) & selected):
            selected.add(index)
    return selected


def _singleton_side(tokens, segments=None):
    """A graph side over ``tokens`` with the given segments (default: singletons)."""
    if segments is None:
        segments = [
            Segment(TokenSpan(index, index + 1), (token,))
            for index, token in enumerate(tokens)
        ]
    return GraphSide(tokens, MeasureConfig(), segments=segments)


def _masks(adjacency):
    return [sum(1 << other for other in neighbours) for neighbours in adjacency]


def _random_graph(rng, vertex_count, edge_probability):
    """A ConflictGraph with random weights (some tied) and symmetric edges."""
    weights = [
        rng.choice((round(rng.random(), 1), rng.random())) for _ in range(vertex_count)
    ]
    adjacency = [set() for _ in range(vertex_count)]
    for i in range(vertex_count):
        for j in range(i + 1, vertex_count):
            if rng.random() < edge_probability:
                adjacency[i].add(j)
                adjacency[j].add(i)
    side = _singleton_side(tuple(f"t{index}" for index in range(vertex_count)))
    table = [[0.0] * vertex_count for _ in range(vertex_count)]
    for index, weight in enumerate(weights):
        table[index][index] = weight
    return ConflictGraph(
        side,
        side,
        [(index, index) for index in range(vertex_count)],
        weights,
        _masks(adjacency),
        table,
    )


def _corpus_graphs(profile):
    """Conflict graphs of random and near-duplicate record pairs, per config."""
    dataset = generate_dataset(profile, count=300, seed=3)
    records = list(dataset.records)
    # Near-duplicates give the synonym-only config non-empty graphs too.
    truth = generate_ground_truth(dataset, positive_pairs=15, negative_pairs=0, seed=5)
    for codes in ("J", "S", "T", "TJS"):
        config = MeasureConfig.from_codes(
            codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
        )
        rng = random.Random(5)
        pairs = [(rng.choice(records), rng.choice(records)) for _ in range(25)]
        pairs += [(pair.left, pair.right) for pair in truth.positives()]
        for left, right in pairs:
            yield config, build_conflict_graph(left.tokens, right.tokens, config)


class TestSquareImpOracle:
    """The mask search selects exactly what the set search and the original
    unoptimised search did."""

    @pytest.mark.parametrize("profile", [TINY_PROFILE, MED_PROFILE], ids=["TINY", "MED"])
    def test_corpus_graphs_match_reference(self, profile):
        improved = 0
        for config, graph in _corpus_graphs(profile):
            expected = _reference_squareimp_wmis(graph)
            assert _selection(squareimp_mask(graph)) == expected, config.codes
            assert _set_squareimp_wmis(graph) == expected, config.codes
            improved += expected != _selection(greedy_mask(graph))
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
            got = _selection(squareimp_mask(graph, max_claw_size=max_claw_size))
            assert got == expected
            assert _set_squareimp_wmis(graph, max_claw_size=max_claw_size) == expected
            assert _selection(greedy_mask(graph)) == _reference_greedy(graph)
            improved += expected != _selection(greedy_mask(graph))
        # A lone talon never beats the weight-descending greedy seed (each
        # outside vertex has a heavier selected neighbour), so only larger
        # claws can move the solution.
        assert improved > 0 or max_claw_size == 1

    @pytest.mark.parametrize("max_claw_size", [1, 2, 3])
    def test_large_random_graphs_match_set_search(self, max_claw_size):
        """Masks wider than a machine word select what the set search does."""
        rng = random.Random(300 + max_claw_size)
        improved = 0
        for _ in range(6):
            graph = _random_graph(
                rng, rng.randrange(65, 201), rng.choice((0.02, 0.05, 0.1))
            )
            expected = _set_squareimp_wmis(graph, max_claw_size=max_claw_size)
            assert _selection(squareimp_mask(graph, max_claw_size=max_claw_size)) == expected
            improved += expected != _selection(greedy_mask(graph))
        assert improved > 0 or max_claw_size == 1


# --------------------------------------------------------------------- #
# Algorithm 1 oracle: the whole set- and msim-based algorithm
# --------------------------------------------------------------------- #
def _reference_candidate_talon_sets(graph, selection):
    outside = sorted(
        (index for index in range(len(graph)) if index not in selection),
        key=lambda index: -graph.vertices[index].weight,
    )
    outside_pool = outside[:POOL_LIMIT]
    for size in range(1, MAX_TALONS + 1):
        for combo in itertools.combinations(outside_pool, size):
            if graph.is_independent(combo):
                yield combo


def _reference_get_sim(graph, selection, config):
    """GetSim from the vertices' segments and a fresh ``msim`` per entry."""
    selection = list(selection)
    if not graph.left_tokens or not graph.right_tokens:
        return SimilarityBreakdown(0.0, (), (), ())
    if not selection:
        return partition_similarity(
            singleton_partition(graph.left_tokens),
            singleton_partition(graph.right_tokens),
            config,
        )
    vertices = [graph.vertices[index] for index in selection]
    left = _fill_with_singletons(graph.left_tokens, {vertex.left for vertex in vertices})
    right = _fill_with_singletons(graph.right_tokens, {vertex.right for vertex in vertices})
    return partition_similarity(left, right, config)


def _reference_algorithm1(graph, config, *, t=4.0, seed="squareimp", early_ceiling=True):
    """Algorithm 1 as it ran on sets, with GetSim over ``config.msim``."""
    if len(graph) == 0:
        return ApproximationResult(_reference_get_sim(graph, (), config), (), 0, 0)
    if seed == "squareimp":
        selection = _set_squareimp_wmis(graph)
    else:
        selection = _reference_greedy(graph)
    best = _reference_get_sim(graph, selection, config)
    min_gain = 1.0 / t
    rounds = 0
    weights = [vertex.weight for vertex in graph.vertices]
    ceiling_stopped = False
    while rounds < int(t):
        if early_ceiling and best.value + min_gain > 1.0 + 1e-9:
            ceiling_stopped = True
            break
        rounds += 1
        ranked = []
        for talons in _reference_candidate_talon_sets(graph, selection):
            removed = set()
            for talon in talons:
                removed |= graph.neighbors(talon) & selection
            gain = sum(weights[talon] for talon in talons) - sum(
                weights[index] for index in removed
            )
            if gain <= 0.0:
                continue
            ranked.append((gain, removed, talons))
        ranked.sort(key=lambda item: -item[0])
        best_swap = None
        for _, removed, talons in ranked[:MAX_EVALUATIONS]:
            candidate = (selection - removed) | set(talons)
            breakdown = _reference_get_sim(graph, candidate, config)
            if breakdown.value >= best.value + min_gain:
                if best_swap is None or breakdown.value > best_swap[1].value:
                    best_swap = (candidate, breakdown)
        if best_swap is None:
            break
        selection, best = best_swap
    return ApproximationResult(
        best, tuple(sorted(selection)), len(graph), rounds, ceiling_stopped
    )


class _TableMeasure:
    """A stand-in config whose ``msim`` reads a table keyed by token tuples."""

    def __init__(self, entries):
        self.entries = entries

    def msim(self, left, right):
        return self.entries[(tuple(left), tuple(right))]


def _random_span_side(rng, prefix, length):
    """A side of ``length`` distinct tokens: every singleton plus random
    multi-token segments (each span at most once)."""
    tokens = tuple(f"{prefix}{index}" for index in range(length))
    spans = {(index, index + 1) for index in range(length)}
    for _ in range(length * 2):
        start = rng.randrange(length - 1)
        spans.add((start, min(length, start + rng.randrange(2, 5))))
    segments = [
        Segment(TokenSpan(start, end), tokens[start:end]) for start, end in sorted(spans)
    ]
    return _singleton_side(tokens, segments)


def _random_pair_graph(rng, vertex_count):
    """A conflict graph of random segments: random weights on every segment
    pair (some zero, some tied), ``vertex_count`` of the positive pairs as
    vertices, and edges wherever segments overlap on either side."""
    left = _random_span_side(rng, "s", rng.randrange(10, 16))
    right = _random_span_side(rng, "t", rng.randrange(10, 16))
    table = [
        [
            rng.choice((0.0, round(rng.random(), 1), rng.random()))
            for _ in right.segments
        ]
        for _ in left.segments
    ]
    positive = [
        (i, j)
        for i in range(len(left.segments))
        for j in range(len(right.segments))
        if table[i][j] > 0.0
    ]
    ends = sorted(rng.sample(positive, min(vertex_count, len(positive))))
    adjacency = [
        {
            other
            for other, (k, m) in enumerate(ends)
            if other != vertex
            and (
                left.segments[i].span.overlaps(left.segments[k].span)
                or right.segments[j].span.overlaps(right.segments[m].span)
            )
        }
        for vertex, (i, j) in enumerate(ends)
    ]
    graph = ConflictGraph(
        left, right, ends, [table[i][j] for i, j in ends], _masks(adjacency), table
    )
    entries = {
        (left_segment.tokens, right_segment.tokens): table[i][j]
        for i, left_segment in enumerate(left.segments)
        for j, right_segment in enumerate(right.segments)
    }
    return graph, _TableMeasure(entries)


ALGORITHM1_SETTINGS = [
    {},
    {"t": 2.0},
    {"t": 10.0, "early_ceiling": False},
    {"seed": "greedy", "t": 6.0},
]


class TestAlgorithm1Oracle:
    """Algorithm 1 on masks and weight tables returns the whole result the
    set- and msim-based algorithm returned."""

    @pytest.mark.parametrize("profile", [TINY_PROFILE, MED_PROFILE], ids=["TINY", "MED"])
    def test_corpus_graphs_match_reference(self, profile):
        rounds = wide = 0
        for config, graph in _corpus_graphs(profile):
            wide += len(graph) > 64
            for settings_ in ALGORITHM1_SETTINGS:
                expected = _reference_algorithm1(graph, config, **settings_)
                assert approximate_usim_on_graph(graph, **settings_) == expected
                rounds += expected.improvement_rounds
        assert rounds > 0
        assert wide > 0 or profile is TINY_PROFILE

    def test_random_graphs_match_reference(self):
        rng = random.Random(41)
        accepted = 0
        for _ in range(12):
            graph, measure = _random_pair_graph(rng, rng.randrange(65, 201))
            assert len(graph) > 64
            for settings_ in ALGORITHM1_SETTINGS:
                expected = _reference_algorithm1(graph, measure, **settings_)
                assert approximate_usim_on_graph(graph, **settings_) == expected
                accepted += expected.selection != tuple(
                    sorted(_set_squareimp_wmis(graph))
                    if settings_.get("seed", "squareimp") == "squareimp"
                    else sorted(_reference_greedy(graph))
                )
        # Some improvement round accepted a swap, so GetSim values decided.
        assert accepted > 0
