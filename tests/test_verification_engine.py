"""Equivalence and soundness tests for the prepared verification engine.

The engine's contract is strict: for any candidate set, the pairs surviving
:meth:`UnifiedVerifier.verify_batch` and their similarity values must be
*bit-identical* to verifying each candidate with the per-pair oracle
(:meth:`UnifiedVerifier.verify`, i.e. a fresh ``approximate_usim`` per pair).  The
tests here enforce that over randomized candidate sets across measure
configurations and self-joins, and separately check the soundness of the
cascade's upper bounds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.approximation import approximate_usim, approximate_usim_on_graph
from repro.core.exact import ExactBudgetExceeded, exact_usim
from repro.core.graph import (
    PARTITION_SLACK,
    GraphSide,
    PairUpperBound,
    build_conflict_graph,
    build_conflict_graph_from_sides,
    partition_bound,
)
from repro.core.measures import Measure, MeasureConfig
from repro.core.segments import partition_sums
from repro.datasets import MED_PROFILE, TINY_PROFILE, generate_dataset, generate_ground_truth
from repro.join import PebbleJoin, SignatureMethod
from repro.join import verification
from repro.join.prepared import PreparedCollection
from repro.join.verification import UnifiedVerifier, VerificationStats
from repro.records import Record, RecordCollection

MEASURE_CODES = ("J", "S", "T", "TJS")


@pytest.fixture(scope="module")
def engine_dataset():
    """A small synthetic corpus with synonym rules and a taxonomy."""
    return generate_dataset(TINY_PROFILE, seed=29)


def _config(dataset, codes: str) -> MeasureConfig:
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


def _random_candidates(rng, count, left_size, right_size, *, self_join=False):
    """A randomized candidate list grouped probe-major like the filter's."""
    candidates = []
    for _ in range(count):
        if self_join:
            right_id = rng.randrange(1, right_size)
            left_id = rng.randrange(0, right_id)
        else:
            left_id = rng.randrange(left_size)
            right_id = rng.randrange(right_size)
        candidates.append((left_id, right_id))
    # Group by the probe (left) id without losing duplicates, mirroring the
    # probe-major emission order of the filter.
    candidates.sort(key=lambda pair: pair[0])
    return candidates


def _reference_results(config, threshold, candidates, left, right):
    """The seed path: one per-pair verifier, fresh graph per candidate."""
    verifier = UnifiedVerifier(config, threshold)
    results = []
    for left_id, right_id in candidates:
        verified = verifier.verify(left[left_id], right[right_id])
        if verified is not None:
            results.append((verified.left_id, verified.right_id, verified.similarity))
    return results


def _as_triples(pairs):
    return [(pair.left_id, pair.right_id, pair.similarity) for pair in pairs]


class TestVerifyBatchEquivalence:
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_randomized_equivalence_per_measure(self, engine_dataset, codes):
        config = _config(engine_dataset, codes)
        collection = engine_dataset.records.head(40)
        left = collection.subset(range(0, 20))
        right = collection.subset(range(20, 40))
        rng = random.Random(hash(codes) & 0xFFFF)
        candidates = _random_candidates(rng, 120, len(left), len(right))
        for threshold in (0.0, 0.4, 0.8):
            reference = _reference_results(config, threshold, candidates, left, right)
            engine = UnifiedVerifier(config, threshold)
            prepared_left = PebbleJoin(config, threshold).prepare(left)
            prepared_right = PebbleJoin(config, threshold).prepare(right)
            got = engine.verify_batch(candidates, prepared_left, prepared_right)
            assert _as_triples(got) == reference
            assert engine.stats.candidates == len(candidates)

    def test_self_join_equivalence(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(30)
        rng = random.Random(91)
        candidates = _random_candidates(
            rng, 150, len(collection), len(collection), self_join=True
        )
        threshold = 0.5
        reference = _reference_results(config, threshold, candidates, collection, collection)
        engine = UnifiedVerifier(config, threshold)
        prepared = PebbleJoin(config, threshold).prepare(collection)
        got = engine.verify_batch(candidates, prepared, prepared)
        assert _as_triples(got) == reference

    def test_raw_collections_rejected(self, engine_dataset):
        """Graph sides come from prepared collections only: raw input, or a
        collection prepared under a different config, raises before any
        candidate is verified."""
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(20)
        prepared = PebbleJoin(config, 0.3).prepare(collection)
        candidates = [(0, 1), (2, 3)]
        engine = UnifiedVerifier(config, 0.3)
        for left, right in ((collection, prepared), (prepared, collection)):
            with pytest.raises(TypeError, match="prepared"):
                engine.verify_batch(candidates, left, right)
        other = PebbleJoin(_config(engine_dataset, "TJ"), 0.3).prepare(collection)
        with pytest.raises(ValueError, match="MeasureConfig"):
            engine.verify_batch(candidates, prepared, other)
        assert engine.stats == VerificationStats()

    def test_invalid_approximation_t_rejected(self, engine_dataset):
        """t outside (1, inf) fails at construction, and Algorithm 1 itself
        rejects NaN and inf (a ``t <= 1`` check lets NaN through)."""
        config = _config(engine_dataset, "J")
        graph = build_conflict_graph(("coffee", "shop"), ("coffee", "shop"), config)
        for t in (1.0, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t must be"):
                UnifiedVerifier(config, 0.5, t=t)
            with pytest.raises(ValueError, match="t must be"):
                approximate_usim_on_graph(graph, t=t)
        assert UnifiedVerifier(config, 0.5, t=1.5).t == 1.5

    def test_join_reports_verification_stats(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(40)
        engine = PebbleJoin(config, 0.7, tau=2, method=SignatureMethod.AU_DP)
        result = engine.join(collection)
        stats = result.statistics.verification
        assert isinstance(stats, VerificationStats)
        assert stats.candidates == result.statistics.candidate_count
        assert stats.results == result.statistics.result_count
        assert (
            stats.upper_bound_prunes + stats.graphs_built == stats.candidates
        )
        assert stats.ceiling_stops + stats.full_runs == stats.graphs_built

    def test_join_batches_match_join_with_workers(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(40)
        engine = PebbleJoin(config, 0.6, tau=2, method=SignatureMethod.AU_DP)
        expected = engine.join(collection)
        streamed = PebbleJoin(config, 0.6, tau=2, method=SignatureMethod.AU_DP)
        batches = list(
            streamed.join_batches(
                collection, batch_size=8, executor="process", workers=3
            )
        )
        streamed_pairs = {
            (pair.left_id, pair.right_id, pair.similarity)
            for batch in batches
            for pair in batch.pairs
        }
        assert streamed_pairs == set(_as_triples(expected.pairs))
        total_candidates = sum(batch.candidate_count for batch in batches)
        assert streamed.verifier.stats.candidates == total_candidates
        assert sum(
            batch.verification.candidates for batch in batches
        ) == total_candidates


def _near_duplicate_collection(dataset, count=12, exact_copies=3):
    """Originals followed by their near-duplicates (the first few exact
    copies), so that some candidates reach even a high θ while most are
    pruned."""
    truth = generate_ground_truth(
        dataset, positive_pairs=count, negative_pairs=0, seed=3
    )
    positives = truth.positives()[:count]
    originals = [pair.left for pair in positives]
    duplicates = originals[:exact_copies] + [
        pair.right for pair in positives[exact_copies:]
    ]
    sources = originals + duplicates
    return RecordCollection(
        Record(record_id=index, text=record.text, tokens=record.tokens)
        for index, record in enumerate(sources)
    )


def _reference_cascade_stats(config, threshold, candidates, left, right):
    """The cascade from the public bounds, one pair at a time: a pair is
    pruned when the maxima bound falls below θ, or else the partition bound
    below θ − PARTITION_SLACK, and otherwise runs Algorithm 1 on the
    two-sided graph."""
    stats = VerificationStats()
    for left_id, right_id in candidates:
        left_side = left.graph_side(left_id)
        right_side = right.graph_side(right_id)
        stats.candidates += 1
        bound = PairUpperBound(left_side, right_side, config)
        if (
            bound.maxima(threshold) < threshold
            or bound.partition() < threshold - PARTITION_SLACK
        ):
            stats.upper_bound_prunes += 1
            continue
        stats.graphs_built += 1
        graph = build_conflict_graph_from_sides(left_side, right_side, config)
        result = approximate_usim_on_graph(graph, t=4.0)
        if result.ceiling_stopped:
            stats.ceiling_stops += 1
        else:
            stats.full_runs += 1
        if result.value >= threshold:
            stats.results += 1
    return stats


class TestCascadeOrderCounters:
    """The grouped cascade counts exactly what the public bounds and
    Algorithm 1 decide pair by pair: grouping candidates by probe and
    running stage 1 once per group changes no counter."""

    @pytest.mark.parametrize("self_join", [True, False], ids=["self", "two"])
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_counters_match_historical_order(self, engine_dataset, codes, self_join):
        config = _config(engine_dataset, codes)
        collection = _near_duplicate_collection(engine_dataset)
        half = len(collection) // 2
        if self_join:
            left = right = collection
            candidates = [
                (i, j) for i in range(len(collection)) for j in range(i + 1, len(collection))
            ]
        else:
            # Originals against their duplicates (plus every other pairing).
            left = collection.subset(range(half))
            right = collection.subset(range(half, len(collection)))
            candidates = [(i, j) for i in range(half) for j in range(half)]
        for threshold in (0.3, 0.8, 0.95):
            prepared_left = PebbleJoin(config, threshold).prepare(left)
            prepared_right = (
                prepared_left if self_join else PebbleJoin(config, threshold).prepare(right)
            )
            expected = _reference_cascade_stats(
                config, threshold, candidates, prepared_left, prepared_right
            )
            batch = UnifiedVerifier(config, threshold)
            batch.verify_batch(candidates, prepared_left, prepared_right)
            assert batch.stats == expected, threshold
            assert expected.upper_bound_prunes > 0, threshold
            assert expected.candidates == (
                expected.upper_bound_prunes + expected.graphs_built
            ), threshold
            if "J" in codes:
                # Exact copies reach every θ under Jaccard; S and T alone
                # score a token 0 unless a rule or taxonomy node covers it.
                assert expected.results > 0, threshold


class TestBoundSoundness:
    def _random_pairs(self, dataset, count, seed):
        rng = random.Random(seed)
        records = list(dataset.records)
        return [(rng.choice(records), rng.choice(records)) for _ in range(count)]

    def test_upper_bound_dominates_approximation(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        for left, right in self._random_pairs(engine_dataset, 60, 3):
            left_side = GraphSide(left.tokens, config)
            right_side = GraphSide(right.tokens, config)
            upper = PairUpperBound(left_side, right_side, config).partition()
            approx = approximate_usim(left.tokens, right.tokens, config).value
            assert approx <= upper + 1e-9

    def test_upper_bound_dominates_exact_usim(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        checked = 0
        for left, right in self._random_pairs(engine_dataset, 60, 5):
            left_side = GraphSide(left.tokens, config)
            right_side = GraphSide(right.tokens, config)
            try:
                exact = exact_usim(
                    left.tokens, right.tokens, config, partition_limit=2000
                ).value
            except ExactBudgetExceeded:
                continue
            checked += 1
            upper = PairUpperBound(left_side, right_side, config).partition()
            assert exact <= upper + 1e-9
        assert checked > 10

    def test_identical_strings_bound_tight(self, figure1_config):
        tokens = ("coffee", "shop", "latte")
        side = GraphSide(tokens, figure1_config)
        other = GraphSide(tokens, figure1_config)
        assert PairUpperBound(side, other, figure1_config).partition() == 1.0

    def test_synonym_bound_tight_under_rule_transitivity(self):
        """Two rhs of rules sharing one lhs are transitively related but not
        connected by any rule: the sharpened bound must see similarity 0
        where the historical full shared-lhs intersection saw min-closeness,
        while direct rules keep their exact bound."""
        from repro.core.measures import MeasureConfig
        from repro.synonyms.rules import SynonymRuleSet

        rules = SynonymRuleSet.from_pairs(
            [("coffee shop", "cafe"), ("coffee shop", "coffeehouse")],
            closeness=0.9,
        )
        config = MeasureConfig.from_codes("S", rules=rules)
        cafe = GraphSide(("cafe",), config)
        coffeehouse = GraphSide(("coffeehouse",), config)
        # No rule connects the two rhs: similarity is 0 and the tightened
        # bound agrees (the shared "coffee shop" lhs is no longer a hit).
        assert config.msim(("cafe",), ("coffeehouse",)) == 0.0
        assert PairUpperBound(cafe, coffeehouse, config).partition() == 0.0
        # A directly connected pair still bounds at the rule's closeness.
        shop = GraphSide(("coffee", "shop"), config)
        assert config.msim(("coffee", "shop"), ("cafe",)) == 0.9
        assert PairUpperBound(shop, cafe, config).partition() >= 0.9

    def test_partition_bound_equals_the_pairwise_maximum(self, engine_dataset):
        """The linear scan over ``max(a, b)`` is the defining double maximum
        ``max_{a,b} min(A[a], B[b], min(a, b)) / max(a, b)``, bit for bit,
        on stage 1's maxima and on random weights in [0, 1]."""

        def pairwise(left_side, right_side, rows, columns):
            left = partition_sums(len(left_side.tokens), left_side.segments, rows)
            right = partition_sums(len(right_side.tokens), right_side.segments, columns)
            best = max(
                min(left[a], right[b], min(a, b)) / max(a, b)
                for a in range(1, len(left))
                for b in range(1, len(right))
            )
            return min(best, 1.0)

        rng = random.Random(41)
        records = list(engine_dataset.records)
        pairs = self._random_pairs(engine_dataset, 40, 41)
        pairs += [(record, record) for record in rng.sample(records, 10)]
        multi = 0
        for codes in MEASURE_CODES:
            config = _config(engine_dataset, codes)
            for left, right in pairs:
                left_side = GraphSide(left.tokens, config)
                right_side = GraphSide(right.tokens, config)
                multi += any(len(segment) > 1 for segment in left_side.segments)
                bound = PairUpperBound(left_side, right_side, config)
                assert bound.partition() == pairwise(
                    left_side, right_side, bound.row_maxima, bound.column_maxima
                )
                rows = [rng.choice([0.0, 1.0, rng.random()]) for _ in left_side.segments]
                columns = [rng.choice([0.0, 1.0, rng.random()]) for _ in right_side.segments]
                assert partition_bound(left_side, right_side, rows, columns) == pairwise(
                    left_side, right_side, rows, columns
                )
        assert multi > 10

    def test_partition_bound_tight_where_overlapping_maxima_are_not(self):
        """Row maxima of overlapping segments never sit in one partition.

        ``apple`` (1.0 against ``apple``) and ``big apple`` (0.9 against
        ``nyc``) overlap, so the maxima bound adds both, (0.9 + 1.0) / 2,
        while a partition holds one of them: ``big apple | pie`` gives
        A[2] = 0.9 and ``big | apple | pie`` gives A[3] = 1.0, so the
        partition bound is max(0.9 / 2, 1.0 / 3) = 0.45, the exact USIM.
        """
        from repro.synonyms.rules import SynonymRuleSet

        rules = SynonymRuleSet.from_pairs([("big apple", "nyc")], closeness=0.9)
        config = MeasureConfig.from_codes("JS", rules=rules)
        left = GraphSide(("big", "apple", "pie"), config)
        right = GraphSide(("nyc", "apple"), config)
        bound = PairUpperBound(left, right, config)
        assert bound.row_maxima == [0.0, 0.9, 1.0, 0.0]  # big, big apple, apple, pie
        assert bound.column_maxima == [0.9, 1.0]
        assert bound.maxima(0.0) == pytest.approx(0.95)
        assert bound.partition() == 0.45
        assert exact_usim(left.tokens, right.tokens, config).value == pytest.approx(0.45)


class TestCeilingBreak:
    def test_early_ceiling_values_identical(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        rng = random.Random(17)
        records = list(engine_dataset.records)
        for _ in range(40):
            left, right = rng.choice(records), rng.choice(records)
            fast = approximate_usim(left.tokens, right.tokens, config, t=4.0)
            slow = approximate_usim(
                left.tokens, right.tokens, config, t=4.0, early_ceiling=False
            )
            assert fast.value == slow.value

    def test_ceiling_stop_reported_for_identical_strings(self, figure1_config):
        result = approximate_usim(
            ("coffee", "shop", "latte"), ("coffee", "shop", "latte"), figure1_config
        )
        assert result.value == 1.0
        assert result.ceiling_stopped


class TestGraphSideAssembly:
    def test_side_based_graph_matches_ad_hoc(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        rng = random.Random(23)
        records = list(engine_dataset.records)
        for _ in range(25):
            left, right = rng.choice(records), rng.choice(records)
            ad_hoc = build_conflict_graph(left.tokens, right.tokens, config)
            from_sides = build_conflict_graph_from_sides(
                GraphSide(left.tokens, config), GraphSide(right.tokens, config), config
            )
            assert ad_hoc.vertices == from_sides.vertices
            assert ad_hoc.adjacency == from_sides.adjacency
            assert ad_hoc.table == from_sides.table

    def test_prepared_collection_caches_graph_sides(self, engine_dataset):
        config = _config(engine_dataset, "TJS")
        collection = engine_dataset.records.head(5)
        prepared = PebbleJoin(config, 0.8).prepare(collection)
        first = prepared.graph_side(0)
        assert prepared.graph_side(0) is first
        # The cached side reuses the pebble-generation segments verbatim.
        assert list(first.segments) == list(prepared.prepared_records[0].segments)

    def test_mixed_config_sides_rejected(self, engine_dataset):
        # Genuinely different configs (different enabled measures) must be
        # rejected; equal-but-distinct ones are accepted (see below).
        config_a = _config(engine_dataset, "TJS")
        config_b = _config(engine_dataset, "TJ")
        side = GraphSide(("a",), config_a)
        other = GraphSide(("a",), config_b)
        with pytest.raises(ValueError):
            build_conflict_graph_from_sides(side, other, config_a)
        with pytest.raises(ValueError):
            PairUpperBound(side, other, config_a)

    def test_equal_but_distinct_config_sides_accepted(self, engine_dataset):
        """Configs compare by content: distinct-but-equal objects mix freely."""
        config_a = _config(engine_dataset, "TJS")
        config_b = _config(engine_dataset, "TJS")
        assert config_a == config_b and config_a is not config_b
        side = GraphSide(("coffee", "shop"), config_a)
        other = GraphSide(("cafe",), config_b)
        graph = build_conflict_graph_from_sides(side, other, config_a)
        reference = build_conflict_graph_from_sides(
            GraphSide(("coffee", "shop"), config_a),
            GraphSide(("cafe",), config_a),
            config_a,
        )
        assert [v.weight for v in graph.vertices] == [
            v.weight for v in reference.vertices
        ]
        assert PairUpperBound(side, other, config_a).partition() == PairUpperBound(
            GraphSide(("coffee", "shop"), config_b),
            GraphSide(("cafe",), config_b),
            config_b,
        ).partition()

    def test_min_partition_size_is_exact_minimum(self, figure1_config):
        # "coffee shop latte": {"coffee shop", "latte"} is the smallest cover.
        side = GraphSide(("coffee", "shop", "latte"), figure1_config)
        assert side.min_partition_size == 2
        singleton_only = GraphSide(("grand", "hotel", "paris"), figure1_config)
        assert singleton_only.min_partition_size == 3


# --------------------------------------------------------------------- #
# graph oracle: the msim assembly loop the bound-matrix assembly replaced
# --------------------------------------------------------------------- #
def _reference_assemble(left_side, right_side, config):
    """Every vertex as ``(left segment, right segment, msim)``, left-major,
    and each vertex's neighbour set, from ``msim`` and the overlap sets."""
    rules = config.rules if config.uses(Measure.SYNONYM) else None
    use_tax = config.uses(Measure.TAXONOMY) and config.taxonomy is not None
    vertices, vertex_sides = [], []
    for i, left in enumerate(left_side.segments):
        left_state = left_side.match_state[i]
        for j, right in enumerate(right_side.segments):
            right_state = right_side.match_state[j]
            # Conditions (a)–(c) of Section 2.3.
            if left_state.is_single and right_state.is_single:
                pass
            elif (
                rules is not None
                and left_state.syn_keys is not None
                and right_state.syn_keys is not None
                and not left_state.syn_keys.isdisjoint(right_state.syn_keys)
                and rules.similarity(left.tokens, right.tokens) > 0.0
            ):
                pass
            elif use_tax and left_state.has_tax and right_state.has_tax:
                pass
            else:
                continue
            weight = config.msim(left.tokens, right.tokens)
            if weight < 1e-12:
                continue
            vertices.append((left, right, weight))
            vertex_sides.append((i, j))
    by_left, by_right = {}, {}
    for vertex, (i, j) in enumerate(vertex_sides):
        by_left.setdefault(i, set()).add(vertex)
        by_right.setdefault(j, set()).add(vertex)
    adjacency = []
    for vertex, (i, j) in enumerate(vertex_sides):
        neighbours = set()
        for other in left_side.overlap_sets[i]:
            neighbours |= by_left.get(other, set())
        for other in right_side.overlap_sets[j]:
            neighbours |= by_right.get(other, set())
        neighbours.discard(vertex)
        adjacency.append(neighbours)
    return vertices, adjacency


def _probe_major_candidates(rng, size, duplicates, probe_index):
    """Candidates grouped by the probe id: each probe against a few random
    partners and its near-duplicate."""
    candidates = []
    for probe in rng.sample(range(size), 8):
        partners = rng.sample(range(size), 4) + [duplicates.get(probe, probe)]
        for partner in partners:
            pair = (probe, partner) if probe_index == 0 else (partner, probe)
            candidates.append(pair)
    return candidates


class TestGraphOracle:
    """The verifier's graphs — weights from the stage-1 matrix, adjacency
    from masks — equal the msim assembly vertex for vertex, weight for
    weight, bit for bit."""

    @pytest.mark.parametrize("profile", [TINY_PROFILE, MED_PROFILE], ids=["TINY", "MED"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_verifier_graphs_match_msim_assembly(self, monkeypatch, profile, q, codes):
        dataset = generate_dataset(profile, count=120, seed=7)
        config = MeasureConfig.from_codes(
            codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=q
        )
        collection = _near_duplicate_collection(dataset, count=20, exact_copies=6)
        half = len(collection) // 2
        duplicates = {index: index + half for index in range(half)}
        duplicates.update({index + half: index for index in range(half)})
        prepared = PreparedCollection.prepare(collection, config)
        graphs = []
        run = verification.approximate_usim_on_graph

        def capture(graph, **kwargs):
            graphs.append(graph)
            return run(graph, **kwargs)

        monkeypatch.setattr(verification, "approximate_usim_on_graph", capture)
        rng = random.Random(f"{codes}-{q}")
        for probe_side, probe_index in (("left", 0), ("right", 1)):
            candidates = _probe_major_candidates(rng, len(collection), duplicates, probe_index)
            for threshold in (0.0, 0.5):
                UnifiedVerifier(config, threshold).verify_batch(
                    candidates, prepared, prepared, probe_side=probe_side
                )
        loose = vertices = 0
        for graph in graphs:
            left_side, right_side = graph.left_side, graph.right_side
            expected, adjacency = _reference_assemble(left_side, right_side, config)
            assert [
                (vertex.left, vertex.right, vertex.weight) for vertex in graph.vertices
            ] == expected
            assert [graph.neighbors(index) for index in range(len(graph))] == adjacency
            vertices += len(graph)
            bound = PairUpperBound(left_side, right_side, config).matrix
            for i, left in enumerate(left_side.segments):
                for j, right in enumerate(right_side.segments):
                    assert graph.table[i][j] == config.msim(left.tokens, right.tokens)
                    loose += bound[i][j] > graph.table[i][j]
        assert vertices > 0
        if codes == "S":
            # A multi-token rule side against itself: its closeness map
            # bounds the synonym part at its rules' closeness, but no rule
            # maps the segment to itself, so the weight is 0.
            assert loose > 0


class TestNoMsimOnVerificationPath:
    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_verify_batch_never_calls_msim(self, engine_dataset, codes, monkeypatch):
        config = _config(engine_dataset, codes)
        collection = _near_duplicate_collection(engine_dataset)
        prepared = PreparedCollection.prepare(collection, config)
        candidates = [
            (i, j) for i in range(len(collection)) for j in range(i + 1, len(collection))
        ]
        thresholds = (0.0, 0.5, 0.8)
        expected = {
            threshold: _reference_results(
                config, threshold, candidates, collection, collection
            )
            for threshold in thresholds
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("msim called on the verification path")

        monkeypatch.setattr(MeasureConfig, "msim", forbidden)
        built = {}
        for threshold in thresholds:
            verifier = UnifiedVerifier(config, threshold)
            got = verifier.verify_batch(candidates, prepared, prepared)
            assert _as_triples(got) == expected[threshold]
            built[threshold] = verifier.stats.graphs_built
        # θ = 0 runs no bound, so each graph builds its matrix itself;
        # above it, a graph takes the matrix of a scalar stage 1 or builds
        # its own after the kernel (the synonym measure alone scores these
        # pairs too low to reach θ = 0.5).
        assert built[0.0] == len(candidates)
        assert built[0.5] > 0 or codes == "S"
