"""Path equivalence, pickling, and worker/stats regression tests.

The multi-core driver's contract is strict: for any join configuration,
every remaining execution path must return pairs, similarity values, and
statistics counters bit-identical to the serial join at every worker count.
:class:`TestPathTable` enforces that over one seeded table with one row per
path — a deleted path is a deleted row — next to the pickle round-trips the
process path relies on and the regression tests of earlier fixes
(suggestion-seconds threading, config equality, pool-size validation).
"""

from __future__ import annotations

import pickle
import random
from unittest import mock

import pytest

from repro.core.graph import GraphSide
from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin, UnifiedJoin, parallel, verification
from repro.join.aufilter import _resolve_executor
from repro.join.pool import WarmJoinPool
from repro.join.verification import UnifiedVerifier
from repro.store import PreparedStore

THETA = 0.55
TAU = 2

#: Seed of the path table's per-row join configurations.
PATH_SEED = 29


@pytest.fixture(scope="module")
def parallel_dataset():
    """A small synthetic corpus with synonym rules and a taxonomy."""
    return generate_dataset(TINY_PROFILE, seed=47)


def _config(dataset, codes: str) -> MeasureConfig:
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


def _triples(pairs):
    return [(pair.left_id, pair.right_id, pair.similarity) for pair in pairs]


def _counters(stats):
    return {name: getattr(stats, name) for name in stats._COUNTERS}


def _run(config, collection, right=None, **join_kwargs):
    engine = PebbleJoin(config, THETA, tau=TAU)
    result = engine.join(collection, right, **join_kwargs)
    return result, engine


# --------------------------------------------------------------------- #
# the path table: every remaining process path against the serial join
# --------------------------------------------------------------------- #
class _Case:
    """One seeded join configuration, handed to both sides of a row."""

    def __init__(self, dataset, codes: str, index: int, tmp_path) -> None:
        rng = random.Random(PATH_SEED + index)
        self.codes = codes
        self.config = _config(dataset, self.codes)
        self.theta = rng.choice((0.3, 0.4, 0.5))
        self.tau = rng.choice((1, 2))
        self.collection = dataset.records.head(rng.randrange(28, 40))
        self.tmp_path = tmp_path

    def engine(self) -> PebbleJoin:
        return PebbleJoin(self.config, self.theta, tau=self.tau)

    def halves(self):
        half = len(self.collection) // 2
        return (
            self.collection.subset(range(0, half)),
            self.collection.subset(range(half, len(self.collection))),
        )

    def __repr__(self) -> str:
        return (
            f"_Case({self.codes}, theta={self.theta}, tau={self.tau}, "
            f"records={len(self.collection)})"
        )


def _observe(engine, result):
    """What a join path must reproduce: pairs, similarities, every counter."""
    stats = result.statistics
    return (
        _triples(result.pairs),
        _counters(stats.verification),
        stats.candidate_count,
        stats.processed_pairs,
        # The engine's verifier mirrors the serial accumulation contract.
        engine.verifier.verified_count,
    )


def _candidate_total(observation) -> int:
    """Candidates in a join observation or in a stream of batch ones."""
    if isinstance(observation, list):
        return sum(batch[3] for batch in observation)
    return observation[2]


def _join(case, *args, **kwargs):
    engine = case.engine()
    return _observe(engine, engine.join(*args, **kwargs))


def _stream(case, *args, **kwargs):
    return [
        (
            batch.probe_range,
            _triples(batch.pairs),
            _counters(batch.verification),
            batch.candidate_count,
            batch.processed_pairs,
        )
        for batch in case.engine().join_batches(*args, batch_size=7, **kwargs)
    ]


def _warm_pool_join(case):
    with WarmJoinPool(workers=2) as pool:
        return _join(case, case.collection, executor="process", pool=pool)


def _store_warmed(case):
    store = PreparedStore(case.tmp_path / "store")
    prepared = store.prepare(case.collection, case.config)
    case.engine().join(prepared)  # warm the caches before persisting
    store.save(prepared)
    warmed = PreparedStore(case.tmp_path / "store").prepare(
        case.collection, case.config
    )
    return _join(case, warmed, executor="process", workers=2)


def _one_shot_warm(case):
    # A start method that cannot fork: the call opens (and closes) its own
    # warm pool, and the fork-inheritance manager must not be touched.
    with mock.patch.object(parallel, "_fork_start", return_value=False), mock.patch.object(
        parallel, "_ColdSessionManager", None
    ):
        return _join(case, case.collection, executor="process", workers=2)


#: row id -> (measure codes, serial reference, the path under test); both
#: callables return an observation, and the two must compare equal.  The
#: cheap fork rows carry the measures with few candidates on this corpus.
PATH_TABLE = {
    "process-fork-1w": (
        "J",
        lambda case: _join(case, case.collection),
        lambda case: _join(case, case.collection, executor="process", workers=1),
    ),
    "process-fork-3w": (
        "ST",
        lambda case: _join(case, case.collection),
        lambda case: _join(case, case.collection, executor="process", workers=3),
    ),
    "process-two-collection": (
        "T",
        lambda case: _join(case, *case.halves()),
        lambda case: _join(case, *case.halves(), executor="process", workers=2),
    ),
    "warm-pool": ("TJS", lambda case: _join(case, case.collection), _warm_pool_join),
    "process-batches": (
        "TJS",
        lambda case: _stream(case, case.collection),
        lambda case: _stream(case, case.collection, executor="process", workers=2),
    ),
    "store-warmed-process": (
        "T",
        lambda case: _join(case, case.collection),
        _store_warmed,
    ),
    "one-shot-warm": ("TJS", lambda case: _join(case, case.collection), _one_shot_warm),
}


class TestPathTable:
    @pytest.mark.parametrize("row", list(PATH_TABLE))
    def test_path_matches_serial(self, parallel_dataset, tmp_path, row):
        codes, serial, path = PATH_TABLE[row]
        case = _Case(parallel_dataset, codes, list(PATH_TABLE).index(row), tmp_path)
        expected = serial(case)
        # A reference without candidates would prove nothing about a path.
        assert _candidate_total(expected) > 0, case
        assert path(case) == expected, case


class TestExecutorEquivalence:
    @pytest.mark.parametrize("codes", ("J", "S", "T", "TJS"))
    def test_self_join_identical_across_executors(self, parallel_dataset, codes):
        """Every measure configuration, not only the table's one per row."""
        config = _config(parallel_dataset, codes)
        collection = parallel_dataset.records.head(40)
        reference, serial_engine = _run(config, collection)
        expected = _observe(serial_engine, reference)
        for workers in (1, 3):
            result, engine = _run(config, collection, executor="process", workers=workers)
            assert _observe(engine, result) == expected, workers
            assert engine.verifier.verified_count == result.statistics.candidate_count

    def test_shard_size_does_not_change_results(self, parallel_dataset):
        """Merging is lossless at any shard granularity: one-record shards
        and one shard over the whole probe side concatenate to the serial
        join's pairs and sum to its counters."""
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(36)
        reference, _ = _run(config, collection)
        for batch_size in (1, len(collection)):
            engine = PebbleJoin(config, THETA, tau=TAU)
            pairs, totals = [], {}
            for batch in engine.join_batches(
                collection, executor="process", workers=2, batch_size=batch_size
            ):
                pairs.extend(batch.pairs)
                for name, value in _counters(batch.verification).items():
                    totals[name] = totals.get(name, 0) + value
            assert _triples(pairs) == _triples(reference.pairs), batch_size
            assert totals == _counters(reference.statistics.verification), batch_size

    def test_unified_join_executor_passthrough(self, parallel_dataset):
        kwargs = dict(
            rules=parallel_dataset.rules,
            taxonomy=parallel_dataset.taxonomy,
            theta=THETA,
            tau=TAU,
        )
        collection = parallel_dataset.records.head(30)
        serial = UnifiedJoin(**kwargs).join(collection)
        pooled = UnifiedJoin(**kwargs).join(
            collection, executor="process", workers=2
        )
        assert _triples(pooled.pairs) == _triples(serial.pairs)

    def test_executor_knob_validation(self, parallel_dataset):
        config = _config(parallel_dataset, "J")
        collection = parallel_dataset.records.head(6)
        engine = PebbleJoin(config, THETA, tau=1)
        with pytest.raises(ValueError):
            engine.join(collection, executor="gpu")
        with pytest.raises(ValueError, match="executor"):
            engine.join(collection, executor="thread", workers=2)
        with pytest.raises(ValueError):
            engine.join(collection, workers=2)  # workers need an executor
        with pytest.raises(ValueError):
            engine.join(collection, executor="serial", workers=2)
        with pytest.raises(ValueError):
            engine.join(collection, executor="process", workers=0)
        assert _resolve_executor(None, None) == "serial"
        assert _resolve_executor("process", None) == "process"

    def test_non_integer_pool_sizes_start_no_pool(self, parallel_dataset):
        """A fractional, bool or NaN ``workers`` or ``batch_size`` raises
        before any work starts.  A process join used to start no pool for
        ``workers=2.5`` and quietly ran every shard in the parent."""
        from repro.search import SimilarityIndex

        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(30)
        engine = PebbleJoin(config, 0.7, tau=TAU)
        index = SimilarityIndex(collection, config, theta=0.7, tau=TAU)
        started = mock.Mock(side_effect=AssertionError("a process pool started"))
        with mock.patch.object(parallel, "ProcessPoolExecutor", started), mock.patch(
            "repro.join.pool.ProcessPoolExecutor", started
        ):
            for bad in (2.5, True, float("nan")):
                with pytest.raises(ValueError, match="workers"):
                    engine.join(collection, executor="process", workers=bad)
                with pytest.raises(ValueError, match="workers"):
                    engine.join_batches(collection, executor="process", workers=bad)
                with pytest.raises(ValueError, match="workers"):
                    index.query_batch([collection[0].text], executor="process", workers=bad)
                with pytest.raises(ValueError, match="workers"):
                    WarmJoinPool(bad)
                with pytest.raises(ValueError, match="batch_size"):
                    engine.join_batches(collection, batch_size=bad)
        started.assert_not_called()

    def test_warm_pool_size_sets_default_workers(self, parallel_dataset):
        """A caller's warm pool sizes the shards when ``workers`` is omitted,
        not the machine's CPU count."""
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(36)
        reference, _ = _run(config, collection)
        sized, _ = _run(config, collection, executor="process", workers=3)
        with mock.patch("os.cpu_count", return_value=1), WarmJoinPool(
            workers=3
        ) as pool:
            result, _ = _run(config, collection, executor="process", pool=pool)
        assert result.statistics.execution.shards == sized.statistics.execution.shards
        assert result.statistics.execution.shards > parallel.SHARDS_PER_WORKER
        assert _triples(result.pairs) == _triples(reference.pairs)


class TestEmptySides:
    @pytest.mark.parametrize("shape", ["self", "left-empty", "right-empty"])
    def test_empty_side_identical_across_executors(self, parallel_dataset, shape):
        """An empty side leaves nothing (or nothing to match) to shard."""
        config = _config(parallel_dataset, "TJS")
        records = parallel_dataset.records.head(12)
        empty = records.subset([])
        sides = {
            "self": (empty,),
            "left-empty": (empty, records),
            "right-empty": (records, empty),
        }[shape]
        observations = []
        for kwargs in ({}, {"executor": "process", "workers": 2}):
            engine = PebbleJoin(config, THETA, tau=TAU)
            joined = _observe(engine, engine.join(*sides, **kwargs))
            streamed = [
                (
                    batch.probe_range,
                    _triples(batch.pairs),
                    _counters(batch.verification),
                    batch.candidate_count,
                    batch.processed_pairs,
                )
                for batch in PebbleJoin(config, THETA, tau=TAU).join_batches(
                    *sides, batch_size=5, **kwargs
                )
            ]
            observations.append((joined, streamed))
        assert observations[0] == observations[1]


class TestCallerVerifierCounters:
    def test_process_runs_accumulate_on_the_engine_verifier(self, parallel_dataset):
        """A process join or stream leaves the engine's own verifier with
        the cumulative counters a serial run leaves there."""
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(30)
        observed = []
        for kwargs in ({}, {"executor": "process", "workers": 2}):
            engine = PebbleJoin(config, THETA, tau=TAU)
            engine.join(collection, **kwargs)
            list(engine.join_batches(collection, batch_size=7, **kwargs))
            stats = engine.verifier.stats
            observed.append((_counters(stats), engine.verifier.verified_count))
        assert observed[0][0]["candidates"] > 0
        assert observed[0] == observed[1]


class TestPickleRoundTrips:
    def test_prepared_collection_round_trip(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(12)
        engine = PebbleJoin(config, THETA, tau=TAU)
        prepared = engine.prepare(collection)
        order = prepared.build_order(engine.order_strategy)
        signed = prepared.signed(order, THETA, TAU, engine.method)
        prepared.graph_side(0)
        prepared.graph_side(3)

        # A partner with a shared (weakref-cached) order must not block pickling.
        partner = engine.prepare(parallel_dataset.records.head(6))
        prepared.shared_order_with(partner)

        clone = pickle.loads(pickle.dumps(prepared))
        assert len(clone) == len(prepared)
        assert clone.config == config
        # The signature cache survived and is re-keyed to the cloned order.
        cloned_order = clone.build_order(engine.order_strategy)
        resigned = clone.signed(cloned_order, THETA, TAU, engine.method)
        assert [r.signature_length for r in resigned] == [
            r.signature_length for r in signed
        ]
        assert clone.cached_signature_count == prepared.cached_signature_count
        # Cached verification sides shipped by value.
        assert clone.prepared_records[0].graph_side is not None
        # The clone joins identically to the original preparation.
        reference = PebbleJoin(config, THETA, tau=TAU).join(prepared)
        rejoined = PebbleJoin(config, THETA, tau=TAU).join(clone)
        assert _triples(rejoined.pairs) == _triples(reference.pairs)

    def test_graph_side_round_trip(self, parallel_dataset):
        from repro.core.graph import build_conflict_graph_from_sides, usim_upper_bound

        config = _config(parallel_dataset, "TJS")
        record = parallel_dataset.records[0]
        other = parallel_dataset.records[1]
        side = GraphSide(record.tokens, config)
        # Warm every cached property so the pickle carries derived state too.
        side.match_state, side.bound_state, side.overlap_sets, side.min_partition_size
        clone = pickle.loads(pickle.dumps(side))
        assert clone.tokens == side.tokens
        assert clone.segments == side.segments
        assert clone.min_partition_size == side.min_partition_size
        partner = GraphSide(other.tokens, config)
        graph = build_conflict_graph_from_sides(partner, clone, clone.config)
        reference = build_conflict_graph_from_sides(partner, side, config)
        assert [v.weight for v in graph.vertices] == [
            v.weight for v in reference.vertices
        ]
        assert usim_upper_bound(partner, clone, clone.config) == usim_upper_bound(
            partner, side, config
        )

    def test_measure_config_round_trip_equality(self, parallel_dataset):
        config = _config(parallel_dataset, "TJS")
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert hash(clone) == hash(config)
        # The msim memo is per-process and must not travel.
        config.msim(("coffee",), ("coffee",))
        reclone = pickle.loads(pickle.dumps(config))
        assert reclone._msim_cache == {}
        # Inequality still detected on real differences.
        assert clone != _config(parallel_dataset, "TJ")
        assert clone != MeasureConfig.from_codes(
            "TJS", rules=parallel_dataset.rules, taxonomy=parallel_dataset.taxonomy, q=4
        )

    def test_plan_ships_a_fresh_verifier(self, parallel_dataset):
        """A process plan carries a copy of the engine's verifier with zero
        counters, even after the engine has verified, and the copy survives
        pickling."""
        config = _config(parallel_dataset, "TJS")
        collection = parallel_dataset.records.head(20)
        engine = PebbleJoin(config, THETA, tau=TAU, approximation_t=3.0, kernel="python")
        engine.join(collection)
        assert engine.verifier.stats.candidates > 0
        plan = parallel.build_shard_plan(engine, collection)
        shipped = plan.verifier
        assert shipped is not engine.verifier
        assert shipped.stats == verification.VerificationStats()
        settings = ("config", "threshold", "t", "kernel")
        expected = tuple(getattr(engine.verifier, name) for name in settings)
        assert tuple(getattr(shipped, name) for name in settings) == expected
        clone = pickle.loads(pickle.dumps(plan)).verifier
        assert tuple(getattr(clone, name) for name in settings) == expected
        assert clone.stats == shipped.stats

    def test_worker_payload_trims_stale_signings(self, parallel_dataset):
        """Plans ship no signings, no pebbles, and no key text at all."""
        config = _config(parallel_dataset, "TJS")
        engine = PebbleJoin(config, THETA, tau=TAU)
        prepared = engine.prepare(parallel_dataset.records.head(12))
        order = prepared.build_order(engine.order_strategy)
        # A historical signing under another θ must not ride to workers.
        prepared.signed(order, 0.95, TAU, engine.method)
        prepared.signed(order, THETA, TAU, engine.method)

        plan = parallel.build_shard_plan(engine, prepared)
        assert plan.left_prep is plan.right_prep  # self-join identity kept
        assert plan.left_prep.cached_signature_count == 0
        assert all(r.pebbles is None for r in plan.left_prep.prepared_records)
        # A self-join ships its probe arrays only (postings re-derived).
        assert plan.flat.self_keys is not None
        assert prepared.cached_signature_count == 2  # caller untouched
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.left_prep is clone.right_prep
        assert clone.flat.vocab is None
        assert clone.probe_count == plan.probe_count == len(prepared)
        assert parallel.plan_payload_bytes(plan) == len(
            pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_signed_record_and_order_round_trip(self, parallel_dataset):
        config = _config(parallel_dataset, "J")
        engine = PebbleJoin(config, THETA, tau=1)
        prepared = engine.prepare(parallel_dataset.records.head(8))
        order = prepared.build_order(engine.order_strategy)
        signed = prepared.signed(order, THETA, 1, engine.method)
        order_clone, signed_clone = pickle.loads(pickle.dumps((order, signed)))
        assert len(order_clone) == len(order)
        assert [r.signature_length for r in signed_clone] == [
            r.signature_length for r in signed
        ]
        assert [tuple(p.key for p in r.signature) for r in signed_clone] == [
            tuple(p.key for p in r.signature) for r in signed
        ]

    def test_pebble_free_transfer_copy_guards(self, parallel_dataset):
        from repro.join.global_order import GlobalOrder

        config = _config(parallel_dataset, "TJS")
        engine = PebbleJoin(config, THETA, tau=TAU)
        prepared = engine.prepare(parallel_dataset.records.head(8))
        slim = prepared.transfer_copy()
        with pytest.raises(RuntimeError, match="pebble-free"):
            slim.signed(GlobalOrder(), THETA, TAU, engine.method)
        with pytest.raises(RuntimeError, match="pebble-free"):
            slim.build_order()
        # Verification state still works: graph sides build from segments.
        assert slim.graph_side(0) is not None
        assert len(slim) == len(prepared)


class TestSatelliteFixes:
    def test_equal_config_uses_prepared_sides(self, parallel_dataset):
        """Regression: an equal-but-distinct config must hit the cached sides."""
        config_a = _config(parallel_dataset, "TJS")
        config_b = _config(parallel_dataset, "TJS")
        assert config_a == config_b and config_a is not config_b
        collection = parallel_dataset.records.head(15)
        prepared = PebbleJoin(config_a, THETA).prepare(collection)
        verifier = UnifiedVerifier(config_b, 0.3)
        candidates = [(i, j) for i in range(10) for j in (i + 1, i + 2) if j < 15]
        pairs = verifier.verify_batch(candidates, prepared, prepared)
        # The prepared collection served its own sides: the prepared records
        # now hold the built sides.
        assert any(r.graph_side is not None for r in prepared.prepared_records)
        oracle = UnifiedVerifier(config_a, 0.3)
        verified = (oracle.verify(collection[i], collection[j]) for i, j in candidates)
        reference = [pair for pair in verified if pair is not None]
        assert _triples(pairs) == _triples(reference)

    def test_config_equality_tracks_knowledge_mutation(self):
        """The __eq__ memo must not return stale verdicts after a compared
        rule set or taxonomy is mutated."""
        from repro import SynonymRuleSet, Taxonomy

        rules_a = SynonymRuleSet.from_pairs([("coffee shop", "cafe")])
        rules_b = SynonymRuleSet.from_pairs([("coffee shop", "cafe")])
        tax_a, tax_b = Taxonomy("root"), Taxonomy("root")
        config_a = MeasureConfig.from_codes("TJS", rules=rules_a, taxonomy=tax_a)
        config_b = MeasureConfig.from_codes("TJS", rules=rules_b, taxonomy=tax_b)
        assert config_a == config_b  # memoised verdict
        rules_b.add_text_rule("cake", "gateau")
        assert config_a != config_b  # version stamp invalidated the memo
        rules_a.add_text_rule("cake", "gateau")
        assert config_a == config_b
        tax_b.add_node("food", tax_b.root)
        assert config_a != config_b
        tax_a.add_node("food", tax_a.root)
        assert config_a == config_b

    def test_suggestion_seconds_reported_in_batches(self, parallel_dataset):
        """Regression: tau='auto' streaming used to discard suggestion time."""
        join = UnifiedJoin(
            rules=parallel_dataset.rules,
            taxonomy=parallel_dataset.taxonomy,
            theta=THETA,
            tau="auto",
            recommendation_seed=3,
        )
        batches = list(join.join_batches(parallel_dataset.records.head(30), batch_size=8))
        assert len(batches) > 1
        assert batches[0].suggestion_seconds > 0.0
        assert all(batch.suggestion_seconds == 0.0 for batch in batches[1:])
        assert join.last_recommendation is not None
        # The one-shot API reports the same quantity through JoinStatistics.
        rejoin = UnifiedJoin(
            rules=parallel_dataset.rules,
            taxonomy=parallel_dataset.taxonomy,
            theta=THETA,
            tau="auto",
            recommendation_seed=3,
        ).join(parallel_dataset.records.head(30))
        assert rejoin.statistics.suggestion_seconds > 0.0
