"""The telemetry layer: spans, metrics, worker merge, reports, overhead.

Covers the contracts the observability PR ships with: span nesting and
exception capture through the thread-local active stack, exact histogram
percentiles on on-bound inputs, the worker→parent span round-trip under
the process executor (including supervisor retries materializing as
error-flagged sibling attempt spans), fault stamps riding back in the
merged tree, report schema stability across render/read round-trips, and
a generous overhead smoke (the strict <2% bar lives in
``benchmarks/bench_parallel_scaling.py``).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.faults import FAULTS, FaultRule
from repro.join import PebbleJoin, SupervisorPolicy, UnifiedJoin
from repro.telemetry import (
    DEFAULT_ROOT_LIMIT,
    PAYLOAD_VERSION,
    Histogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
    current_span,
    get_default,
    read_report,
    render_json,
    render_text,
    stamp_event,
    write_trace_jsonl,
)
from repro.telemetry.spans import reset_stack

THETA = 0.35
TAU = 2


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TINY_PROFILE, seed=23)


@pytest.fixture(scope="module")
def config(dataset):
    return MeasureConfig.from_codes(
        "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


@pytest.fixture(scope="module")
def collection(dataset):
    return dataset.records.head(48)


@pytest.fixture(scope="module")
def serial_triples(config, collection):
    result = PebbleJoin(config, THETA, tau=TAU).join(collection)
    return _triples(result)


def _triples(result):
    return [(p.left_id, p.right_id, p.similarity) for p in result.pairs]


class TestSpans:
    def test_nesting_builds_one_tree(self):
        tracer = Tracer()
        with tracer.span("join", method="au-dp"):
            with tracer.span("filter") as filter_span:
                filter_span.annotate(candidates=3)
            with tracer.span("verify"):
                pass
        assert [root.name for root in tracer.roots] == ["join"]
        join = tracer.roots[0]
        assert [child.name for child in join.children] == ["filter", "verify"]
        assert join.attrs["method"] == "au-dp"
        assert join.children[0].attrs["candidates"] == 3
        assert join.wall_seconds >= join.children[0].wall_seconds
        assert current_span() is None

    def test_exception_marks_error_and_closes_the_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.error and outer.error
        assert inner.attrs["error_type"] == "ValueError"
        assert current_span() is None

    def test_stamp_event_targets_the_innermost_open_span(self):
        tracer = Tracer()
        assert stamp_event("orphan") is False  # no open span: dropped
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert stamp_event("fault-injected", kind="worker_kill")
        inner = tracer.roots[0].children[0]
        assert inner.events == [
            {"name": "fault-injected", "attrs": {"kind": "worker_kill"}}
        ]
        assert tracer.roots[0].events == []

    def test_payload_round_trip_and_adopt_under_open_parent(self):
        worker = Tracer()
        with worker.span("shard", shard=0):
            with worker.span("filter"):
                pass
        payloads = worker.export()

        parent = Tracer()
        with parent.span("pooled-stage"):
            adopted = parent.adopt(payloads, attempt=1)
        stage = parent.roots[0]
        assert [child.name for child in stage.children] == ["shard"]
        assert stage.children[0].attrs == {"shard": 0, "attempt": 1}
        assert adopted[0].children[0].name == "filter"

    def test_disabled_tracer_is_stateless(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything", a=1) as span:
            span.annotate(b=2).add_event("x")
        assert tracer.roots == []
        assert tracer.export() == []
        assert tracer.adopt([{"name": "shard"}]) == []

    def test_reset_stack_detaches_inherited_open_spans(self):
        # Forked workers inherit the parent's open spans through the
        # copied thread-local; reset_stack is their entry-point antidote.
        tracer = Tracer()
        inherited = tracer.span("parent").start()
        reset_stack()
        worker = Tracer()
        with worker.span("shard"):
            pass
        assert [root.name for root in worker.roots] == ["shard"]
        assert inherited.children == []
        inherited.end()


class TestMetrics:
    def test_histogram_percentiles_exact_on_bound_inputs(self):
        histogram = Histogram("t", bounds=(1.0, 2.0, 5.0, 10.0))
        for value in (1.0, 1.0, 2.0, 5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0):
            histogram.observe(value)
        assert histogram.count == 10
        assert histogram.percentile(0.20) == 1.0
        assert histogram.percentile(0.50) == 5.0
        assert histogram.percentile(0.90) == 10.0
        assert histogram.percentile(0.99) == 10.0
        assert histogram.mean == pytest.approx(5.9)
        assert histogram.minimum == 1.0 and histogram.maximum == 10.0

    def test_histogram_overflow_reports_observed_max(self):
        histogram = Histogram("t", bounds=(1.0,))
        histogram.observe(50.0)
        assert histogram.counts[-1] == 1
        assert histogram.percentile(0.99) == 50.0

    def test_empty_histogram_percentile_is_zero(self):
        assert Histogram("t", bounds=(1.0,)).percentile(0.5) == 0.0

    def test_registry_get_or_create_and_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x").add(2)
        assert registry.counter("x").value == 2  # same instrument back
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.counter("x").add(-1)
        assert "x" in registry and len(registry) == 1

    def test_merge_snapshot_sums_counters_and_buckets(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("n").add(1)
        right.counter("n").add(2)
        left.histogram("h", bounds=(1.0, 2.0)).observe(1.0)
        right.histogram("h", bounds=(1.0, 2.0)).observe(2.0)
        right.gauge("g").set(7)
        left.merge_snapshot(right.snapshot())
        merged = left.snapshot()
        assert merged["counters"]["n"] == 3
        assert merged["gauges"]["g"] == 7.0
        histogram = merged["histograms"]["h"]
        assert histogram["count"] == 2
        assert histogram["min"] == 1.0 and histogram["max"] == 2.0

    def test_merge_snapshot_rejects_mismatched_bounds(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", bounds=(1.0, 2.0)).observe(1.0)
        right.histogram("h", bounds=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ValueError, match="bounds differ"):
            left.merge_snapshot(right.snapshot())


class TestRecommendSpan:
    def test_auto_tau_join_reports_the_recommendation_as_a_span(self, dataset):
        telemetry = Telemetry()
        join = UnifiedJoin(
            rules=dataset.rules,
            taxonomy=dataset.taxonomy,
            theta=0.7,
            tau="auto",
            tau_universe=(1, 2, 3),
            sample_probability=0.5,
            recommendation_seed=3,
            telemetry=telemetry,
        )
        result = join.join(dataset.records.head(24))
        assert [root.name for root in telemetry.tracer.roots] == ["recommend", "join"]
        recommend = telemetry.tracer.roots[0]
        recommendation = join.last_recommendation
        assert recommend.attrs == {
            "best_tau": recommendation.best_tau,
            "iterations": recommendation.iterations,
            "signing_tau": recommendation.signing_tau,
        }
        # Span-sourced, like every other stage time.
        assert result.statistics.suggestion_seconds == recommend.wall_seconds
        assert result.statistics.tau == recommendation.best_tau


class TestProcessMerge:
    def test_worker_spans_merge_into_one_parent_tree(
        self, config, collection, serial_triples
    ):
        telemetry = Telemetry()
        engine = PebbleJoin(config, THETA, tau=TAU, telemetry=telemetry)
        result = engine.join(collection, executor="process", workers=2)
        assert _triples(result) == serial_triples

        assert [root.name for root in telemetry.tracer.roots] == ["join"]
        spans = list(telemetry.tracer.iter_spans())
        names = {span.name for span in spans}
        assert {"join", "pooled-stage", "shard", "filter", "verify"} <= names
        shards = [span for span in spans if span.name == "shard"]
        assert shards, "no worker shard spans came back"
        for shard in shards:
            assert "pid" in shard.attrs and shard.attrs["attempt"] == 0
            assert [child.name for child in shard.children] == [
                "filter",
                "verify",
            ]
            assert "candidates" in shard.children[0].attrs
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["join.calls"] == 1
        assert counters["supervisor.shards"] == len(shards)

    def test_disabled_bundle_records_nothing_and_stays_identical(
        self, config, collection, serial_triples
    ):
        telemetry = Telemetry(enabled=False)
        engine = PebbleJoin(config, THETA, tau=TAU, telemetry=telemetry)
        result = engine.join(collection, executor="process", workers=2)
        assert _triples(result) == serial_triples
        assert telemetry.tracer.roots == []


class TestSpanSourcedTimings:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_join_stage_seconds_are_span_walls(
        self, config, collection, serial_triples, executor
    ):
        telemetry = Telemetry()
        engine = PebbleJoin(config, THETA, tau=TAU, telemetry=telemetry)
        kwargs = {"executor": "process", "workers": 2} if executor == "process" else {}
        result = engine.join(collection, **kwargs)
        assert _triples(result) == serial_triples
        (join,) = telemetry.tracer.roots
        stages = {child.name: child.wall_seconds for child in join.children}
        statistics = result.statistics
        assert statistics.signing_seconds == stages["prepare"] + stages["sign"]
        if executor == "serial":
            assert list(stages) == ["prepare", "sign", "filter", "verify"]
            assert statistics.filtering_seconds == stages["filter"]
            assert statistics.verification_seconds == stages["verify"]
        else:
            # The pooled stage spans the whole supervised run, pool
            # shutdown included, and its wall is split between the stages.
            assert list(stages) == ["prepare", "sign", "pooled-stage"]
            assert statistics.filtering_seconds + statistics.verification_seconds == (
                pytest.approx(stages["pooled-stage"], rel=1e-12)
            )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_join_batches_emit_filter_and_verify_per_batch(
        self, config, collection, executor
    ):
        telemetry = Telemetry()
        engine = PebbleJoin(config, THETA, tau=TAU, telemetry=telemetry)
        kwargs = {"executor": "process", "workers": 2} if executor == "process" else {}
        batches = list(engine.join_batches(collection, batch_size=10, **kwargs))
        assert len(batches) > 1
        names = [span.name for span in telemetry.tracer.iter_spans()]
        assert names.count("filter") == len(batches)
        assert names.count("verify") == len(batches)


class TestTierSpans:
    """Each verification tier has its span under ``verify``: ``verify.maxima``
    once per probe group, the others once per candidate reaching them."""

    TIERS = {"verify.maxima", "verify.matching", "verify.algorithm1"}

    def _tier_counts(self, telemetry):
        counts = {name: 0 for name in self.TIERS}
        for span in telemetry.tracer.iter_spans():
            if span.name in self.TIERS:
                counts[span.name] += 1
            if span.name == "verify":
                assert {child.name for child in span.children} <= self.TIERS
        return counts

    def test_serial_join_traces_each_tier(self, config, collection):
        telemetry = Telemetry()
        engine = PebbleJoin(config, THETA, tau=TAU, telemetry=telemetry)
        prepared = engine.prepare(collection)
        result = engine.join(prepared)
        signed = prepared.signed(
            prepared.build_order(engine.order_strategy), THETA, TAU, engine.method
        )
        outcome = engine.filter_candidates(
            signed, signed, exclude_self_pairs=True, prepared=(prepared, prepared)
        )
        probe = 0 if outcome.probe_side == "left" else 1
        groups = sum(
            1
            for position, pair in enumerate(outcome.candidates)
            if position == 0 or outcome.candidates[position - 1][probe] != pair[probe]
        )
        stats = result.statistics.verification
        counts = self._tier_counts(telemetry)
        assert groups > 1 and stats.graphs_built > 0
        assert counts["verify.maxima"] == groups
        assert counts["verify.algorithm1"] == stats.graphs_built
        # Every built graph passed the matching bound first.
        assert counts["verify.matching"] >= stats.graphs_built

    def test_topk_read_traces_each_tier(self, config, collection):
        from repro.search import SimilarityIndex

        telemetry = Telemetry()
        index = SimilarityIndex(
            collection, config, theta=THETA, tau=TAU, telemetry=telemetry
        )
        telemetry.clear()
        result = index.query_topk(collection[5].text, 2)
        (root,) = telemetry.tracer.roots
        assert root.name == "query-topk"
        assert [child.name for child in root.children] == ["filter", "verify"]
        counts = self._tier_counts(telemetry)
        evaluated = result.candidate_count - result.bound_skipped
        assert evaluated > 0 and result.verification.graphs_built > 0
        # One group for the whole read, then one per verified candidate.
        assert counts["verify.maxima"] == 1 + evaluated
        assert counts["verify.algorithm1"] == result.verification.graphs_built
        # Every verified candidate had its matching bound refined first.
        assert counts["verify.matching"] >= evaluated

    def test_member_read_opens_its_root(self, config, collection):
        from repro.search import SimilarityIndex

        telemetry = Telemetry()
        index = SimilarityIndex(
            collection, config, theta=THETA, tau=TAU, telemetry=telemetry
        )
        telemetry.clear()
        result = index.query_member(5)
        (root,) = telemetry.tracer.roots
        assert root.name == "query-member"
        assert [child.name for child in root.children] == ["filter", "verify"]
        counts = self._tier_counts(telemetry)
        assert counts["verify.algorithm1"] == result.verification.graphs_built


@pytest.mark.chaos
class TestChaosTelemetry:
    def test_worker_kill_produces_failed_attempt_sibling_spans(
        self, config, collection, serial_triples
    ):
        telemetry = Telemetry()
        engine = PebbleJoin(config, THETA, tau=TAU, telemetry=telemetry)
        with FAULTS.injected(FaultRule("worker_kill", shard=0)):
            result = engine.join(
                collection,
                executor="process",
                workers=2,
                supervision=SupervisorPolicy(backoff_base=0.0),
            )
        assert _triples(result) == serial_triples
        report = result.statistics.execution
        assert report.worker_failures >= 1 and report.retries >= 1

        spans = list(telemetry.tracer.iter_spans())
        failed = [span for span in spans if span.name == "shard-attempt-failed"]
        assert len(failed) == report.retries
        assert all(span.error for span in failed)
        # Failures sit as siblings next to the attempt that succeeded,
        # inside the same pooled stage of the same merged tree.
        stages = [span for span in spans if span.name == "pooled-stage"]
        child_names = {
            child.name for stage in stages for child in stage.children
        }
        assert {"shard", "shard-attempt-failed"} <= child_names
        retried = [
            span
            for span in spans
            if span.name == "shard" and span.attrs.get("attempt", 0) >= 1
        ]
        assert retried, "no successful retry attempt made it into the trace"
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["supervisor.worker_failures"] == report.worker_failures
        assert counters["supervisor.retries"] == report.retries

    def test_fault_stamp_rides_back_in_the_merged_tree(
        self, config, collection, serial_triples
    ):
        # A delayed worker survives, so its fault stamp ships back with its
        # span tree (a killed worker's stamp dies with it — the parent
        # synthesizes the failure instead, covered above).
        telemetry = Telemetry()
        engine = PebbleJoin(config, THETA, tau=TAU, telemetry=telemetry)
        with FAULTS.injected(
            FaultRule("shard_delay", shard=0, seconds=0.05)
        ):
            result = engine.join(
                collection,
                executor="process",
                workers=2,
                supervision=SupervisorPolicy(backoff_base=0.0),
            )
        assert _triples(result) == serial_triples
        events = [
            event
            for span in telemetry.tracer.iter_spans()
            for event in span.events
        ]
        assert any(
            event["name"] == "fault-injected"
            and event["attrs"].get("kind") == "shard_delay"
            for event in events
        ), events
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters.get("faults.injected", 0) >= 1


class TestDefaultRetention:
    def test_default_bundle_keeps_only_the_newest_roots(self, config, dataset):
        """Nothing clears the process-wide default, so it keeps its newest
        DEFAULT_ROOT_LIMIT root trees: a long-lived service reading through
        it must not grow without bound."""
        from repro.search import SimilarityIndex

        default = get_default()
        default.tracer.clear()
        index = SimilarityIndex(dataset.records.head(12), config, theta=THETA, tau=TAU)
        probe = dataset.records[20].text
        try:
            for _ in range(DEFAULT_ROOT_LIMIT + 10):
                index.query(probe)
            roots = default.tracer.roots
            assert len(roots) == DEFAULT_ROOT_LIMIT
            assert {root.name for root in roots} == {"query"}
            for call in range(10):
                with default.span("call", n=call):
                    pass
            assert len(roots) == DEFAULT_ROOT_LIMIT
            assert [root.attrs.get("n") for root in list(roots)[-10:]] == list(range(10))
            assert roots[0].name == "query"
        finally:
            default.tracer.clear()
        # The clear empties the same bounded container in place.
        assert default.tracer.roots is roots and len(roots) == 0

    def test_constructed_bundles_keep_every_root(self):
        telemetry = Telemetry()
        for call in range(DEFAULT_ROOT_LIMIT + 10):
            with telemetry.span("call", n=call):
                pass
        roots = telemetry.tracer.roots
        assert len(roots) == DEFAULT_ROOT_LIMIT + 10
        assert roots[0].attrs["n"] == 0


class TestReport:
    def _bundle(self) -> Telemetry:
        telemetry = Telemetry()
        with telemetry.span("join", theta=0.5):
            with telemetry.span("filter"):
                stamp_event("cache", hit=True)
        telemetry.metrics.counter("join.calls").add()
        telemetry.metrics.gauge("staleness").set(0.25)
        telemetry.metrics.histogram("t", bounds=(1.0, 2.0)).observe(1.0)
        return telemetry

    def test_report_schema_is_stable(self):
        report = self._bundle().report()
        assert set(report) == {"version", "trace", "metrics"}
        assert report["version"] == PAYLOAD_VERSION
        assert json.loads(render_json(report)) == report
        span = report["trace"][0]
        assert set(span) == {
            "name",
            "wall_seconds",
            "cpu_seconds",
            "error",
            "attrs",
            "events",
            "children",
        }
        metrics = report["metrics"]
        assert set(metrics) == {"counters", "gauges", "histograms"}
        assert set(metrics["histograms"]["t"]) == {
            "count",
            "sum",
            "min",
            "max",
            "mean",
            "p50",
            "p90",
            "p99",
            "bounds",
            "counts",
        }

    def test_jsonl_round_trip_preserves_the_report(self, tmp_path):
        report = self._bundle().report()
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, report)
        assert read_report(path) == report

    def test_read_report_rejects_non_reports(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="not a telemetry report"):
            read_report(path)

    def test_render_text_shows_tree_error_and_events(self):
        telemetry = self._bundle()
        with pytest.raises(RuntimeError):
            with telemetry.span("broken"):
                raise RuntimeError("boom")
        text = render_text(telemetry.report())
        assert "- join" in text and "  - filter" in text  # indentation
        assert "* cache" in text
        assert "!ERROR" in text
        assert "join.calls = 1" in text


class TestOverhead:
    def test_default_on_overhead_smoke(self, config, collection):
        """Interleaved best-of-3 serial joins, enabled vs disabled bundle.

        This is a smoke bound only (absolute 20ms or 25% — far above any
        real cost) so CI noise cannot flake it; the strict <2% assertion
        runs with the parallel-scaling benchmark where rounds are longer.
        """
        prepared = PebbleJoin(config, THETA, tau=TAU).prepare(collection)
        PebbleJoin(config, THETA, tau=TAU).join(prepared)  # warm caches
        timings = {"enabled": float("inf"), "disabled": float("inf")}
        for _ in range(3):
            for label, flag in (("enabled", True), ("disabled", False)):
                engine = PebbleJoin(
                    config, THETA, tau=TAU, telemetry=Telemetry(enabled=flag)
                )
                start = time.perf_counter()
                engine.join(prepared)
                elapsed = time.perf_counter() - start
                timings[label] = min(timings[label], elapsed)
        overhead = timings["enabled"] - timings["disabled"]
        assert (
            overhead <= 0.02
            or overhead / max(timings["disabled"], 1e-12) <= 0.25
        ), timings
