"""Tier-1 smoke runs of the benchmark harnesses at tiny sizes.

The full-scale figure reproductions live under ``benchmarks/`` and only run
with pytest-benchmark; these smoke tests import the same ``run_*`` drivers
and execute them on a small synthetic corpus so regressions in the harness
code surface in the regular test suite.  Deselect with ``-m "not
benchmarks"``.
"""

import sys
from pathlib import Path

import pytest

from repro.datasets import MED_PROFILE, generate_dataset
from repro.join.signatures import SignatureMethod

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))

import bench_fig4_join_time  # noqa: E402
import bench_fig7_scalability  # noqa: E402
import bench_parallel_scaling  # noqa: E402
import bench_search_latency  # noqa: E402
import bench_store_reuse  # noqa: E402
import bench_table10_breakdown  # noqa: E402

pytestmark = pytest.mark.benchmarks


@pytest.fixture(scope="module")
def smoke_dataset():
    """A miniature MED-like corpus (same generator as the benchmark suite)."""
    return generate_dataset(MED_PROFILE, count=80, seed=42)


def test_fig4_harness_smoke(smoke_dataset):
    results = bench_fig4_join_time.run_fig4(
        smoke_dataset, side=20, thetas=(0.85,), tau=2
    )
    for method in SignatureMethod.ALL:
        assert 0.85 in results[method]
    # All filters must verify the same result set.
    reference = results[SignatureMethod.U_FILTER][0.85].pair_ids()
    assert results[SignatureMethod.AU_DP][0.85].pair_ids() == reference
    assert results[SignatureMethod.AU_HEURISTIC][0.85].pair_ids() == reference


def test_fig4_selfjoin_filter_harness_smoke(smoke_dataset):
    outcome = bench_fig4_join_time.run_selfjoin_filter_comparison(
        smoke_dataset, side=40, theta=0.85, tau=2, repeats=1
    )
    # At smoke scale only the equivalence contract is asserted; the ≥2x
    # speedup assertion runs at full size in benchmarks/.
    assert outcome["candidates_match"]
    assert outcome["processed_match"]
    assert outcome["candidates"] > 0


def test_verification_breakdown_harness_smoke(smoke_dataset, tmp_path):
    out_path = tmp_path / "BENCH_verification.json"
    suite = bench_table10_breakdown.run_verification_breakdown_suite(
        smoke_dataset, side=40, thetas=(0.85, 0.7), tau=2, out_path=out_path
    )
    assert len(suite["runs"]) == 2
    for outcome in suite["runs"]:
        # The engine must be a pure optimization at any scale; the ≥2x
        # speedup assertion runs at full size in benchmarks/.
        assert outcome["results_match"]
        assert outcome["candidates"] > 0
        # Every candidate is either pruned by the bound or graph-verified.
        rates = outcome["bound_hit_rates"]
        assert abs(rates["upper_bound_prunes"] + rates["graphs_built"] - 1.0) < 1e-9
    import json

    recorded = json.loads(out_path.read_text())
    assert [run["candidates"] for run in recorded["runs"]] == [
        run["candidates"] for run in suite["runs"]
    ]
    assert set(recorded["runs"][0]["bound_hit_rates"]) == {
        "upper_bound_prunes",
        "graphs_built",
        "ceiling_stops",
        "full_runs",
    }


def test_parallel_scaling_harness_smoke(smoke_dataset, tmp_path):
    out_path = tmp_path / "BENCH_parallel.json"
    payload = bench_parallel_scaling.run_parallel_scaling(
        smoke_dataset,
        side=40,
        worker_counts=(1, 2),
        kernel_records=60,
        out_path=out_path,
    )
    # At smoke scale only the equivalence contract is asserted; the ≥2x
    # speedup bar runs at full size in benchmarks/ (and needs real cores).
    assert payload["candidates"] > 0
    assert {run["executor"] for run in payload["runs"]} == {
        "process",
        "process-warm",
    }
    assert all(run["results_match"] for run in payload["runs"])
    # The payload block records the one plan shape and its segment.
    sizes = payload["payload"]
    assert set(sizes) == {"flat_bytes", "shm_segment_bytes"}
    assert sizes["flat_bytes"] > 0
    assert sizes["shm_segment_bytes"] > 0
    import json

    recorded = json.loads(out_path.read_text())
    assert recorded["cpu_count"] >= 1
    assert [run["workers"] for run in recorded["runs"]] == [1, 2] * 2
    # The fault-tolerance blocks: the supervised no-fault run stayed
    # bit-identical (asserted inside the harness) and the injected
    # worker-kill run recovered to the same answer with ≥1 respawn.
    assert recorded["supervision"]["supervised_seconds"] > 0.0
    assert recorded["supervision"]["unsupervised_seconds"] > 0.0
    assert recorded["recovery"]["results_match"]
    assert recorded["recovery"]["respawns"] >= 1
    assert recorded["recovery"]["respawn_seconds"] >= 0.0
    # The filter-kernel block: equivalence is unconditional at any scale
    # (the ≥3x numpy speedup bar runs at full size in benchmarks/, where
    # the corpus is big enough to amortize per-probe dispatch overhead).
    for comparison in recorded["filter_kernel"].values():
        assert comparison["kernels"]["python"]["candidates"] > 0
        assert all(
            row["results_match"] for row in comparison["kernels"].values()
        )


def test_store_reuse_harness_smoke(smoke_dataset, tmp_path):
    out_path = tmp_path / "BENCH_store.json"
    payload = bench_store_reuse.run_store_reuse(
        smoke_dataset, side=40, store_root=tmp_path / "store", out_path=out_path
    )
    assert payload["results_match"]
    assert payload["warm"]["store_hit"]
    # The warm run loaded its preparation and signed from the persisted
    # cache: its signing stage must be vanishing next to the cold one's.
    assert payload["warm"]["signing_seconds"] <= max(
        payload["cold"]["signing_seconds"] / 10, 1e-3
    )
    assert payload["artifact_bytes"] > 0
    import json

    recorded = json.loads(out_path.read_text())
    assert recorded["results"] == payload["results"]


def test_search_latency_harness_smoke(smoke_dataset, tmp_path):
    out_path = tmp_path / "BENCH_search.json"
    payload = bench_search_latency.run_search_latency(
        smoke_dataset,
        side=40,
        probes=8,
        per_request_probes=2,
        store_root=tmp_path / "store",
        out_path=out_path,
    )
    # Identity is the unconditional contract; the ≥10x serving bar and the
    # warm<cold build comparison are asserted at full size in benchmarks/.
    # At smoke scale both builds are tens of milliseconds, where scheduler
    # noise under a concurrently running suite can flip a strict wall-clock
    # comparison — so only a generous ratio is checked here.
    assert payload["results_match"]
    assert payload["speedup_vs_per_request_join"] > 1.0
    assert payload["build"]["warm_from_store_seconds"] < max(
        payload["build"]["cold_seconds"] * 2, 0.05
    )
    import json

    recorded = json.loads(out_path.read_text())
    assert recorded["query"]["samples"] == 8
    assert recorded["query_topk"]["k"] == bench_search_latency.TOPK
    # Corpus-document probes guarantee a full heap, so the bound-based
    # early stop must prune even at smoke scale.
    assert recorded["query_topk"]["bound_skipped_total"] > 0


def test_fig7_harness_smoke(smoke_dataset):
    results = bench_fig7_scalability.run_fig7(
        smoke_dataset, sizes=(10, 20), theta=0.9, tau=2
    )
    for method in SignatureMethod.ALL:
        assert set(results[method]) == {10, 20}


def test_fig7_batched_harness_smoke(smoke_dataset):
    outcome = bench_fig7_scalability.run_batched_consistency(
        smoke_dataset, size=20, tau=2, batch_size=4
    )
    assert outcome["matches"]
    assert outcome["batches"] > 1
