"""Multi-core scaling of the sharded join driver (serial vs process).

``run_parallel_scaling`` joins one prepared corpus serially once, then
through the process executor at several worker counts, on one shared
preparation (signing is cache-backed, so each timed run is filter +
verify).  Every pooled run is checked for bit-identical pairs and
statistics counters against the serial reference before its time is
recorded, so the emitted numbers can never come from a diverged result.

The machine-readable summary is written to ``BENCH_parallel.json``.  It
always records ``cpu_count``: the process pool's speedup is physical
parallelism, so on a single-core container the expected process-pool result
is ~1x or below (IPC overhead with nothing to parallelize against), while
the ≥2x verification speedup at 4 workers materializes on machines with
≥ 4 cores.

The ``payload`` block measures the worker transfer itself: the pickled
bytes of the flat integer-encoded :class:`~repro.join.parallel.ShardPlan`
and the size of the shared-memory segment a warm pool receives it through.

Executor rows cover both transports: ``process`` (a per-call pool — fork
inheritance where available) and ``process-warm`` (a persistent
:class:`~repro.join.pool.WarmJoinPool` receiving the plan through its
shared-memory segment).  The warm pool is closed in a ``finally`` so a
failed run can never leak its executor or segment.

The ``filter_kernel`` block races the interchangeable probe kernels of
:mod:`repro.join.kernels` — the pure-Python reference loop against the
vectorized numpy kernel — on the bench corpus and on a much larger
synthetic corpus, with the numpy rows verified candidate- and
processed-identical to the python reference before their times count.
The ≥3x numpy bar is asserted on the large corpus, where per-posting
throughput dominates per-probe dispatch overhead.

The ``recovery`` block injects a deterministic worker kill
(:mod:`repro.faults`) and records what one full recovery of the
supervised executor actually costs — ``respawn_seconds``, retries,
fallback shards — next to proof that the recovered join still matched the
serial reference bit for bit.

The ``telemetry_overhead`` block prices the default-on telemetry layer:
the same process join best-of-N with a live
:class:`~repro.telemetry.Telemetry` bundle versus a disabled one, rounds
interleaved, bit-identity asserted before either time counts.  The recorded no-fault overhead is asserted to stay
within 2% (or scheduler noise) — the number ``docs/observability.md``
quotes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.measures import MeasureConfig
from repro.datasets import MED_PROFILE, generate_dataset
from repro.faults import FAULTS, FaultRule
from repro.join.aufilter import PebbleJoin
from repro.join.kernels import numpy_available
from repro.join.parallel import _export_plan_payload, build_shard_plan, plan_payload_bytes
from repro.join.pool import WarmJoinPool
from repro.join.signatures import SignatureMethod
from repro.join.supervision import SupervisorPolicy
from repro.telemetry import Telemetry

THETA = 0.7
TAU = 2
WORKER_COUNTS = (1, 2, 4)

#: Executor rows; the ≥2x bar is asserted for both on ≥4-core machines.
EXECUTORS = ("process", "process-warm")

#: Default output location: the repository root (the recorded numbers are
#: committed alongside the code they measure).
DEFAULT_PARALLEL_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _triples(pairs):
    return [(pair.left_id, pair.right_id, pair.similarity) for pair in pairs]


def _counters(stats):
    return {name: getattr(stats, name) for name in stats._COUNTERS}


def _telemetry_overhead(
    engine, prepared, reference_triples, *, workers=2, rounds=3
):
    """Best-of-N process join, default-on telemetry vs a disabled bundle.

    Each round times both labels back to back — so slow machine drift
    (thermal throttling, a background task winding down) hits both labels
    alike instead of biasing whichever block ran second — each run gets a
    fresh bundle so traces never accumulate across rounds, and
    both runs are verified bit-identical to serial before their time
    counts.  The recorded delta is what span bookkeeping and counter
    updates cost on the no-fault hot path — the price of leaving telemetry
    on by default.
    """
    labelled = (
        ("enabled", lambda: Telemetry()),
        ("disabled", lambda: Telemetry(enabled=False)),
    )
    timings = {label: float("inf") for label, _ in labelled}
    for _ in range(rounds):
        for label, bundle in labelled:
            start = time.perf_counter()
            result = engine(telemetry=bundle()).join(
                prepared, executor="process", workers=workers
            )
            seconds = time.perf_counter() - start
            assert _triples(result.pairs) == reference_triples
            timings[label] = min(timings[label], seconds)
    overhead = timings["enabled"] - timings["disabled"]
    return {
        "workers": workers,
        "rounds": rounds,
        "enabled_seconds": timings["enabled"],
        "disabled_seconds": timings["disabled"],
        "overhead_seconds": overhead,
        "overhead_fraction": overhead / max(timings["disabled"], 1e-12),
    }


def _filter_kernel_comparison(engine, prepared, *, rounds=3):
    """Time the filter stage alone, python vs numpy kernel, on one corpus.

    Signing is done once up front and the flat state is memoized on the
    preparation, so each timed round is the probe loop itself.  The python
    row is the reference: every other kernel's candidates and processed
    count must match it exactly before its time is recorded.
    """
    runner = engine()
    order = runner.build_order(prepared)
    signed = runner.sign_collection(prepared, order)
    kernels = ("python",) + (("numpy",) if numpy_available() else ())
    rows = {}
    reference = None
    for kernel in kernels:
        best = float("inf")
        outcome = None
        for _ in range(rounds):
            start = time.perf_counter()
            outcome = runner.filter_candidates(
                signed,
                signed,
                exclude_self_pairs=True,
                kernel=kernel,
                prepared=(prepared, prepared),
            )
            best = min(best, time.perf_counter() - start)
        answer = (outcome.candidates, outcome.processed_pairs)
        if reference is None:
            reference = answer
        rows[kernel] = {
            "seconds": best,
            "candidates": len(outcome.candidates),
            "processed_pairs": outcome.processed_pairs,
            "candidates_per_second": len(outcome.candidates) / max(best, 1e-12),
            "results_match": answer == reference,
        }
    comparison = {
        "records": len(prepared),
        "rounds": rounds,
        "kernels": rows,
    }
    if "numpy" in rows:
        comparison["numpy_speedup"] = rows["python"]["seconds"] / max(
            rows["numpy"]["seconds"], 1e-12
        )
    return comparison


def _recovery_cost(engine, prepared, reference_triples, *, workers=2):
    """One supervised join through a deterministic worker kill.

    The injected fault kills the worker running the first shard on its
    first attempt; the supervisor respawns the executor and re-dispatches.
    The block records the full recovery bill and the bit-identity verdict.
    """
    policy = SupervisorPolicy(backoff_base=0.0)
    with FAULTS.injected(FaultRule("worker_kill", shard=0)):
        start = time.perf_counter()
        result = engine().join(
            prepared, executor="process", workers=workers, supervision=policy
        )
        seconds = time.perf_counter() - start
    report = result.statistics.execution
    return {
        "workers": workers,
        "fault": "worker_kill:shard=0",
        "seconds": seconds,
        "results_match": _triples(result.pairs) == reference_triples,
        "retries": report.retries,
        "respawns": report.respawns,
        "worker_failures": report.worker_failures,
        "fallback_shards": report.fallback_shards,
        "respawn_seconds": report.respawn_seconds,
    }


def run_parallel_scaling(
    dataset,
    *,
    side=120,
    theta=THETA,
    tau=TAU,
    worker_counts=WORKER_COUNTS,
    executors=EXECUTORS,
    kernel_records=2000,
    out_path=None,
):
    """Time one self-join per executor/worker-count on a shared preparation.

    Returns (and optionally writes as JSON) a dict with the corpus and
    machine context, the serial reference run, and one row per pooled run:
    wall seconds, the bit-identity check against serial, and the speedup.
    """
    config = MeasureConfig.from_codes(
        "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )
    collection = dataset.records.head(side)

    def engine(telemetry=None) -> PebbleJoin:
        return PebbleJoin(
            config, theta, tau=tau, method=SignatureMethod.AU_DP,
            telemetry=telemetry,
        )

    prepared = engine().prepare(collection)
    # Warm the shared caches (pebbles, order, signing, msim) so every timed
    # run measures filter + verify, not preparation.
    reference = engine().join(prepared)

    start = time.perf_counter()
    serial = engine().join(prepared)
    serial_seconds = time.perf_counter() - start
    reference_triples = _triples(reference.pairs)
    assert _triples(serial.pairs) == reference_triples

    runs = []
    for executor in executors:
        for workers in worker_counts:
            warm_pool = (
                WarmJoinPool(workers=workers) if executor == "process-warm" else None
            )
            try:
                start = time.perf_counter()
                result = engine().join(
                    prepared, executor="process", workers=workers, pool=warm_pool
                )
                seconds = time.perf_counter() - start
            finally:
                # Teardown on *every* path: a raising run must not leave a
                # live executor or an unlinked-pending /dev/shm segment.
                if warm_pool is not None:
                    warm_pool.close()
            matches = (
                _triples(result.pairs) == reference_triples
                and _counters(result.statistics.verification)
                == _counters(serial.statistics.verification)
            )
            runs.append(
                {
                    "executor": executor,
                    "workers": workers,
                    "seconds": seconds,
                    "candidates_per_second": result.statistics.candidate_count
                    / max(seconds, 1e-12),
                    "speedup_vs_serial": serial_seconds / max(seconds, 1e-12),
                    "results_match": matches,
                }
            )

    # Transfer payload: the flat integer-encoded plan the process pool
    # ships, as pickled bytes and as the warm pool's shared-memory segment.
    flat_plan = build_shard_plan(engine(), prepared)
    shm_payload = _export_plan_payload(flat_plan)
    try:
        shm_segment_bytes = shm_payload.shm.size
    finally:
        shm_payload.release()
    plan_payload = {
        "flat_bytes": plan_payload_bytes(flat_plan),
        "shm_segment_bytes": shm_segment_bytes,
    }

    recovery = _recovery_cost(engine, prepared, reference_triples)
    telemetry_overhead = _telemetry_overhead(engine, prepared, reference_triples)

    # Filter-kernel face-off: the bench corpus itself, then a much larger
    # synthetic corpus (``kernel_records``) where the vectorized kernel's
    # per-posting advantage dominates its per-probe dispatch overhead.
    synth = generate_dataset(MED_PROFILE, count=kernel_records, seed=1207)
    synth_config = MeasureConfig.from_codes(
        "TJS", rules=synth.rules, taxonomy=synth.taxonomy, q=3
    )

    def synth_engine() -> PebbleJoin:
        return PebbleJoin(synth_config, theta, tau=tau, method=SignatureMethod.AU_DP)

    filter_kernel = {
        "bench_corpus": _filter_kernel_comparison(engine, prepared),
        "synthetic_corpus": _filter_kernel_comparison(
            synth_engine, synth_engine().prepare(synth.records.head(kernel_records))
        ),
    }

    payload = {
        "dataset": dataset.profile.name,
        "records": len(collection),
        "theta": theta,
        "tau": tau,
        "cpu_count": os.cpu_count() or 1,
        "candidates": serial.statistics.candidate_count,
        "results": len(serial.pairs),
        "serial": {
            "seconds": serial_seconds,
            "candidates_per_second": serial.statistics.candidate_count
            / max(serial_seconds, 1e-12),
        },
        "payload": plan_payload,
        "recovery": recovery,
        "telemetry_overhead": telemetry_overhead,
        "filter_kernel": filter_kernel,
        "runs": runs,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_parallel_scaling(benchmark, med_dataset):
    payload = benchmark.pedantic(
        lambda: run_parallel_scaling(med_dataset, out_path=DEFAULT_PARALLEL_JSON),
        rounds=1, iterations=1,
    )

    cpu_count = payload["cpu_count"]
    print(
        f"\n[MED subset] parallel scaling ({payload['records']} records, "
        f"θ = {payload['theta']}, τ = {payload['tau']}, {cpu_count} CPUs): "
        f"{payload['candidates']} candidates, serial {payload['serial']['seconds']:.2f}s"
    )
    for run in payload["runs"]:
        print(
            f"  {run['executor']:>12} x{run['workers']}: {run['seconds']:.2f}s "
            f"→ {run['speedup_vs_serial']:.2f}x "
            f"({'ok' if run['results_match'] else 'MISMATCH'}) "
            f"(written to {DEFAULT_PARALLEL_JSON.name})"
        )

    sizes = payload["payload"]
    print(
        f"  plan payload: flat {sizes['flat_bytes']:,}B, "
        f"shm segment {sizes['shm_segment_bytes']:,}B"
    )

    for corpus, comparison in payload["filter_kernel"].items():
        rows = comparison["kernels"]
        line = ", ".join(
            f"{kernel} {row['seconds'] * 1000:.0f}ms "
            f"({row['candidates_per_second']:,.0f} cand/s)"
            for kernel, row in rows.items()
        )
        speedup = comparison.get("numpy_speedup")
        suffix = f" → numpy {speedup:.2f}x" if speedup is not None else ""
        print(f"  filter kernel [{corpus}, {comparison['records']} records]: {line}{suffix}")

    recovery = payload["recovery"]
    print(
        f"  recovery ({recovery['fault']}): {recovery['seconds']:.3f}s, "
        f"{recovery['respawns']} respawn(s) costing "
        f"{recovery['respawn_seconds']:.3f}s, {recovery['retries']} retries, "
        f"{recovery['fallback_shards']} serial fallback shard(s) "
        f"({'ok' if recovery['results_match'] else 'MISMATCH'})"
    )
    telemetry = payload["telemetry_overhead"]
    print(
        f"  telemetry overhead (no fault, x{telemetry['workers']}): "
        f"{telemetry['enabled_seconds']:.3f}s enabled vs "
        f"{telemetry['disabled_seconds']:.3f}s disabled "
        f"({telemetry['overhead_fraction']:+.1%})"
    )

    # Bit-identity is unconditional; it is the contract the driver ships with.
    assert all(run["results_match"] for run in payload["runs"])
    # A join that survived a worker kill must still be the serial join.
    assert recovery["results_match"]
    assert recovery["respawns"] >= 1
    # The no-fault hot path may not pay measurably for default-on
    # telemetry: within 2% of a disabled bundle, or within scheduler noise
    # on corpora too small for a stable ratio.
    assert (
        telemetry["overhead_fraction"] <= 0.02
        or telemetry["overhead_seconds"] <= 0.02
    ), telemetry
    # Kernel equivalence is unconditional: a numpy row may only be recorded
    # with python-identical candidates and processed counts.
    for comparison in payload["filter_kernel"].values():
        assert all(row["results_match"] for row in comparison["kernels"].values())
    # On the large corpus the vectorized kernel must earn its default slot:
    # ≥3x over the pure-Python loop (asserted only where numpy exists —
    # kernel="auto" degrades to the python loop without it).
    if numpy_available():
        synth_comparison = payload["filter_kernel"]["synthetic_corpus"]
        assert synth_comparison["numpy_speedup"] >= 3.0, synth_comparison
    # The ≥2x speedup bar needs physical cores to parallelize across and a
    # serial baseline long enough to trust the measurement; a single-core
    # container cannot express multi-core speedup, so the bar is asserted
    # only where it is physically meaningful.  It applies to both
    # transports: the per-call pool and the warm pool.
    if cpu_count >= 4 and payload["serial"]["seconds"] > 0.05:
        for run in payload["runs"]:
            if run["workers"] == 4:
                assert run["speedup_vs_serial"] >= 2.0, run
