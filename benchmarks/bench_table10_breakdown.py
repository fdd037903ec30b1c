"""Table 10: join time broken into suggestion, filtering, and verification.

Paper shape: filtering and verification grow with the dataset size while the
suggestion overhead stays roughly constant (it samples a fixed amount), so
its fraction of the total shrinks as data grows.

Verification breakdown
----------------------
``run_verification_breakdown`` isolates the verification stage: one shared
filtering pass produces a candidate set, then the pre-engine verifier (fresh
conflict graph per pair, no bound cascade, no ceiling break) and the
prepared verification engine (cached graph sides + bound cascade) verify
the identical candidates, each under its own config.  The
machine-readable summary — pairs/sec before and after, prune rates, bound
hit rates — is written to ``BENCH_verification.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.approximation import approximate_usim
from repro.core.measures import MeasureConfig
from repro.evaluation.experiments import time_breakdown
from repro.join.aufilter import PebbleJoin
from repro.join.signatures import SignatureMethod
from repro.join.verification import UnifiedVerifier

SIZES = (40, 80, 120)
THETA = 0.9

#: Default output location: the repository root (the recorded before/after
#: numbers are committed alongside the code they measure).
DEFAULT_VERIFICATION_JSON = Path(__file__).resolve().parent.parent / "BENCH_verification.json"


def run_verification_breakdown_suite(
    dataset,
    *,
    side=150,
    thetas=(0.85, 0.7),
    tau=2,
    approximation_t=4.0,
    out_path=None,
):
    """Verification breakdown at several thresholds, written as one JSON.

    Two settings are recorded by default: the fig4/table10-style θ = 0.85
    (prune-dominated: nearly every candidate dies on the upper bound) and
    θ = 0.7, where candidates survive to the accept path so the recorded
    equivalence also covers verified results and the ceiling-stop tier.
    """
    payload = {
        "dataset": dataset.profile.name,
        "runs": [
            run_verification_breakdown(
                dataset, side=side, theta=theta, tau=tau,
                approximation_t=approximation_t,
            )
            for theta in thetas
        ],
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def run_verification_breakdown(
    dataset,
    *,
    side=150,
    theta=0.85,
    tau=2,
    approximation_t=4.0,
    out_path=None,
):
    """Verification-only before/after comparison on one candidate set.

    Returns (and optionally writes as JSON) a dict with the candidate count,
    the seconds and pairs/sec of the pre-engine verifier vs the prepared
    engine, the speedup, whether the verified pairs and similarity values
    are identical, and the engine's bound hit rates.
    """

    def fresh_config() -> MeasureConfig:
        # One config per verifier (3-grams for the synthetic vocabulary, as
        # elsewhere).
        return MeasureConfig.from_codes(
            "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
        )

    collection = dataset.records.head(side)
    engine_config = fresh_config()
    filter_engine = PebbleJoin(
        engine_config, theta, tau=tau, method=SignatureMethod.AU_DP
    )
    prepared = filter_engine.prepare(collection)
    order = prepared.build_order(filter_engine.order_strategy)
    signed = prepared.signed(order, theta, tau, filter_engine.method)
    outcome = filter_engine.filter_candidates(signed, signed, exclude_self_pairs=True)
    candidates = outcome.candidates

    # Before: the seed verifier — a fresh conflict graph per pair, the full
    # improvement loop, no caching, no bounds.
    baseline_config = fresh_config()
    start = time.perf_counter()
    baseline_pairs = []
    for left_id, right_id in candidates:
        value = approximate_usim(
            collection[left_id].tokens,
            collection[right_id].tokens,
            baseline_config,
            t=approximation_t,
            early_ceiling=False,
        ).value
        if value >= theta:
            baseline_pairs.append((left_id, right_id, value))
    baseline_seconds = time.perf_counter() - start

    # After: the prepared engine over the same candidates.
    verifier = UnifiedVerifier(engine_config, theta, t=approximation_t)
    start = time.perf_counter()
    engine_pairs = verifier.verify_batch(
        candidates, prepared, prepared, probe_side=outcome.probe_side
    )
    engine_seconds = time.perf_counter() - start

    stats = verifier.stats
    candidate_count = len(candidates)

    def rate(count: int) -> float:
        return count / candidate_count if candidate_count else 0.0

    payload = {
        "dataset": dataset.profile.name,
        "records": len(collection),
        "theta": theta,
        "tau": tau,
        "candidates": candidate_count,
        "results": len(engine_pairs),
        "results_match": baseline_pairs
        == [(p.left_id, p.right_id, p.similarity) for p in engine_pairs],
        "before": {
            "verifier": "per-pair approximate_usim (no cache, no bounds)",
            "seconds": baseline_seconds,
            "pairs_per_second": candidate_count / max(baseline_seconds, 1e-12),
        },
        "after": {
            "verifier": "prepared engine (cached sides + maxima and partition bounds)",
            "seconds": engine_seconds,
            "pairs_per_second": candidate_count / max(engine_seconds, 1e-12),
        },
        "speedup": baseline_seconds / max(engine_seconds, 1e-12),
        "bound_hit_rates": {
            "upper_bound_prunes": rate(stats.upper_bound_prunes),
            "graphs_built": rate(stats.graphs_built),
            "ceiling_stops": rate(stats.ceiling_stops),
            "full_runs": rate(stats.full_runs),
        },
        "prune_rate": stats.prune_rate,
        "ceiling_stop_rate": stats.ceiling_stop_rate,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_table10_time_breakdown(benchmark, med_dataset):
    breakdown = benchmark.pedantic(
        lambda: time_breakdown(med_dataset, sizes=SIZES, theta=THETA),
        rounds=1, iterations=1,
    )

    print(f"\n[MED subset] Table 10 — time breakdown (s) at θ = {THETA}")
    print(f"  {'size':>6} {'suggestion':>11} {'filtering':>10} {'verification':>13} {'best τ':>7}")
    for size in SIZES:
        row = breakdown[size]
        print(f"  {size:>6} {row['suggestion']:>11.2f} {row['filtering']:>10.2f} "
              f"{row['verification']:>13.2f} {int(row['best_tau']):>7}")

    # Shape check: filtering + verification grows with dataset size.
    small = breakdown[SIZES[0]]["filtering"] + breakdown[SIZES[0]]["verification"]
    large = breakdown[SIZES[-1]]["filtering"] + breakdown[SIZES[-1]]["verification"]
    assert large >= small


def test_table10_verification_breakdown(benchmark, med_dataset):
    suite = benchmark.pedantic(
        lambda: run_verification_breakdown_suite(
            med_dataset, out_path=DEFAULT_VERIFICATION_JSON
        ),
        rounds=1, iterations=1,
    )
    for outcome in suite["runs"]:
        rates = outcome["bound_hit_rates"]
        print(
            f"\n[MED subset] verification breakdown ({outcome['records']} records, "
            f"θ = {outcome['theta']}, τ = {outcome['tau']}): "
            f"{outcome['candidates']} candidates, {outcome['results']} results"
        )
        print(
            f"  before {outcome['before']['seconds']:.2f}s "
            f"({outcome['before']['pairs_per_second']:,.0f} pairs/s) vs "
            f"after {outcome['after']['seconds']:.2f}s "
            f"({outcome['after']['pairs_per_second']:,.0f} pairs/s) "
            f"→ {outcome['speedup']:.1f}x"
        )
        print(
            f"  bound hits: ub-prune {rates['upper_bound_prunes']:.1%}, "
            f"ceiling-stop {rates['ceiling_stops']:.1%}, "
            f"full {rates['full_runs']:.1%} "
            f"(written to {DEFAULT_VERIFICATION_JSON.name})"
        )
        # The engine is a pure optimization: identical pairs and values.
        assert outcome["results_match"]
        # Guard the ≥2x acceptance bar only when the baseline ran long enough
        # to trust the measurement (as in the fig4 filter comparison).
        if outcome["before"]["seconds"] > 0.05:
            assert outcome["speedup"] >= 2.0
