"""Overlap-constraint (τ) recommendation in action (Section 4 of the paper).

Shows the trade-off behind Figure 3 — larger τ means longer signatures but
fewer candidates — and then runs the sampling-based recommender of
Algorithm 7 to pick τ automatically, comparing its choice against an
exhaustive sweep.  Preparation is store-backed: a parameter sweep is
exactly the repeated-runs-over-a-stable-corpus workload the on-disk
prepared-collection store exists for, so the script reports the cold
preparation cost once and the warm (artifact-hit) cost a re-run would pay.

Run with::

    python examples/parameter_tuning.py
"""

from __future__ import annotations

import tempfile
import time

from repro.datasets import MED_PROFILE, generate_dataset
from repro.estimator import TauRecommender
from repro.evaluation.experiments import config_for, split_dataset
from repro.join import PebbleJoin, SignatureMethod, build_shared_order
from repro.store import PreparedStore

RECORDS = 240
THETA = 0.85
TAUS = (1, 2, 3, 4)


def main() -> None:
    dataset = generate_dataset(MED_PROFILE, count=RECORDS, seed=11)
    left, right = split_dataset(dataset, RECORDS // 2, RECORDS // 2)
    config = config_for(dataset)

    # Prepare both sides once through an on-disk store: the sweep's four
    # joins and the recommender reuse the cached pebbles and the shared
    # global order in-process, and a *re-run* of this script against a
    # persistent store directory would skip preparation entirely (shown
    # below with a second store instance over the same directory).
    probe_engine = PebbleJoin(config, THETA, tau=1, method=SignatureMethod.AU_DP)
    with tempfile.TemporaryDirectory() as store_root:
        store = PreparedStore(store_root)
        start = time.perf_counter()
        left_prep = store.prepare(left, config)
        right_prep = store.prepare(right, config)
        cold_prepare = time.perf_counter() - start
        warm_store = PreparedStore(store_root)
        start = time.perf_counter()
        warm_store.prepare(left, config)
        warm_store.prepare(right, config)
        warm_prepare = time.perf_counter() - start
    # The loaded preparations live in memory; the store directory itself is
    # only needed for the next run (a persistent path would keep it warm).
    print(f"Store-backed preparation: cold {cold_prepare:.2f}s, "
          f"warm {warm_prepare:.2f}s (artifact hit: {warm_store.last_outcome.hit})\n")
    order = build_shared_order([left_prep, right_prep])

    # --- exhaustive sweep over τ (what the recommender tries to avoid) -----
    # All four joins share the prepared sides, so each record's verification
    # state (cached conflict-graph side) is built once across the sweep; the
    # prune-rate column shows how many candidates the verifier's bound
    # cascade rejected without building a pair graph.
    print(f"Exhaustive sweep over τ at θ = {THETA} ({len(left)} x {len(right)} records):")
    print(f"  {'τ':>2} {'avg sig len':>12} {'candidates':>11} {'pruned':>7} {'join time (s)':>14}")
    measured = {}
    for tau in TAUS:
        engine = PebbleJoin(config, THETA, tau=tau, method=SignatureMethod.AU_DP)
        start = time.perf_counter()
        result = engine.join(left_prep, right_prep, precomputed_order=order)
        elapsed = time.perf_counter() - start
        measured[tau] = elapsed
        s = result.statistics
        print(f"  {tau:>2} {s.avg_signature_length_left:>12.1f} {s.candidate_count:>11} "
              f"{s.verification.prune_rate:>6.0%} {elapsed:>14.2f}")
    best_tau = min(measured, key=measured.get)
    print(f"  -> best τ by exhaustive measurement: {best_tau}")

    # --- sampling-based recommendation (Algorithm 7) -----------------------
    recommender = TauRecommender(
        PebbleJoin(config, THETA, method=SignatureMethod.AU_DP),
        tau_universe=TAUS,
        left_probability=0.15,
        right_probability=0.15,
        burn_in=5,
        max_iterations=25,
        seed=23,
    )
    start = time.perf_counter()
    # The prepared signatures from the sweep's τ = max(TAUS) join are shared,
    # so the recommendation pays for sampling and filtering only.
    recommendation = recommender.recommend(left_prep, right_prep, order=order)
    elapsed = time.perf_counter() - start

    evidence = (
        f"{recommendation.iterations} samples"
        + (" and one exact counts pass" if recommendation.exact else "")
    )
    print(f"\nRecommender suggestion: τ = {recommendation.best_tau} "
          f"after {evidence} in {elapsed:.2f}s "
          f"({100 * elapsed / sum(measured.values()):.1f}% of the sweep's total join time)")
    print("  estimated relative costs:")
    for tau in TAUS:
        estimate = recommendation.estimates[tau]
        print(f"    τ={tau}: cost≈{estimate.mean_cost:,.0f} "
              f"(processed≈{estimate.mean_processed:,.0f}, candidates≈{estimate.mean_candidates:,.0f})")
    agreement = "matches" if recommendation.best_tau == best_tau else "differs from"
    print(f"  -> the suggestion {agreement} the exhaustively measured optimum ({best_tau})")


if __name__ == "__main__":
    main()
