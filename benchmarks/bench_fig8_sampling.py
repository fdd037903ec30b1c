"""Figure 8: suggestion iterations and time versus sampling probability.

Paper shape: smaller sampling probabilities need more iterations to satisfy
the confidence-based stopping rule, so suggestion time is not monotone in
the probability — there is an interior optimum.

The curve flattens once one exact counts pass is cheaper than the burn-in:
the recommender then draws no sample (0 iterations) and counts exactly, and
the ``exact`` column marks every row where the exact pass ran.
"""

from __future__ import annotations

from repro.evaluation.experiments import sampling_probability_tradeoff

PROBABILITIES = (0.05, 0.1, 0.2, 0.4)


def test_fig8_sampling_probability(benchmark, med_dataset):
    outcome = benchmark.pedantic(
        lambda: sampling_probability_tradeoff(
            med_dataset, probabilities=PROBABILITIES, theta=0.8, size=80
        ),
        rounds=1, iterations=1,
    )

    print("\n[MED subset] Figure 8 — suggestion cost vs sampling probability (θ = 0.8)")
    print(f"  {'probability':>12} {'iterations':>11} {'suggestion time (s)':>20} {'best τ':>7} {'exact':>6}")
    for probability in PROBABILITIES:
        row = outcome[probability]
        print(f"  {probability:>12.2f} {int(row['iterations']):>11} "
              f"{row['suggestion_seconds']:>20.2f} {int(row['best_tau']):>7} "
              f"{'yes' if row['exact'] else 'no':>6}")

    # Shape check: iteration counts do not increase with the sampling probability.
    iterations = [outcome[p]["iterations"] for p in PROBABILITIES]
    assert iterations[0] >= iterations[-1]
