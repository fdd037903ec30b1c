"""Figure 5: filtering power — signature length and candidate count vs τ.

Paper shape at θ = 0.85: AU-Filter (DP) produces the fewest candidates for
the same τ, at the cost of slightly longer signatures than U-Filter's fixed
τ = 1 baseline.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.datasets import SyntheticDataset
from repro.evaluation.experiments import config_for, split_dataset
from repro.join.aufilter import PebbleJoin
from repro.join.prepared import PreparedCollection
from repro.join.signatures import SignatureMethod

TAUS = (1, 2, 4, 6, 8)
THETA = 0.85
SIDE = 60


def run_fig5(
    dataset: SyntheticDataset,
    side: int = SIDE,
    taus: Sequence[int] = TAUS,
    theta: float = THETA,
) -> Dict[Tuple[str, int], Tuple[float, int]]:
    """(method, τ) -> (average left signature length, candidate count).

    One cell per AU method and τ, plus U-Filter at τ = 1, all over one split
    of ``dataset`` into two sides of ``side`` records.  Both sides are
    prepared once, before the cells, so every record's pebbles are
    generated once for the whole figure; each cell orders and signs those
    preparations.
    """
    left, right = split_dataset(dataset, side, side)
    config = config_for(dataset)
    left_prep = PreparedCollection.prepare(left, config)
    right_prep = PreparedCollection.prepare(right, config)
    cells = [
        (method, tau)
        for method in (SignatureMethod.AU_HEURISTIC, SignatureMethod.AU_DP)
        for tau in taus
    ]
    # U-Filter is the τ = 1 reference point.
    cells.append((SignatureMethod.U_FILTER, 1))
    rows = {}
    for method, tau in cells:
        engine = PebbleJoin(config, theta, tau=tau, method=method)
        order = engine.build_order(left_prep, right_prep)
        left_signed = engine.sign_collection(left_prep, order)
        right_signed = engine.sign_collection(right_prep, order)
        outcome = engine.filter_candidates(left_signed, right_signed)
        avg_len = sum(s.signature_length for s in left_signed) / len(left_signed)
        rows[(method, tau)] = (avg_len, outcome.candidate_count)
    return rows


def test_fig5_filtering_power(benchmark, med_dataset):
    rows = benchmark.pedantic(run_fig5, args=(med_dataset,), rounds=1, iterations=1)

    print(f"\n[MED subset] Figure 5 — filtering power at θ = {THETA}")
    print(f"  {'filter':<14} {'τ':>3} {'avg sig len':>12} {'candidates':>11}")
    for (method, tau), (avg_len, candidates) in sorted(rows.items()):
        print(f"  {method:<14} {tau:>3} {avg_len:>12.1f} {candidates:>11}")

    # Shape check: for each τ, DP signatures are no longer than heuristic ones.
    for tau in TAUS:
        assert rows[(SignatureMethod.AU_DP, tau)][0] <= rows[(SignatureMethod.AU_HEURISTIC, tau)][0] + 1e-9
