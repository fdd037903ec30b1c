"""Recall and bounds against the definition.

The equivalence suites compare one code path with another; this table
compares the signature filter and the verification bounds with USIM
itself, computed by :func:`~repro.core.exact.exact_usim` (every partition
pair enumerated) once per corpus and row.

* Recall: every pair whose exact unified similarity reaches θ must be a
  candidate of the self-join filter.  At τ=1 that is what the signature
  walk guarantees for all three selection methods, whatever lower bound on
  the partition size it signs with, so an overestimated ``MP(S)`` shows up
  here as missed pairs.
* Bounds: on every pair, the partition bound of stage 2 is at least the
  exact USIM (less a rounding slack far below
  :data:`~repro.core.graph.PARTITION_SLACK`) and at most the maxima bound
  of stage 1 at θ = 0, bit for bit.

Each row is one measure set over three seeded TINY corpora (30 records plus
12 generated near-duplicates each) and every (θ, method) cell of the table.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.exact import exact_usim
from repro.core.graph import GraphSide, PairUpperBound
from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset, generate_ground_truth
from repro.join import PebbleJoin, SignatureMethod
from repro.records import RecordCollection

#: Seeds of the table's corpora (dataset and near-duplicates alike).
RECALL_SEEDS = (1, 2, 3)
THETAS = (0.6, 0.7, 0.8)
TAU = 1

#: row id -> measure codes; every row sweeps every seed, θ and method.
RECALL_TABLE = {
    "all-measures": "TJS",
    "taxonomy": "T",
    "synonym": "S",
    "jaccard": "J",
}


@pytest.fixture(scope="module")
def recall_corpora():
    """seed -> (dataset, records): 30 records plus their near-duplicates."""
    corpora = {}
    for seed in RECALL_SEEDS:
        dataset = generate_dataset(TINY_PROFILE, count=30, seed=seed)
        truth = generate_ground_truth(
            dataset, positive_pairs=12, negative_pairs=0, seed=seed
        )
        duplicates = sorted(
            (pair.right for pair in truth.positives()),
            key=lambda record: record.record_id,
        )
        corpora[seed] = dataset, RecordCollection(list(dataset.records) + duplicates)
    return corpora


@pytest.fixture(scope="module")
def exact_table(recall_corpora):
    """(row, seed) -> (config, {pair of records: exact USIM}), every pair once."""
    table = {}
    for row, codes in RECALL_TABLE.items():
        for seed, (dataset, records) in recall_corpora.items():
            config = MeasureConfig.from_codes(
                codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
            )
            table[row, seed] = config, {
                (left, right): exact_usim(left.tokens, right.tokens, config).value
                for left, right in itertools.combinations(records, 2)
            }
    return table


def _candidates(config, records, theta, method):
    """The self-join filter's candidate pairs at ``TAU``."""
    engine = PebbleJoin(config, theta, tau=TAU, method=method)
    prepared = engine.prepare(records)
    signed = engine.sign_collection(prepared, engine.build_order(prepared))
    outcome = engine.filter_candidates(signed, signed, exclude_self_pairs=True)
    return set(outcome.candidates)


class TestRecallTable:
    @pytest.mark.parametrize("row", list(RECALL_TABLE))
    def test_every_similar_pair_is_a_candidate(self, recall_corpora, exact_table, row):
        truth_pairs = 0
        misses = []
        for seed, (dataset, records) in recall_corpora.items():
            config, exact = exact_table[row, seed]
            usim = {
                (left.record_id, right.record_id): value
                for (left, right), value in exact.items()
            }
            for theta in THETAS:
                similar = {pair for pair, value in usim.items() if value >= theta}
                truth_pairs += len(similar)
                for method in SignatureMethod.ALL:
                    missed = similar - _candidates(config, records, theta, method)
                    misses.extend(
                        (seed, theta, method, pair, usim[pair]) for pair in sorted(missed)
                    )
        # A row without a similar pair would prove nothing about recall.
        assert truth_pairs > 0, row
        assert not misses, misses[:5]

    @pytest.mark.parametrize("row", list(RECALL_TABLE))
    def test_partition_bound_brackets_exact_usim(self, exact_table, row):
        tighter = 0
        for seed in RECALL_SEEDS:
            config, exact = exact_table[row, seed]
            sides = {}
            for (left, right), value in exact.items():
                for record in (left, right):
                    if record.record_id not in sides:
                        sides[record.record_id] = GraphSide(record.tokens, config)
                bound = PairUpperBound(
                    sides[left.record_id], sides[right.record_id], config
                )
                partition, maxima = bound.partition(), bound.maxima(0.0)
                pair = (seed, left.record_id, right.record_id)
                assert partition >= value - 1e-9, (pair, partition, value)
                assert partition <= maxima, (pair, partition, maxima)
                tighter += partition < maxima
        if row != "jaccard":
            # Jaccard segments are single tokens: each side has one
            # partition, and the two bounds coincide.
            assert tighter > 0, row
