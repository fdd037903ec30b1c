"""The group maxima kernel against its scalar oracle, and its process boundary.

:class:`~repro.join.bound_kernel.GroupUpperBounds` computes stage 1 of the
verification cascade for a whole probe group — by the numpy kernel when the
group is large enough, else by the scalar :class:`PairUpperBound` loop.  The
contract is bit-identity with ``PairUpperBound(left, right, config).maxima``
for every candidate, so every prune decision is the same on either path.
The table sweeps every measure set, q, θ (0 and 1 included), both
orientations, an empty record, groups on both sides of the size constant
and groups that cross a chunk boundary.

The encoding behind the kernel interns grams and synonym keys in a
process-local table, so it must never cross a process boundary: the last
tests pin that down, directly on a pickled side and end to end on the
scenario where a leaked encoding would go wrong (a warm process pool
answering a batch after the parent encoded member sides with its own ids).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.graph import GraphSide, PairUpperBound
from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PreparedCollection
from repro.join.bound_kernel import (
    _CHUNK_COLUMNS,
    GROUP_KERNEL_MIN_PAIRS,
    GroupUpperBounds,
    group_maxima_numpy,
)
from repro.join.kernels import numpy_available
from repro.records import Record, RecordCollection
from repro.search import SimilarityIndex

MEASURE_SETS = ("J", "S", "T", "JS", "JT", "ST", "TJS")
THETAS = (0.0, 0.3, 0.6, 0.8, 0.95, 1.0)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TINY_PROFILE, count=160, seed=17)


@pytest.fixture(scope="module")
def collection(dataset):
    """The corpus plus one empty record (its bound is 0.0 on both sides)."""
    records = [
        Record(record_id=position, text=record.text, tokens=record.tokens)
        for position, record in enumerate(dataset.records)
    ]
    records.append(Record(record_id=len(records), text="", tokens=()))
    return RecordCollection(records)


def _groups(prepared, rng):
    """(probe, partners) groups: small, just over the constant, and one
    spanning several kernel chunks; the empty record shows up as a probe
    and as a partner."""
    empty = len(prepared) - 1
    sizes = lambda ids: sum(len(prepared.graph_side(i).segments) for i in ids)
    groups = [(empty, [0, 1, empty])]
    probe = rng.randrange(empty)
    groups.append((probe, [rng.randrange(len(prepared)) for _ in range(2)]))
    # Grow a group until it just reaches the size constant.
    probe = rng.randrange(empty)
    partners = [empty]
    while len(prepared.graph_side(probe).segments) * sizes(partners) < GROUP_KERNEL_MIN_PAIRS:
        partners.append(rng.randrange(empty))
    groups.append((probe, partners))
    # One group spanning more than two chunks of partner segments.
    probe = rng.randrange(empty)
    partners = [rng.randrange(len(prepared)) for _ in range(450)]
    assert sizes(partners) > 2 * _CHUNK_COLUMNS
    groups.append((probe, partners))
    return groups


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("codes", MEASURE_SETS)
def test_group_maxima_equal_the_scalar_bound(dataset, collection, codes, q):
    config = MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=q
    )
    prepared = PreparedCollection.prepare(collection, config)
    rng = random.Random(f"{codes}-{q}")
    for probe_id, partner_ids in _groups(prepared, rng):
        probe = prepared.graph_side(probe_id)
        partners = [prepared.graph_side(record_id) for record_id in partner_ids]
        pairs = len(probe.segments) * sum(len(side.segments) for side in partners)
        for probe_is_left in (True, False):
            oracle = [
                PairUpperBound(probe, side, config)
                if probe_is_left
                else PairUpperBound(side, probe, config)
                for side in partners
            ]
            for theta in THETAS:
                expected = [bound.maxima(theta) for bound in oracle]
                group = GroupUpperBounds(
                    probe, partners, config, probe_is_left=probe_is_left
                )
                assert group.use_kernel == (
                    numpy_available() and pairs >= GROUP_KERNEL_MIN_PAIRS
                )
                # Bit for bit: equal floats, so equal prune decisions too.
                assert group.maxima(theta) == expected, (probe_id, theta)
                if numpy_available():
                    assert group_maxima_numpy(
                        probe.bound_codes,
                        [side.bound_codes for side in partners],
                        theta,
                        probe_is_left=probe_is_left,
                    ) == expected, (probe_id, theta)
            for position in range(0, len(partners), 7):
                assert group.matching(position) == oracle[position].matching()


def test_encoding_is_dropped_from_pickles(dataset):
    config = MeasureConfig.from_codes(
        "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )
    side = GraphSide(dataset.records[3].tokens, config)
    side.bound_state, side.min_partition_size  # the pickled bound material
    before = pickle.dumps(side)
    assert side.bound_codes.segment_count == len(side.segments)
    after = pickle.dumps(side)
    # An encoded side pickles to the same bytes as an unencoded one, and
    # the copy encodes afresh against its own process's table.
    assert after == before
    clone = pickle.loads(after)
    assert "bound_codes" not in vars(clone)
    assert clone.bound_codes is not side.bound_codes


def test_process_batch_after_serial_reads_equals_serial(dataset):
    """A warm pool answers a batch, the parent encodes member sides during
    serial queries, and the pool answers again: the second process batch
    must equal the serial batch in pairs, similarities and every counter.
    Were an encoding pickled into the worker payload, the worker would
    read the parent's gram ids against its own table."""
    config = MeasureConfig.from_codes(
        "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )
    members = dataset.records.head(90)
    probes = [record.text for record in dataset.records][90:130]
    with SimilarityIndex(members, config, theta=0.35, tau=1) as index:
        index.query_batch(probes[:10], executor="process", workers=2)
        for probe in probes[10:]:
            index.query(probe)
        serial = index.query_batch(probes)
        pooled = index.query_batch(probes, executor="process", workers=2)
    assert len(serial.pairs) > 20
    assert pooled.pairs == serial.pairs
    assert pooled.candidate_count == serial.candidate_count
    assert pooled.processed_pairs == serial.processed_pairs
    assert pooled.verification == serial.verification
