"""The online similarity-search index: identity with batch joins.

The contract under test is bit-identity: every query answer — threshold,
top-k, batched, member or external probe, before and after arbitrary
add/remove churn — must equal the corresponding full batch join restricted
to the probe record, similarity values included.  The randomized suites
sweep measures (J/S/T/TJS), thresholds, overlap constraints, and mutation
histories.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin
from repro.join.flat import FlatJoinState
from repro.records import Record, RecordCollection
from repro.search import SimilarityIndex
from repro.store import PreparedStore
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def search_dataset():
    return generate_dataset(TINY_PROFILE, count=60, seed=911)


def _config(dataset, codes: str, q: int = 3) -> MeasureConfig:
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=q
    )


def _selfjoin_rows(engine: PebbleJoin, collection):
    """The full self-join as per-record rows: id -> {partner: similarity}."""
    result = engine.join(engine.prepare(collection))
    rows = {record.record_id: {} for record in collection}
    for pair in result.pairs:
        rows[pair.left_id][pair.right_id] = pair.similarity
        rows[pair.right_id][pair.left_id] = pair.similarity
    return rows


def _member_rows(index: SimilarityIndex, **query_kwargs):
    return {
        record_id: {
            match.record_id: match.similarity
            for match in index.query_member(record_id, **query_kwargs).matches
        }
        for record_id in index.live_ids()
    }


# --------------------------------------------------------------------- #
# query identity with batch joins
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("codes", ["J", "S", "T", "TJS"])
def test_member_query_matches_full_selfjoin(search_dataset, codes):
    """Every member's query row equals its row of the full self-join."""
    rng = random.Random(hash(codes) & 0xFFFF)
    theta = rng.choice([0.5, 0.6, 0.7])
    tau = rng.choice([1, 2])
    config = _config(search_dataset, codes)
    collection = search_dataset.records.head(40)
    index = SimilarityIndex(collection, config, theta=theta, tau=tau)
    reference = _selfjoin_rows(PebbleJoin(config, theta, tau=tau), collection)
    assert _member_rows(index) == reference


def test_external_query_matches_two_collection_join(search_dataset):
    """An external probe's answers equal joining {probe} against the corpus."""
    config = _config(search_dataset, "TJS")
    collection = search_dataset.records.head(35)
    probes = search_dataset.records.subset(range(35, 50))
    theta, tau = 0.6, 2
    index = SimilarityIndex(collection, config, theta=theta, tau=tau)
    engine = PebbleJoin(config, theta, tau=tau)
    corpus_prepared = engine.prepare(collection)
    for probe in probes:
        single = RecordCollection([Record(0, probe.text, probe.tokens)])
        reference = {
            pair.right_id: pair.similarity
            for pair in engine.join(engine.prepare(single), corpus_prepared).pairs
        }
        result = index.query(probe)
        assert {m.record_id: m.similarity for m in result.matches} == reference


def test_query_theta_tau_tightening(search_dataset):
    """Raising θ / lowering τ at query time matches a join at those knobs."""
    config = _config(search_dataset, "TJS")
    collection = search_dataset.records.head(40)
    index = SimilarityIndex(collection, config, theta=0.5, tau=3)
    for theta, tau in [(0.7, 3), (0.5, 1), (0.85, 2)]:
        reference = _selfjoin_rows(PebbleJoin(config, theta, tau=tau), collection)
        assert _member_rows(index, theta=theta, tau=tau) == reference


def test_query_rejects_loosened_contract(search_dataset):
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(10), config, theta=0.7, tau=2)
    probe = index.prepared[5].text
    entry_points = (
        lambda **kw: index.query(probe, **kw),
        lambda **kw: index.query_member(5, **kw),
        lambda **kw: index.query_topk(probe, 3, **kw),
        lambda **kw: index.query_batch([probe], **kw),
    )
    for call in entry_points:
        for theta in (0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="theta"):
                call(theta=theta)
        for tau in (3, 0):
            with pytest.raises(ValueError, match="tau"):
                call(tau=tau)
        call(theta=0.9, tau=1)  # tightening stays served
    with pytest.raises(KeyError):
        index.query_member(999)


# --------------------------------------------------------------------- #
# top-k
# --------------------------------------------------------------------- #
def test_topk_equals_full_query_head(search_dataset):
    """Top-k is exactly the (-sim, id)-sorted head of the full answer."""
    config = _config(search_dataset, "TJS")
    collection = search_dataset.records.head(45)
    index = SimilarityIndex(collection, config, theta=0.45, tau=1)
    rng = random.Random(3)
    probes = [search_dataset.records[rng.randrange(45, 60)] for _ in range(8)]
    for probe in probes:
        full = index.query(probe)
        expected = sorted(
            ((m.similarity, m.record_id) for m in full.matches),
            key=lambda pair: (-pair[0], pair[1]),
        )
        for k in (1, 2, 5):
            top = index.query_topk(probe, k)
            got = [(m.similarity, m.record_id) for m in top.matches]
            assert got == expected[:k]
            # The early stop may only ever skip work, never answers.
            assert top.bound_skipped >= 0
            assert top.candidate_count == full.candidate_count


def test_query_metrics_sum_the_verification_blocks(search_dataset):
    """The per-query tier counters equal the summed QueryResult stats."""
    config = _config(search_dataset, "TJS")
    telemetry = Telemetry()
    index = SimilarityIndex(
        search_dataset.records.head(45), config, theta=0.45, tau=1, telemetry=telemetry
    )
    # Copies of members (0-2) clear the lower bound; the rest mostly prune.
    probe_ids = [0, 1, 2] + list(range(45, 53))
    probes = [search_dataset.records[record_id] for record_id in probe_ids]
    results = [index.query(probe) for probe in probes]
    results += [index.query_topk(probe, 2) for probe in probes]
    results += [index.query_member(record_id) for record_id in range(6)]
    counters = telemetry.metrics.snapshot()["counters"]
    for field in ("upper_bound_prunes", "lower_bound_skips", "graphs_built"):
        assert counters[f"search.{field}"] == sum(
            getattr(result.verification, field) for result in results
        )
        assert counters[f"search.{field}"] > 0
    assert counters["search.verified"] == sum(
        result.verification.candidates for result in results
    )


def test_topk_validates_k(search_dataset):
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(5), config, theta=0.5)
    with pytest.raises(ValueError, match="k"):
        index.query_topk("anything", 0)


# --------------------------------------------------------------------- #
# batched querying
# --------------------------------------------------------------------- #
def test_query_batch_matches_single_queries(search_dataset):
    config = _config(search_dataset, "TJS")
    collection = search_dataset.records.head(35)
    index = SimilarityIndex(collection, config, theta=0.55, tau=2)
    probes = [record.text for record in search_dataset.records.subset(range(35, 47))]
    batch = index.query_batch(probes)
    grouped = batch.by_probe()
    for position, probe in enumerate(probes):
        single = index.query(probe)
        got = grouped.get(position, [])
        assert [(m.record_id, m.similarity) for m in got] == [
            (m.record_id, m.similarity) for m in single.matches
        ]
    assert batch.probe_count == len(probes)


def test_query_batch_process_executor_identical(search_dataset):
    config = _config(search_dataset, "TJS")
    collection = search_dataset.records.head(30)
    index = SimilarityIndex(collection, config, theta=0.55, tau=2)
    probes = [record.text for record in search_dataset.records.subset(range(30, 42))]
    serial = index.query_batch(probes)
    for workers in (1, 3):
        pooled = index.query_batch(probes, executor="process", workers=workers)
        assert [
            (p.left_id, p.right_id, p.similarity) for p in pooled.pairs
        ] == [(p.left_id, p.right_id, p.similarity) for p in serial.pairs]
        assert pooled.candidate_count == serial.candidate_count
        assert pooled.processed_pairs == serial.processed_pairs
        for name in serial.verification._COUNTERS:
            assert getattr(pooled.verification, name) == getattr(
                serial.verification, name
            )


def test_query_batch_rejects_unknown_executor(search_dataset):
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(5), config, theta=0.5)
    with pytest.raises(ValueError, match="executor"):
        index.query_batch(["x"], executor="thread")
    with pytest.raises(ValueError, match="serial executor takes no workers"):
        index.query_batch(["x"], executor="serial", workers=8)


# --------------------------------------------------------------------- #
# incremental maintenance
# --------------------------------------------------------------------- #
def _fresh_reference(index: SimilarityIndex, config, theta, tau):
    """A from-scratch index over the live records, with the id mapping."""
    live = index.live_ids()
    fresh = SimilarityIndex(
        RecordCollection.from_strings([index.prepared[i].text for i in live]),
        config,
        theta=theta,
        tau=tau,
    )
    return fresh, {original: position for position, original in enumerate(live)}


@pytest.mark.parametrize("drift_threshold", [0.05, 0.5, None])
def test_incremental_identity_under_churn(search_dataset, drift_threshold):
    """Interleaved add/remove answers identically to a from-scratch index.

    Swept across drift thresholds so the invariant is checked in all three
    regimes: re-ordering nearly every mutation, re-ordering occasionally,
    and never re-ordering (signing forever under the original frozen
    order).
    """
    theta, tau, codes = 0.55, 2, "TJS"
    config = _config(search_dataset, codes)
    rng = random.Random(101 if drift_threshold is None else int(drift_threshold * 100))
    index = SimilarityIndex(
        search_dataset.records.head(25),
        config,
        theta=theta,
        tau=tau,
        drift_threshold=drift_threshold,
    )
    extra = [record.text for record in search_dataset.records.subset(range(25, 60))]
    for step in range(5):
        added = [extra[rng.randrange(len(extra))] for _ in range(rng.randint(1, 4))]
        new_ids = index.add(added)
        assert all(record_id in index for record_id in new_ids)
        removable = index.live_ids()
        index.remove(rng.sample(removable, rng.randint(1, 3)))

        fresh, mapping = _fresh_reference(index, config, theta, tau)
        reference = _member_rows(fresh)
        got = {
            mapping[record_id]: {
                mapping[m]: sim for m, sim in row.items()
            }
            for record_id, row in _member_rows(index).items()
        }
        assert got == reference
    if drift_threshold == 0.05:
        assert index.reorder_count > 0
    if drift_threshold is None:
        assert index.reorder_count == 0


def test_epoch_postings_equal_a_from_scratch_encoding(search_dataset):
    """The flat postings every query probes are a pure function of the live
    members: after each step of a seeded add/remove/re-order history they
    equal the batch join's encoding of the live signed members."""
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(
        search_dataset.records.head(25), config, theta=0.55, tau=2,
        drift_threshold=0.1,
    )
    extra = [record.text for record in search_dataset.records.subset(range(25, 60))]
    rng = random.Random(29)

    def check():
        postings = index._flat_postings()
        live = [index._signed[record_id] for record_id in index.live_ids()]
        keys = len(index._vocab)
        expected = FlatJoinState.from_signed_sides(
            live, live, postings_ascending=True, vocab=index._vocab
        ).postings
        assert len(index._vocab) == keys  # every live key was already encoded
        assert list(postings.offsets) == list(expected.offsets)
        assert list(postings.data) == list(expected.data)

    check()
    for step in range(24):
        action = rng.random()
        if action < 0.45:
            index.add(rng.sample(extra, rng.randint(1, 3)))
        elif action < 0.9 and index.live_count > 6:
            index.remove(rng.sample(index.live_ids(), rng.randint(1, 2)))
        else:
            index.rebuild()
        check()
    assert index.resigned_records > 0  # drift re-orders re-signed members


def test_write_path_instruments_count_churn(search_dataset):
    """Add/remove counters count records; every re-order (drift or
    rebuild) is counted once and timed once, re-signing every live member."""
    config = _config(search_dataset, "TJS")
    telemetry = Telemetry()
    index = SimilarityIndex(
        search_dataset.records.head(25), config, theta=0.55, tau=2,
        drift_threshold=0.05, telemetry=telemetry,
    )
    extra = [record.text for record in search_dataset.records.subset(range(25, 60))]
    rng = random.Random(7)
    added = removed = resigned = 0
    for _ in range(6):
        before = index.reorder_count
        added += len(index.add(rng.sample(extra, rng.randint(1, 3))))
        if index.reorder_count != before:
            resigned += index.live_count
        victims = rng.sample(index.live_ids(), rng.randint(1, 2))
        before = index.reorder_count
        index.remove(victims)
        removed += len(victims)
        if index.reorder_count != before:
            resigned += index.live_count
    index.rebuild()
    resigned += index.live_count
    metrics = telemetry.metrics.snapshot()
    counters = metrics["counters"]
    assert counters["search.adds"] == added
    assert counters["search.removes"] == removed
    assert index.reorder_count > 1
    assert counters["search.reorders"] == index.reorder_count
    assert metrics["histograms"]["search.reorder_seconds"]["count"] == index.reorder_count
    assert index.resigned_records == resigned


def test_snapshot_state_carries_no_rows(search_dataset):
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(12), config, theta=0.6)
    state = index.__getstate__()
    assert "_rows" not in state and "_index" not in state
    # Snapshots written before the rows carry ``_index: None``; loading
    # one drops the slot and re-derives the rows.
    restored = SimilarityIndex.__new__(SimilarityIndex)
    restored.__setstate__(dict(state, _index=None))
    assert not hasattr(restored, "_index")
    assert _member_rows(restored) == _member_rows(index)


def test_rebuild_preserves_answers_and_resets_staleness(search_dataset):
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(
        search_dataset.records.head(20), config, theta=0.55, tau=2,
        drift_threshold=None,
    )
    index.add(["alpha beta", "beta gamma delta"])
    index.remove([3, 7])
    before = _member_rows(index)
    assert index.staleness > 0.0
    index.rebuild()
    assert index.staleness == 0.0
    assert _member_rows(index) == before


def test_remove_validates_ids(search_dataset):
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(6), config, theta=0.5)
    with pytest.raises(KeyError):
        index.remove([2, 2])
    with pytest.raises(KeyError):
        index.remove([99])
    # A failed remove must not have mutated anything.
    assert index.live_count == 6
    index.remove([2])
    with pytest.raises(KeyError):
        index.remove([2])
    assert index.live_count == 5
    assert index.add([]) == []


def test_removed_member_disappears_from_answers(search_dataset):
    config = _config(search_dataset, "TJS")
    collection = search_dataset.records.head(30)
    index = SimilarityIndex(collection, config, theta=0.5, tau=1)
    victim = None
    for record_id in index.live_ids():
        if index.query_member(record_id).matches:
            victim = index.query_member(record_id).matches[0].record_id
            probe = index.prepared[record_id]
            break
    assert victim is not None, "corpus has no similar pair at theta=0.5"
    assert victim in index.query(probe).ids()
    index.remove([victim])
    assert victim not in index.query(probe).ids()


# --------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------- #
def test_snapshot_load_roundtrip(search_dataset, tmp_path):
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(
        search_dataset.records.head(25), config, theta=0.55, tau=2
    )
    index.add(["some brand new record text"])
    index.remove([5])
    store = PreparedStore(tmp_path / "store")
    path = index.snapshot(store)
    assert path.exists()
    fingerprint = index.content_fingerprint()

    # A fresh store instance over the same directory = a service restart.
    restarted = SimilarityIndex.load(PreparedStore(tmp_path / "store"), fingerprint)
    assert restarted.live_ids() == index.live_ids()
    assert _member_rows(restarted) == _member_rows(index)
    probe = "some brand new record"
    assert [
        (m.record_id, m.similarity) for m in restarted.query(probe).matches
    ] == [(m.record_id, m.similarity) for m in index.query(probe).matches]


def test_load_misses_raise_and_tampering_is_rejected(search_dataset, tmp_path):
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(8), config, theta=0.6)
    store = PreparedStore(tmp_path / "store")
    path = index.snapshot(store)
    fingerprint = index.content_fingerprint()

    with pytest.raises(LookupError):
        SimilarityIndex.load(store, "0" * 64)

    # Truncation breaks the pickle: miss, not exception.
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert store.load_index(fingerprint) is None

    # A renamed (foreign-fingerprint) artifact is rejected by the header.
    path.write_bytes(blob)
    foreign = "f" * 64
    path.rename(store.index_path_for(foreign))
    assert store.load_index(foreign) is None


def test_index_pickle_roundtrip(search_dataset):
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(search_dataset.records.head(15), config, theta=0.55)
    clone = pickle.loads(pickle.dumps(index))
    assert _member_rows(clone) == _member_rows(index)
    # Mutations keep working on the unpickled side.
    clone.add(["brand new text"])
    assert clone.live_count == index.live_count + 1


def test_fingerprint_tracks_content_and_contract(search_dataset):
    config = _config(search_dataset, "J")
    collection = search_dataset.records.head(10)
    base = SimilarityIndex(collection, config, theta=0.6, tau=1)
    same = SimilarityIndex(search_dataset.records.head(10), config, theta=0.6, tau=1)
    assert base.content_fingerprint() == same.content_fingerprint()
    other_theta = SimilarityIndex(collection, config, theta=0.7, tau=1)
    assert base.content_fingerprint() != other_theta.content_fingerprint()
    mutated = SimilarityIndex(search_dataset.records.head(10), config, theta=0.6)
    mutated.add(["extra"])
    assert base.content_fingerprint() != mutated.content_fingerprint()
