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
import sys
import threading

import pytest

from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin, PreparedCollection
from repro.join.flat import FlatJoinState, FlatSignatures
from repro.join.signatures import sign_record
from repro.records import Record, RecordCollection
from repro.search import SimilarityIndex
from repro.store import INDEX_FORMAT_VERSION, PreparedStore
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


@pytest.mark.parametrize("codes", ["J", "TJS"])
def test_member_row_equals_one_right_probed_batch(search_dataset, codes):
    """A member read verifies its row as two probe groups of the member;
    its matches, their order and its counters equal one batch of the row
    oriented (min_id, max_id) and probed from the right."""
    from repro.join.verification import UnifiedVerifier

    config = _config(search_dataset, codes)
    index = SimilarityIndex(search_dataset.records.head(45), config, theta=0.45, tau=1)
    oracle = UnifiedVerifier(config, 0.45)
    for record_id in range(0, 45, 4):
        member = FlatSignatures.from_rows(index._vocab, [record_id], [index._rows[record_id]])
        candidates, _ = index._probe_members(member, 1)
        row = [
            (min(record_id, member_id), max(record_id, member_id))
            for _, member_id in candidates
            if member_id != record_id
        ]
        before = oracle.stats.snapshot()
        pairs = oracle.verify_batch(row, index.prepared, index.prepared, probe_side="right")
        expected = [
            (pair.left_id if pair.right_id == record_id else pair.right_id, pair.similarity)
            for pair in pairs
        ]
        result = index.query_member(record_id)
        assert [(m.record_id, m.similarity) for m in result.matches] == expected
        assert result.verification == oracle.stats.diff(before)
        assert result.candidate_count == len(row)


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
        # A fractional query tau used to run silently at its floor.
        for tau in (3, 0, 1.5, float("nan"), True):
            with pytest.raises(ValueError, match="tau"):
                call(tau=tau)
        call(theta=0.9, tau=1)  # tightening stays served
    with pytest.raises(KeyError):
        index.query_member(999)
    # The index tau is checked before the corpus is prepared.
    for tau in (0, 2.5, float("nan"), True):
        with pytest.raises(ValueError, match="tau must be a positive integer"):
            SimilarityIndex(search_dataset.records.head(10), config, tau=tau)


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


def _counters(stats):
    return {name: getattr(stats, name) for name in stats._COUNTERS}


@pytest.mark.parametrize("codes", ["J", "S", "T", "TJS"])
def test_reads_count_as_the_join_under_the_frozen_order(search_dataset, codes):
    """A read's counters are those of joining {probe} against the live
    members under the index's frozen order: the same pairs, candidate and
    processed counts and every VerificationStats field — for query, for
    each probe of query_batch, and for query_topk's candidate count."""
    config = _config(search_dataset, codes)
    theta, tau = 0.5, 2
    index = SimilarityIndex(search_dataset.records.head(35), config, theta=theta, tau=tau)
    index.add([record.text for record in search_dataset.records.subset(range(35, 40))])
    index.remove([3, 17, 36])
    live = index.live_ids()
    corpus = PreparedCollection.prepare(
        RecordCollection(
            Record(position, index.prepared[member].text, index.prepared[member].tokens)
            for position, member in enumerate(live)
        ),
        config,
    )
    engine = PebbleJoin(config, theta, tau=tau)
    # External probes, plus copies of members so some pairs clear θ.
    probes = list(search_dataset.records.subset(range(40, 52))) + [
        index.prepared[member] for member in live[:4]
    ]
    totals = {"candidates": 0, "processed": 0, "verification": {}}
    batch = index.query_batch(probes)
    grouped = batch.by_probe()
    for position, probe in enumerate(probes):
        single = RecordCollection([Record(0, probe.text, probe.tokens)])
        joined = engine.join(single, corpus, precomputed_order=index._order)
        statistics = joined.statistics
        expected = {live[pair.right_id]: pair.similarity for pair in joined.pairs}
        result = index.query(probe)
        assert {m.record_id: m.similarity for m in result.matches} == expected
        assert result.candidate_count == statistics.candidate_count
        assert result.processed_pairs == statistics.processed_pairs
        assert _counters(result.verification) == _counters(statistics.verification)
        assert {
            m.record_id: m.similarity for m in grouped.get(position, [])
        } == expected
        assert index.query_topk(probe, 2).candidate_count == statistics.candidate_count
        totals["candidates"] += statistics.candidate_count
        totals["processed"] += statistics.processed_pairs
        for name, value in _counters(statistics.verification).items():
            totals["verification"][name] = totals["verification"].get(name, 0) + value
    assert batch.candidate_count == totals["candidates"] > 0
    assert batch.processed_pairs == totals["processed"]
    assert _counters(batch.verification) == totals["verification"]
    if "J" in codes:
        # Member copies clear every θ under Jaccard; S and T alone score a
        # token 0 unless a rule or taxonomy node covers it.
        assert totals["verification"]["results"] > 0


def test_single_query_traces_the_batch_body(search_dataset):
    """query runs the shard body of query_batch: one query root with the
    body's filter and verify spans."""
    config = _config(search_dataset, "TJS")
    telemetry = Telemetry()
    index = SimilarityIndex(
        search_dataset.records.head(20), config, theta=0.5, telemetry=telemetry
    )
    result = index.query(search_dataset.records[3])
    (root,) = telemetry.tracer.roots
    assert root.name == "query"
    assert [child.name for child in root.children] == ["filter", "verify"]
    assert root.attrs["candidates"] == result.candidate_count
    assert root.children[1].attrs["candidates"] == result.verification.candidates


def test_query_metrics_sum_the_verification_blocks(search_dataset):
    """The per-query tier counters equal the summed QueryResult stats."""
    config = _config(search_dataset, "TJS")
    telemetry = Telemetry()
    index = SimilarityIndex(
        search_dataset.records.head(45), config, theta=0.45, tau=1, telemetry=telemetry
    )
    # Copies of members (0-2) reach Algorithm 1; the rest mostly prune.
    probe_ids = [0, 1, 2] + list(range(45, 53))
    probes = [search_dataset.records[record_id] for record_id in probe_ids]
    results = [index.query(probe) for probe in probes]
    results += [index.query_topk(probe, 2) for probe in probes]
    results += [index.query_member(record_id) for record_id in range(6)]
    results.append(index.query_batch(probes))
    counters = telemetry.metrics.snapshot()["counters"]
    for field in ("upper_bound_prunes", "graphs_built"):
        assert counters[f"search.{field}"] == sum(
            getattr(result.verification, field) for result in results
        )
        assert counters[f"search.{field}"] > 0
    assert counters["search.verified"] == sum(
        result.verification.candidates for result in results
    )
    assert counters["search.candidates"] == sum(
        result.candidate_count for result in results
    )


def test_concurrent_reads_keep_their_own_counters(search_dataset):
    """Reader threads share the index's verifier.  Every read succeeds, its
    counters equal the same read's single-threaded ones, and the
    cumulative counters grow by exactly their sum: a read counts the block
    its own cascade calls filled, not a before/after difference of
    counters that other readers move too."""
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(search_dataset.records.head(45), config, theta=0.45, tau=1)
    probes = [search_dataset.records[record_id].text for record_id in range(45, 60)]
    reads = [(index.query, probe) for probe in probes]
    reads += [(index.query_member, record_id) for record_id in range(0, 45, 3)]
    reads += [(lambda probe: index.query_topk(probe, 2), probe) for probe in probes[:5]]
    expected = [_counters(read(argument).verification) for read, argument in reads]
    before = index.stats.snapshot()
    observed, errors = [], []

    def reader():
        try:
            for _ in range(2):
                observed.append(
                    [_counters(read(argument).verification) for read, argument in reads]
                )
        except Exception as exc:  # asserted on below, in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert observed == [expected] * 8
    assert _counters(index.stats.diff(before)) == {
        name: 8 * sum(block[name] for block in expected) for name in expected[0]
    }


def test_topk_validates_k(search_dataset):
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(5), config, theta=0.5)
    with pytest.raises(ValueError, match="k"):
        index.query_topk("anything", 0)
    # NaN, infinite and fractional k used to return every match (the early
    # stop never fired); k is checked before the probe is even signed.
    for k in (float("nan"), float("inf"), 1.5, 2.5):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            index.query_topk("anything", k)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            index.query_topk(12345, k)  # not a probe: signing would raise


def _expected_head(index, probe, k, **query_kwargs):
    full = index.query(probe, **query_kwargs)
    ranked = sorted(
        ((m.similarity, m.record_id) for m in full.matches),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return full, ranked[:k]


def test_topk_with_fewer_matches_than_k(search_dataset):
    """Fewer than k candidates reach the θ floor: every match comes back,
    in (-similarity, id) order, and the lazy queue verifies no more
    candidates than the eager one would have (all of them)."""
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(search_dataset.records.head(45), config, theta=0.45, tau=1)
    probes = [search_dataset.records[record_id] for record_id in (0, 46, 50, 57)]
    for probe in probes:
        full, expected = _expected_head(index, probe, 40)
        assert len(full.matches) < 40
        top = index.query_topk(probe, 40)
        assert [(m.similarity, m.record_id) for m in top.matches] == expected
        assert top.candidate_count == full.candidate_count
        evaluated = top.candidate_count - top.bound_skipped
        assert len(full.matches) <= evaluated <= full.verification.candidates


def test_topk_at_a_tightened_theta(search_dataset):
    """A query θ above the index θ: the head of the tightened full query."""
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(search_dataset.records.head(45), config, theta=0.45, tau=1)
    rng = random.Random(11)
    probes = [search_dataset.records[rng.randrange(60)] for _ in range(6)]
    for probe in probes:
        for theta in (0.5, 0.7, 0.9):
            for k in (1, 3):
                _, expected = _expected_head(index, probe, k, theta=theta)
                top = index.query_topk(probe, k, theta=theta)
                assert [(m.similarity, m.record_id) for m in top.matches] == expected


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


def test_approximation_t_validated_at_construction(search_dataset):
    """A t outside (1, inf) used to construct and fail on the first query
    that built a graph."""
    config = _config(search_dataset, "J")
    collection = search_dataset.records.head(5)
    for t in (1.0, 0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t must be"):
            SimilarityIndex(collection, config, approximation_t=t)


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


@pytest.mark.parametrize("rebuild_every", [1, 3, None])
def test_incremental_identity_under_churn(search_dataset, rebuild_every):
    """Interleaved add/remove answers identically to a from-scratch index.

    Swept across rebuild cadences so the invariant is checked in all three
    regimes: a new order after every step, after every third step, and
    never (signing forever under the original frozen order).
    """
    theta, tau, codes = 0.55, 2, "TJS"
    config = _config(search_dataset, codes)
    rng = random.Random(101 if rebuild_every is None else rebuild_every)
    index = SimilarityIndex(
        search_dataset.records.head(25), config, theta=theta, tau=tau
    )
    extra = [record.text for record in search_dataset.records.subset(range(25, 60))]
    for step in range(5):
        added = [extra[rng.randrange(len(extra))] for _ in range(rng.randint(1, 4))]
        new_ids = index.add(added)
        assert all(record_id in index for record_id in new_ids)
        removable = index.live_ids()
        index.remove(rng.sample(removable, rng.randint(1, 3)))
        if rebuild_every is not None and (step + 1) % rebuild_every == 0:
            index.rebuild()

        fresh, mapping = _fresh_reference(index, config, theta, tau)
        reference = _member_rows(fresh)
        got = {
            mapping[record_id]: {
                mapping[m]: sim for m, sim in row.items()
            }
            for record_id, row in _member_rows(index).items()
        }
        assert got == reference
    # Writes never re-order: only rebuild() does.
    assert index.reorder_count == (0 if rebuild_every is None else 5 // rebuild_every)


def test_epoch_postings_equal_a_from_scratch_encoding(search_dataset):
    """The flat postings every query probes are a pure function of the live
    members: after each step of a seeded add/remove/rebuild history they
    equal the batch join's encoding of the live members signed afresh
    under the index's order."""
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(search_dataset.records.head(25), config, theta=0.55, tau=2)
    extra = [record.text for record in search_dataset.records.subset(range(25, 60))]
    rng = random.Random(29)

    def check():
        postings = index._flat_postings()
        live = [
            sign_record(
                index.prepared[record_id],
                config,
                index._order,
                index.theta,
                tau=index.tau,
                method=index.method,
            )
            for record_id in index.live_ids()
        ]
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
    assert index.resigned_records > 0  # rebuilds re-signed members


def test_write_path_instruments_count_churn(search_dataset):
    """Add/remove counters count records; writes never re-order, and every
    rebuild is counted once and timed once, re-signing every live member."""
    config = _config(search_dataset, "TJS")
    telemetry = Telemetry()
    index = SimilarityIndex(
        search_dataset.records.head(25), config, theta=0.55, tau=2, telemetry=telemetry
    )
    extra = [record.text for record in search_dataset.records.subset(range(25, 60))]
    rng = random.Random(7)
    added = removed = resigned = 0
    for step in range(6):
        added += len(index.add(rng.sample(extra, rng.randint(1, 3))))
        victims = rng.sample(index.live_ids(), rng.randint(1, 2))
        index.remove(victims)
        removed += len(victims)
        if step % 2:
            index.rebuild()
            resigned += index.live_count
    metrics = telemetry.metrics.snapshot()
    counters = metrics["counters"]
    assert counters["search.adds"] == added
    assert counters["search.removes"] == removed
    assert index.reorder_count == 3
    assert counters["search.reorders"] == index.reorder_count
    assert metrics["histograms"]["search.reorder_seconds"]["count"] == index.reorder_count
    assert index.resigned_records == resigned


def test_snapshot_state_carries_no_rows(search_dataset):
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(12), config, theta=0.6)
    state = index.__getstate__()
    assert "_rows" not in state
    # Loading re-derives every row from the stored lengths.
    restored = SimilarityIndex.__new__(SimilarityIndex)
    restored.__setstate__(state)
    assert _member_rows(restored) == _member_rows(index)


def test_rebuild_preserves_answers(search_dataset):
    config = _config(search_dataset, "TJS")
    index = SimilarityIndex(search_dataset.records.head(20), config, theta=0.55, tau=2)
    index.add(["alpha beta", "beta gamma delta"])
    index.remove([3, 7])
    before = _member_rows(index)
    index.rebuild()
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


def test_bool_is_not_a_member_id(search_dataset):
    """``True == 1`` in Python, but a bool never names member 1: remove and
    query_member refuse it before anything changes."""
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(20), config, theta=0.5)
    assert 1 in index and True not in index
    with pytest.raises(KeyError):
        index.remove([True])
    with pytest.raises(KeyError):
        index.query_member(True)
    assert index.live_count == 20 and 1 in index


def test_bare_string_is_not_an_iterable_of_records(search_dataset):
    """A str is iterable, but one text is never one record (or probe) per
    character: add and query_batch refuse it, and add changes nothing."""
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(20), config, theta=0.5)
    with pytest.raises(TypeError, match="not one string"):
        index.add("coffee shop")
    with pytest.raises(TypeError, match="not one string"):
        index.query_batch("cafe")
    assert index.live_count == 20
    # The next id is still 20: the refused call assigned none.
    assert index.add(["coffee shop"]) == [20]
    assert index.query_batch(["cafe"]).probe_count == 1


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


def test_older_snapshot_format_is_a_miss(search_dataset, tmp_path):
    """A snapshot saved under index format v4 pickles the index with its
    ``adaptive_verification`` flag, so a current store never loads it."""
    assert INDEX_FORMAT_VERSION == 5
    config = _config(search_dataset, "J")
    index = SimilarityIndex(search_dataset.records.head(8), config, theta=0.6)
    index.snapshot(PreparedStore(tmp_path / "store", index_format_version=4))
    with pytest.raises(LookupError):
        SimilarityIndex.load(PreparedStore(tmp_path / "store"), index.content_fingerprint())


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
