"""The versioned on-disk prepared-collection store: reuse and invalidation.

Two contracts are enforced here.  *Reuse*: a warm artifact reproduces the
serial join pair-for-pair (the process executor's store-warmed row lives in
the path table of ``tests/test_parallel_join.py``), with the persisted
signature cache making warm signing a hit.  *Invalidation*: any change to
the corpus, the measure configuration, either knowledge source, or the
on-disk format version must force re-preparation; no manipulation of the
artifact files (rename, truncation, corruption, version edits) may ever
surface stale prepared state.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SynonymRuleSet, Taxonomy
from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin, UnifiedJoin
from repro.records import RecordCollection
from repro.store import (
    FORMAT_VERSION,
    PreparedStore,
    collection_fingerprint,
    prepared_store,
)

THETA = 0.55
TAU = 2

SRC = Path(__file__).resolve().parents[1] / "src"

#: One two-collection join through a store at ``sys.argv[1]``, counting the
#: records the signing cache signs; prints the count and the pairs.
TWO_COLLECTION_RUN = r'''
import json, sys
import repro.join.prepared as prepared_module
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import UnifiedJoin
from repro.store import PreparedStore

signings = []
original = prepared_module.sign_record


def counted(*args, **kwargs):
    signings.append(1)
    return original(*args, **kwargs)


prepared_module.sign_record = counted
dataset = generate_dataset(TINY_PROFILE, seed=83)
records = dataset.records.head(30)
join = UnifiedJoin(
    rules=dataset.rules, taxonomy=dataset.taxonomy, theta=%r, tau=%r,
    store=PreparedStore(sys.argv[1]),
)
result = join.join(records.subset(range(0, 15)), records.subset(range(15, 30)))
print(json.dumps({
    "signings": len(signings),
    "pairs": [[p.left_id, p.right_id, p.similarity] for p in result.pairs],
}))
''' % (THETA, TAU)


@pytest.fixture(scope="module")
def store_dataset():
    return generate_dataset(TINY_PROFILE, seed=83)


def _config(dataset, codes="TJS", q=3):
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=q
    )


def _triples(pairs):
    return [(pair.left_id, pair.right_id, pair.similarity) for pair in pairs]


def _edited(collection: RecordCollection) -> RecordCollection:
    """The same corpus with one record's text changed."""
    texts = collection.texts()
    texts[1] = texts[1] + " edited"
    return RecordCollection.from_strings(texts)


class TestFingerprint:
    def test_stable_and_content_sensitive(self, store_dataset):
        collection = store_dataset.records.head(10)
        config = _config(store_dataset)
        base = collection_fingerprint(collection, config)
        # Deterministic, and identical for a prepared wrapper of the corpus.
        assert base == collection_fingerprint(collection, config)
        prepared = PebbleJoin(config, THETA).prepare(collection)
        assert base == collection_fingerprint(prepared, config)
        # Every content axis moves the fingerprint.
        assert base != collection_fingerprint(_edited(collection), config)
        assert base != collection_fingerprint(collection.head(9), config)
        assert base != collection_fingerprint(collection, _config(store_dataset, "TJ"))
        assert base != collection_fingerprint(collection, _config(store_dataset, q=4))
        other_rules = SynonymRuleSet.from_pairs([("coffee shop", "cafe")])
        assert base != collection_fingerprint(
            collection,
            MeasureConfig.from_codes(
                "TJS", rules=other_rules, taxonomy=store_dataset.taxonomy, q=3
            ),
        )

    def test_equal_content_from_distinct_objects(self, store_dataset):
        collection = store_dataset.records.head(8)
        config = _config(store_dataset)
        # A config rebuilt from equal knowledge sources (the pickle
        # round-trip every worker performs) fingerprints identically.
        clone = pickle.loads(pickle.dumps(config))
        assert clone is not config and clone == config
        assert collection_fingerprint(collection, clone) == collection_fingerprint(
            collection, config
        )


class TestStoreReuse:
    def test_round_trip_joins_identically(self, store_dataset, tmp_path):
        collection = store_dataset.records.head(30)
        config = _config(store_dataset)
        reference = PebbleJoin(config, THETA, tau=TAU).join(collection)

        store = PreparedStore(tmp_path)
        prepared = store.prepare(collection, config)
        assert store.last_outcome is not None and not store.last_outcome.hit
        cold = PebbleJoin(config, THETA, tau=TAU).join(prepared)
        assert _triples(cold.pairs) == _triples(reference.pairs)
        store.save(prepared)  # persist the join's signatures and graph sides

        warm_store = PreparedStore(tmp_path)
        loaded = warm_store.prepare(collection, config)
        assert warm_store.last_outcome.hit
        # Signing against the persisted order is a cache hit, not a re-sign.
        assert loaded.cached_signature_count == prepared.cached_signature_count
        warm = PebbleJoin(config, THETA, tau=TAU).join(loaded)
        assert _triples(warm.pairs) == _triples(reference.pairs)
        assert warm.statistics.signing_seconds < cold.statistics.signing_seconds

    def test_unified_join_auto_persists_signatures(self, store_dataset, tmp_path):
        collection = store_dataset.records.head(25)
        kwargs = dict(
            rules=store_dataset.rules,
            taxonomy=store_dataset.taxonomy,
            theta=THETA,
            tau=TAU,
        )
        reference = UnifiedJoin(**kwargs).join(collection)

        cold_store = PreparedStore(tmp_path)
        cold = UnifiedJoin(**kwargs, store=cold_store).join(collection)
        assert _triples(cold.pairs) == _triples(reference.pairs)
        assert not cold_store.last_outcome.hit

        warm_store = PreparedStore(tmp_path)
        warm_join = UnifiedJoin(**kwargs, store=warm_store)
        warm = warm_join.join(collection)
        assert warm_store.last_outcome.hit
        assert _triples(warm.pairs) == _triples(reference.pairs)
        # The persisted artifact carried the cold join's signing: the warm
        # run's signing stage is a cache hit.
        assert warm.statistics.signing_seconds < cold.statistics.signing_seconds

    def test_prepare_sourced_sides_persist_back_after_join(
        self, store_dataset, tmp_path
    ):
        """A side obtained from the facade's own store-backed prepare() must
        get the same persist-back as a raw side (a caller-built preparation
        must not)."""
        collection = store_dataset.records.head(20)
        kwargs = dict(
            rules=store_dataset.rules,
            taxonomy=store_dataset.taxonomy,
            theta=THETA,
            tau=TAU,
        )
        store = PreparedStore(tmp_path)
        join = UnifiedJoin(**kwargs, store=store)
        prepared = join.prepare(collection)
        join.join(prepared)
        # The join's signing was persisted: a fresh store sees it.
        loaded = PreparedStore(tmp_path).load(collection, join.config)
        assert loaded is not None and loaded.cached_signature_count >= 1
        # A preparation built outside the store is never auto-persisted.
        foreign_dir = tmp_path / "foreign"
        foreign_store = PreparedStore(foreign_dir)
        foreign_join = UnifiedJoin(**kwargs, store=foreign_store)
        outside = PebbleJoin(foreign_join.config, THETA, tau=TAU).prepare(collection)
        foreign_join.join(outside)
        assert list(foreign_store.root.iterdir()) == []

    def test_two_collection_warm_runs_sign_from_cache_without_growth(
        self, store_dataset, tmp_path
    ):
        """Shared orders never persist (weakref-cached), but a warm run's
        rebuilt order is content-equal to the persisted signing's: signing
        must be a cache hit and the artifacts must stop growing."""
        records = store_dataset.records.head(30)
        left = records.subset(range(0, 15))
        right = records.subset(range(15, 30))
        kwargs = dict(
            rules=store_dataset.rules,
            taxonomy=store_dataset.taxonomy,
            theta=THETA,
            tau=TAU,
        )
        reference = UnifiedJoin(**kwargs).join(left, right)
        sizes, signing_seconds = [], []
        for _ in range(3):
            store = PreparedStore(tmp_path)
            result = UnifiedJoin(**kwargs, store=store).join(left, right)
            assert _triples(result.pairs) == _triples(reference.pairs)
            sizes.append(sum(p.stat().st_size for p in store.root.iterdir()))
            signing_seconds.append(result.statistics.signing_seconds)
        assert sizes[1] == sizes[2], "warm runs must not grow the artifacts"
        assert signing_seconds[2] < max(signing_seconds[0] / 10, 1e-3)

    def test_warm_run_in_another_interpreter_signs_nothing(self, tmp_path):
        """Signatures persist keyed by their order's value, and string
        hashes are salted per interpreter: a warm two-collection run under
        another hash seed must still find every signing of the cold run
        (it would not if an order's hash were pickled)."""

        def run(seed: str) -> dict:
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
            completed = subprocess.run(
                [sys.executable, "-c", TWO_COLLECTION_RUN, str(tmp_path)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=False,
            )
            assert completed.returncode == 0, completed.stderr
            return json.loads(completed.stdout.strip().splitlines()[-1])

        cold, warm = run("0"), run("1")
        assert cold["signings"] == 30
        assert warm["signings"] == 0
        assert warm["pairs"] == cold["pairs"]

    def test_equal_orders_share_one_signing(self, store_dataset):
        """Two orders built over the same collections compare and hash equal
        and share one entry of the signing cache; other content misses."""
        from repro.join import build_shared_order

        config = _config(store_dataset)
        engine = PebbleJoin(config, THETA, tau=TAU)
        records = store_dataset.records.head(20)
        left_prep = engine.prepare(records.subset(range(0, 10)))
        right_prep = engine.prepare(records.subset(range(10, 20)))
        order_a = build_shared_order([left_prep, right_prep])
        order_b = build_shared_order([left_prep, right_prep])
        assert order_a is not order_b
        assert order_a == order_b and hash(order_a) == hash(order_b)
        signed_a = left_prep.signed(order_a, THETA, TAU, engine.method)
        assert left_prep.signed(order_b, THETA, TAU, engine.method) is signed_a
        assert left_prep.cached_signature_count == 1
        # An order over other content misses.
        solo = left_prep.build_order()
        assert solo != order_a
        resigned = left_prep.signed(solo, THETA, TAU, engine.method)
        assert resigned is not signed_a
        assert left_prep.cached_signature_count == 2

    def test_unified_join_batches_persist_after_stream(self, store_dataset, tmp_path):
        collection = store_dataset.records.head(25)
        kwargs = dict(
            rules=store_dataset.rules,
            taxonomy=store_dataset.taxonomy,
            theta=THETA,
            tau=TAU,
        )
        serial = list(UnifiedJoin(**kwargs).join_batches(collection, batch_size=6))
        store = PreparedStore(tmp_path)
        streamed = list(
            UnifiedJoin(**kwargs, store=store).join_batches(collection, batch_size=6)
        )
        assert [_triples(b.pairs) for b in streamed] == [
            _triples(b.pairs) for b in serial
        ]
        # The stream's exhaustion persisted the signed preparation: a fresh
        # store sees an artifact that already carries the signing.
        warm_store = PreparedStore(tmp_path)
        loaded = warm_store.load(collection, UnifiedJoin(**kwargs).config)
        assert loaded is not None
        assert loaded.cached_signature_count >= 1
        warm = UnifiedJoin(**kwargs, store=warm_store).join(collection)
        assert warm_store.last_outcome.hit
        assert _triples(warm.pairs) == [
            triple for batch in serial for triple in _triples(batch.pairs)
        ]

    def test_store_decides_what_to_persist(self, store_dataset, tmp_path):
        """The store saves a collection it manages only when its signature
        count moved since the store last loaded or saved it, whichever
        engine signed it: an auto join writes once, a warm rerun writes
        nothing, and a store-less signing is saved by the next store-backed
        join."""
        from repro.telemetry import Telemetry

        collection = store_dataset.records.head(20)
        kwargs = dict(
            rules=store_dataset.rules,
            taxonomy=store_dataset.taxonomy,
            theta=THETA,
            tau="auto",
            tau_universe=(1, 2, 3),
            sample_probability=0.5,
            recommendation_seed=3,
        )

        def writes(run, root):
            telemetry = Telemetry()
            store = PreparedStore(root, telemetry=telemetry)
            result = run(store)
            return telemetry.metrics.counter("store.writes").value, result, store

        def auto_join(store):
            join = UnifiedJoin(**kwargs, store=store)
            return join.join(join.prepare(collection))

        # Preparing writes the baseline; the auto join writes its signing once.
        count, cold, _ = writes(auto_join, tmp_path / "auto")
        assert count == 2
        count, warm, store = writes(auto_join, tmp_path / "auto")
        assert store.last_outcome.hit and count == 0
        assert _triples(warm.pairs) == _triples(cold.pairs)

        config = _config(store_dataset)

        def signed_elsewhere(store):
            prepared = store.prepare(collection, config)
            PebbleJoin(config, THETA, tau=TAU).join(prepared)  # no store: no write
            # The signing is cached, but the store has not saved it yet.
            PebbleJoin(config, THETA, tau=TAU, store=store).join(prepared)
            PebbleJoin(config, THETA, tau=TAU, store=store).join(prepared)
            return store.persist(prepared)

        count, persisted, _ = writes(signed_elsewhere, tmp_path / "elsewhere")
        assert count == 2 and persisted is None
        loaded = PreparedStore(tmp_path / "elsewhere").load(collection, config)
        assert loaded.cached_signature_count == 1


class TestStoreInvalidation:
    def _store_with_artifact(self, dataset, tmp_path, collection=None, config=None):
        collection = (
            dataset.records.head(15) if collection is None else collection
        )
        config = _config(dataset) if config is None else config
        store = PreparedStore(tmp_path)
        store.prepare(collection, config)
        return store, collection, config

    def test_config_change_forces_repreparation(self, store_dataset, tmp_path):
        store, collection, config = self._store_with_artifact(store_dataset, tmp_path)
        assert store.load(collection, config) is not None
        assert store.load(collection, _config(store_dataset, "TJ")) is None
        assert store.load(collection, _config(store_dataset, q=4)) is None

    def test_corpus_edit_forces_repreparation(self, store_dataset, tmp_path):
        store, collection, config = self._store_with_artifact(store_dataset, tmp_path)
        assert store.load(_edited(collection), config) is None
        assert store.load(collection.head(14), config) is None

    def test_rule_set_change_forces_repreparation(self, store_dataset, tmp_path):
        store, collection, config = self._store_with_artifact(store_dataset, tmp_path)
        grown = SynonymRuleSet(store_dataset.rules.rules)
        grown.add_text_rule("cake", "gateau")
        changed = MeasureConfig.from_codes(
            "TJS", rules=grown, taxonomy=store_dataset.taxonomy, q=3
        )
        assert store.load(collection, changed) is None

    def test_taxonomy_change_forces_repreparation(self, store_dataset, tmp_path):
        store, collection, config = self._store_with_artifact(store_dataset, tmp_path)
        other_tax = Taxonomy("root")
        other_tax.add_node("food", other_tax.root)
        changed = MeasureConfig.from_codes(
            "TJS", rules=store_dataset.rules, taxonomy=other_tax, q=3
        )
        assert store.load(collection, changed) is None

    def test_format_version_bump_forces_repreparation(
        self, store_dataset, tmp_path, monkeypatch
    ):
        store, collection, config = self._store_with_artifact(store_dataset, tmp_path)
        monkeypatch.setattr(prepared_store, "FORMAT_VERSION", FORMAT_VERSION + 1)
        bumped = PreparedStore(tmp_path)
        assert bumped.load(collection, config) is None
        bumped.prepare(collection, config)
        assert not bumped.last_outcome.hit
        assert bumped.load(collection, config) is not None
        # Both versions now coexist; each version only sees its own artifact.
        monkeypatch.undo()
        assert store.load(collection, config) is not None

    def test_renamed_artifact_is_rejected(self, store_dataset, tmp_path):
        """Stale-artifact reuse by file manipulation must be impossible."""
        store, collection, config = self._store_with_artifact(store_dataset, tmp_path)
        # Write a second corpus's artifact, then overwrite it with the first
        # corpus's file (simulating a mixed-up sync or a copied cache dir).
        other = _edited(collection)
        store.prepare(other, config)
        source = store.path_for(collection_fingerprint(collection, config))
        target = store.path_for(collection_fingerprint(other, config))
        os.replace(source, target)
        # The header fingerprint no longer matches the requested content.
        assert store.load(other, config) is None
        # A re-prepare heals the slot.
        store.prepare(other, config)
        assert store.last_outcome is not None and not store.last_outcome.hit
        assert store.load(other, config) is not None

    def test_corrupt_or_tampered_artifact_is_rejected(self, store_dataset, tmp_path):
        store, collection, config = self._store_with_artifact(store_dataset, tmp_path)
        path = store.path_for(collection_fingerprint(collection, config))
        blob = path.read_bytes()
        # Truncated payload.
        path.write_bytes(blob[: len(blob) // 2])
        assert store.load(collection, config) is None
        # Header edited to a future format version (filename kept).
        header_end = blob.find(b"\n") + 1
        current = f" v{FORMAT_VERSION} ".encode("ascii")
        future = blob[:header_end].replace(current, b" v99 ") + blob[header_end:]
        assert future != blob
        path.write_bytes(future)
        assert store.load(collection, config) is None
        # Garbage header.
        path.write_bytes(b"not-an-artifact\n" + blob[header_end:])
        assert store.load(collection, config) is None

    def test_prepare_rejects_prepared_input(self, store_dataset, tmp_path):
        store = PreparedStore(tmp_path)
        config = _config(store_dataset)
        prepared = PebbleJoin(config, THETA).prepare(store_dataset.records.head(5))
        with pytest.raises(TypeError):
            store.prepare(prepared, config)
