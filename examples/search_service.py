"""Search-as-a-service: load an index from the store, query, mutate, re-query.

Walks the life cycle of an online :class:`~repro.search.SimilarityIndex`:

1. build the index over a POI corpus and snapshot it into a store,
2. "restart the service" — load the index back by fingerprint (one file
   read, no corpus preparation),
3. answer threshold and top-k single-record queries,
4. ingest new records and retire old ones, re-querying live in between,
5. inspect the verification-cascade counters,
6. shard a batch query across a *warm* process pool — the workers stay
   alive between ``query_batch(executor="process")`` calls, receiving the
   maintained index as flat integer arrays over shared memory, and are
   shut down with ``close()`` (or by using the index as a context
   manager),
7. survive the substrate failing under the service (see below).

Failure semantics
-----------------
A long-lived service meets every failure a one-shot join never sees, and
each one has a defined behaviour rather than an opaque crash:

* **Killed / hung workers, vanished shm segments** — ``query_batch``
  process shards run under a :class:`~repro.join.ShardSupervisor`: failed
  shards are retried with capped backoff, the pool is respawned (the plan
  re-published under a fresh segment), and shards the pool cannot complete
  run serially in the parent.  Answers are **bit-identical** to the serial
  path either way; the ``execution`` report on the result says what it
  cost (``supervision=SupervisorPolicy(...)`` tunes deadlines/budgets).
* **A pool that broke between calls** — ``WarmJoinPool`` detects a broken
  executor on the next session and rebuilds it; ``close()`` is idempotent
  and never re-raises a stale worker death.
* **A crashed service process** — shared-memory segments are tracked in an
  on-disk registry; the next process to export a plan sweeps segments
  whose owners are dead, so ``/dev/shm`` cannot leak across restarts.
* **A rotted snapshot** — a store artifact that fails validation on load
  is moved into the store's ``quarantine/`` directory with a reason file
  (never silently served, never deleted outright); ``load`` just misses
  and the service rebuilds from the corpus.
* **Concurrent mutation** — ``add``/``remove``/``rebuild`` overlapping
  each other or an in-flight query raise
  :class:`~repro.search.ConcurrentMutationError` instead of corrupting
  the postings: serialize mutations with queries in the caller.

Run with::

    python examples/search_service.py
"""

from __future__ import annotations

import tempfile
import time

from repro import SimilarityIndex, SynonymRuleSet, Taxonomy
from repro.core.measures import MeasureConfig
from repro.records import RecordCollection
from repro.store import PreparedStore


def build_knowledge():
    """The synonym rules and taxonomy of the paper's Figure 1."""
    rules = SynonymRuleSet.from_pairs(
        [("coffee shop", "cafe"), ("cake", "gateau"), ("ny", "new york")]
    )
    taxonomy = Taxonomy("Wikipedia")
    food = taxonomy.add_node("food", taxonomy.root)
    coffee = taxonomy.add_node("coffee", food)
    drinks = taxonomy.add_node("coffee drinks", coffee)
    taxonomy.add_node("espresso", drinks)
    taxonomy.add_node("latte", drinks)
    cake = taxonomy.add_node("cake", food)
    taxonomy.add_node("apple cake", cake)
    return rules, taxonomy


def show(index: SimilarityIndex, label: str, result) -> None:
    print(f"  {label}:")
    if not result.matches:
        print("    (no matches)")
    for match in result.matches:
        print(
            f"    #{match.record_id} {index.prepared[match.record_id].text!r} "
            f"(sim={match.similarity:.3f})"
        )


def main() -> None:
    rules, taxonomy = build_knowledge()
    config = MeasureConfig.from_codes("TJS", rules=rules, taxonomy=taxonomy)
    corpus = RecordCollection.from_strings(
        [
            "coffee shop latte Helsingki",
            "pizza place new york",
            "grand hotel paris",
            "apple cake bakery",
            "espresso cafe Helsinki",
            "pizza place ny",
            "louvre museum paris",
            "gateau bakery",
        ]
    )

    with tempfile.TemporaryDirectory() as store_dir:
        # --- build once, snapshot to the store ---------------------------
        index = SimilarityIndex(corpus, config, theta=0.7, tau=2)
        store = PreparedStore(store_dir)
        index.snapshot(store)
        fingerprint = index.content_fingerprint()
        print(f"Built index over {index.live_count} records; "
              f"snapshot {fingerprint[:12]}… persisted")

        # --- "service restart": load by fingerprint ----------------------
        start = time.perf_counter()
        service = SimilarityIndex.load(PreparedStore(store_dir), fingerprint)
        print(f"Restart: index loaded from store in "
              f"{(time.perf_counter() - start) * 1000:.1f}ms "
              f"({service.live_count} records, ready to serve)\n")

        # --- single-record queries ---------------------------------------
        probe = "espresso coffee shop Helsinki"
        print(f"query({probe!r}, θ=0.7):")
        show(service, "matches", service.query(probe))
        show(service, "top-1", service.query_topk(probe, 1))

        # --- online ingestion --------------------------------------------
        added = service.add(["new york pizza placé", "apple gateau bakery"])
        print(f"\nadd() -> new ids {added} (live={service.live_count})")
        show(service, f"query_member({added[1]})", service.query_member(added[1]))

        # --- retirement ---------------------------------------------------
        service.remove([added[0]])
        print(f"\nremove({added[0]}) -> live={service.live_count}")
        show(service, "same query after churn", service.query(probe))

        # --- batched queries and the cascade counters --------------------
        batch = service.query_batch(["espresso cafe", "apple gateau bakery"])
        print(f"\nquery_batch: {len(batch)} pairs across "
              f"{batch.probe_count} probes "
              f"({batch.candidate_count} candidates filtered from "
              f"{batch.processed_pairs} postings)")
        stats = service.stats
        print(f"cascade totals so far: {stats.candidates} candidates, "
              f"{stats.upper_bound_prunes} bound-pruned, "
              f"{stats.graphs_built} graph-verified")

        # --- warm-pool batch execution -----------------------------------
        # The first process query starts the pool; later ones reuse the
        # same live workers (no per-call spawn), each session shipping the
        # current index state as flat arrays in one shared-memory segment.
        probes = ["espresso cafe", "apple gateau bakery", "pizza place ny"]
        serial_batch = service.query_batch(probes)
        for call in (1, 2):
            start = time.perf_counter()
            pooled = service.query_batch(probes, executor="process", workers=2)
            elapsed = (time.perf_counter() - start) * 1000
            assert pooled.pairs == serial_batch.pairs  # bit-identical to serial
            print(f"warm-pool query_batch call {call}: {len(pooled)} pairs "
                  f"in {elapsed:.1f}ms (clean run: "
                  f"{not pooled.execution.faulted})")

        # --- surviving a crashed worker ----------------------------------
        # Deterministically kill the worker serving the first shard (the
        # same injection the chaos test suite uses); the supervisor
        # respawns the pool, re-dispatches, and the answers don't change.
        from repro import SupervisorPolicy
        from repro.faults import FAULTS, FaultRule
        from repro.telemetry import Telemetry, set_default

        # Route the chaos query's trace and metrics into a dedicated
        # bundle so the recovery summary below reads from one clean run.
        telemetry = Telemetry()
        previous = set_default(telemetry)
        try:
            with FAULTS.injected(FaultRule("worker_kill", shard=0)):
                service.close()  # fresh pool so workers see the armed fault
                survived = service.query_batch(
                    probes, executor="process", workers=2,
                    supervision=SupervisorPolicy(backoff_base=0.0),
                )
        finally:
            set_default(previous)
        assert survived.pairs == serial_batch.pairs
        report = survived.execution
        counters = telemetry.report()["metrics"]["counters"]
        # The telemetry counters and the result's ExecutionReport describe
        # the same run — the registry is just the always-on view of it.
        assert counters.get("supervisor.retries", 0) == report.retries
        print(f"after killing a worker mid-query: {len(survived)} pairs, "
              f"still bit-identical; recovery summary from the telemetry "
              f"report:")
        for key in (
            "supervisor.retries",
            "supervisor.respawns",
            "supervisor.worker_failures",
            "supervisor.fallback_shards",
        ):
            print(f"    {key}: {counters.get(key, 0)}")
        failed_attempts = sum(
            1
            for span in telemetry.tracer.iter_spans()
            if span.name == "shard-attempt-failed"
        )
        print(f"    failed shard attempts in the merged trace: "
              f"{failed_attempts} (render the full tree with "
              f"python -m repro.telemetry --demo)")
        service.close()  # stop the warm workers; the index stays queryable
        show(service, "after close, still serving", service.query(probe))
    print("\n(store directory cleaned up — a real service would keep it, "
          "snapshot after churn, and reload by fingerprint on restart)")


if __name__ == "__main__":
    main()
