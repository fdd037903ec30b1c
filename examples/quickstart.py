"""Quickstart: the Figure-1 example of the paper, end to end.

Builds the toy taxonomy and synonym rules of the paper's Figure 1, computes
the unified similarity of the running example pair, joins two small POI
collections with the AU-Filter (DP) join, and shows how prepared
collections let repeated joins reuse one pebble generation and signing.

What to reach for when
----------------------
===============================================  ================================================
You want…                                        Reach for…
===============================================  ================================================
one similarity value / explanation               ``UnifiedSimilarity`` (``repro.core``)
one batch join, knobs picked for you             ``UnifiedJoin`` (``tau="auto"`` recommends τ)
repeated joins over the same collections         ``UnifiedJoin.prepare`` / ``PebbleJoin.prepare``
streaming results chunk by chunk                 ``join_batches(batch_size=...)``
forcing/avoiding the vectorized filter           ``kernel="numpy"|"python"`` (default ``"auto"``)
all cores on one big join                        ``executor="process"`` (``workers=``)
many process joins, no per-join pool spin-up     ``WarmJoinPool`` (``pool=`` on ``join``/batches)
joins that survive crashed or hung workers       ``SupervisorPolicy`` (``supervision=`` on joins)
warm restarts / artifacts on disk                ``PreparedStore`` (``store=`` on either engine)
store housekeeping from the shell                ``python -m repro.store <dir> [--evict|--stats]``
per-stage timings, metrics, a merged run trace   ``Telemetry`` (``telemetry=`` on engines; see ``docs/observability.md``)
rendering a saved or demo run report             ``python -m repro.telemetry <report>|--demo``
answering single records *right now*             ``SimilarityIndex`` (``repro.search``)
a corpus that keeps changing while serving       ``SimilarityIndex.add`` / ``.remove``
restart a service without re-preparing           ``SimilarityIndex.snapshot`` / ``.load``
gating a change before commit/CI                 ``scripts/check`` (``python -m repro.analysis``)
===============================================  ================================================

Before sending a change, run ``scripts/check``: it byte-compiles ``src/``
and runs the static invariant linter (pickle boundaries, determinism,
resource lifecycles, supervision discipline — see ``docs/invariants.md``).
The same scan gates tier-1 via ``tests/test_analysis.py``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SynonymRuleSet, Taxonomy, UnifiedSimilarity
from repro.join import UnifiedJoin
from repro.records import RecordCollection


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


def main() -> None:
    rules, taxonomy = build_knowledge()

    # --- unified similarity on a single pair -------------------------------
    usim = UnifiedSimilarity(rules=rules, taxonomy=taxonomy)
    left = "coffee shop latte Helsingki"
    right = "espresso cafe Helsinki"
    breakdown = usim.explain(left, right)
    print(f"USIM({left!r}, {right!r}) = {breakdown.value:.3f}")
    for match in breakdown.matches:
        print(f"  {match.left.text!r:>22} <-> {match.right.text!r:<12} sim={match.similarity:.3f}")

    # Restricting to a single measure shows why a unified measure is needed.
    for codes in ("J", "S", "T"):
        print(f"  single measure {codes}: {usim.with_measures(codes).similarity(left, right):.3f}")

    # --- a small unified join ----------------------------------------------
    pois_a = RecordCollection.from_strings(
        [
            "coffee shop latte Helsingki",
            "pizza place new york",
            "grand hotel paris",
            "apple cake bakery",
        ]
    )
    pois_b = RecordCollection.from_strings(
        [
            "espresso cafe Helsinki",
            "pizza place ny",
            "louvre museum paris",
            "gateau bakery",
        ]
    )
    join = UnifiedJoin(rules=rules, taxonomy=taxonomy, theta=0.7, tau=2, method="au-dp")
    result = join.join(pois_a, pois_b)
    print(f"\nJoin found {len(result)} similar pairs "
          f"(candidates: {result.statistics.candidate_count}):")
    for pair in sorted(result.pairs, key=lambda p: -p.similarity):
        print(f"  {pois_a[pair.left_id].text!r} <-> {pois_b[pair.right_id].text!r} "
              f"(sim={pair.similarity:.3f})")

    # The verifier runs a tiered bound cascade before the full Algorithm 1;
    # its per-tier counters are reported with every join result.
    verification = result.statistics.verification
    print(f"Verification cascade: {verification.candidates} candidates, "
          f"{verification.upper_bound_prunes} pruned by the upper bound, "
          f"{verification.graphs_built} graph-verified "
          f"({verification.ceiling_stops} skipped the improvement loop)")

    # --- prepared reuse across repeated joins ------------------------------
    # prepare() caches pebbles, orders, signatures, and per-record
    # verification state (cached conflict-graph sides), so running several
    # joins over the same collections only pays for signing once per
    # configuration and for each record's segment bookkeeping once ever —
    # here the pair join above is followed by a self-join of collection A
    # for near-duplicate detection, reusing A's preparation end to end.
    prepared_a = join.prepare(pois_a)
    prepared_b = join.prepare(pois_b)
    pair_result = join.join(prepared_a, prepared_b)
    dedup_result = join.join(prepared_a)  # self-join: pairs reported once
    print(f"\nPrepared reuse: pair join again -> {len(pair_result)} pairs, "
          f"self-join of collection A -> {len(dedup_result)} near-duplicates "
          f"(signatures cached: {prepared_a.cached_signature_count})")

    # --- multi-core execution ----------------------------------------------
    # The executor knob shards the probe side across worker processes: the
    # parent signs once and ships the filter stage as flat integer arrays
    # (workers never see pebble key text), each worker filters and verifies
    # its shard with the full bound cascade, and the merged result is
    # bit-identical to the serial join at any worker count.  (On large
    # corpora with several cores this is where the real speedup lives; the
    # toy collections here just demonstrate the API.)
    parallel_result = join.join(prepared_a, prepared_b, executor="process", workers=2)
    print(f"Process-pool join -> {len(parallel_result)} pairs "
          f"(identical to serial: {parallel_result.pair_ids() == pair_result.pair_ids()})")

    # --- fault-tolerant execution -------------------------------------------
    # Process joins run under a shard supervisor: a worker that dies or
    # hangs, or a shared-memory plan segment that vanishes, is retried,
    # the pool respawned, and — as a last resort — the affected shards run
    # serially in the parent, so the join completes with the same pairs.
    # A SupervisorPolicy tunes the deadlines/retry budget, and every result
    # carries an ExecutionReport telling a clean run from a degraded one.
    # Passing telemetry= gives the run its own trace + metrics bundle; the
    # recovery summary below reads from that report (docs/observability.md
    # walks the full span tree and instrument catalog).
    from repro import SupervisorPolicy
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    supervised_join = UnifiedJoin(rules=rules, taxonomy=taxonomy, theta=0.7,
                                  tau=2, method="au-dp", telemetry=telemetry)
    supervised = supervised_join.join(
        pois_a, pois_b, executor="process", workers=2,
        supervision=SupervisorPolicy(shard_timeout=30.0),
    )
    report = supervised.statistics.execution
    counters = telemetry.report()["metrics"]["counters"]
    print(f"Supervised join -> {len(supervised)} pairs (faulted: {report.faulted}); "
          f"telemetry report counted "
          f"{counters.get('supervisor.retries', 0)} retries, "
          f"{counters.get('supervisor.respawns', 0)} respawns over "
          f"{counters.get('supervisor.shards', 0)} shards")

    # --- persistent prepared collections -----------------------------------
    # A PreparedStore persists prepared state on disk, keyed by a content
    # fingerprint of (records, config, rules, taxonomy) under a format
    # version — any change invalidates the artifact.  The first store-backed
    # join prepares, joins, and persists (signatures included); a later run
    # (here: a fresh store instance, as a new process would see it) loads
    # the artifact and signs from the persisted cache, so its preparation
    # and signing stages collapse to a file read.
    import tempfile
    import time
    from repro.store import PreparedStore

    with tempfile.TemporaryDirectory() as store_dir:
        cold_store = PreparedStore(store_dir)
        cold_join = UnifiedJoin(rules=rules, taxonomy=taxonomy, theta=0.7, tau=2,
                                method="au-dp", store=cold_store)
        start = time.perf_counter()
        cold = cold_join.join(pois_a)
        cold_seconds = time.perf_counter() - start

        warm_store = PreparedStore(store_dir)
        warm_join = UnifiedJoin(rules=rules, taxonomy=taxonomy, theta=0.7, tau=2,
                                method="au-dp", store=warm_store)
        start = time.perf_counter()
        warm = warm_join.join(pois_a)
        warm_seconds = time.perf_counter() - start
        print(f"\nStore-backed reuse: cold run {cold_seconds * 1000:.1f}ms "
              f"(prepared + signed + persisted), warm run {warm_seconds * 1000:.1f}ms "
              f"(artifact hit: {warm_store.last_outcome.hit}, "
              f"signing {warm.statistics.signing_seconds * 1000:.2f}ms) — "
              f"identical pairs: {warm.pair_ids() == cold.pair_ids()}")

    # --- serving single records online --------------------------------------
    # When queries arrive one at a time, a SimilarityIndex answers them
    # without re-running a join: the corpus is prepared, signed, and indexed
    # once (and can be snapshot into a store for instant restarts), and each
    # query signs just the probe.  Results are bit-identical to a full join
    # restricted to the probe record; add()/remove() keep the index current.
    # See examples/search_service.py for the full service life cycle.
    from repro.search import SimilarityIndex

    index = SimilarityIndex(pois_b, join.config, theta=0.7, tau=2)
    answer = index.query("espresso coffee shop Helsinki")
    print(f"\nOnline query against collection B -> "
          f"{[(m.record_id, round(m.similarity, 3)) for m in answer.matches]} "
          f"({answer.candidate_count} candidates, "
          f"{answer.seconds * 1000:.1f}ms)")


if __name__ == "__main__":
    main()
