"""Candidate verification for the filter-and-verify join.

Verification computes the actual unified similarity of every surviving
candidate pair and keeps those meeting the join threshold.  The verifier is
deliberately pluggable: the unified join uses the approximate USIM of
Algorithm 1, while baselines reuse the same machinery with their own
similarity callables.

Prepared verification engine
----------------------------
:meth:`UnifiedVerifier.verify_batch` is the hot path of the join: it groups
candidates by probe record, reuses per-record cached
:class:`~repro.core.graph.GraphSide` state (segments, gram sets, overlap
sets) from :class:`~repro.join.prepared.PreparedCollection`, and runs a
tiered bound cascade before committing to the full Algorithm 1, cheapest
and most decisive stage first:

1. *Maxima bound* (upper tier, first stage) — per-segment msim upper
   bounds from cached pebble material, summed over row and column maxima,
   reject pairs whose unified similarity cannot reach the threshold
   without building the pair graph.  It runs on every candidate and
   prunes nearly every pruned one.
2. *Lower-bound tier* — on the survivors only, a matching of the
   all-singletons partitions (exact Hungarian for small token matrices,
   weight-descending greedy beyond) lower-bounds the exact USIM; when it
   already clears the threshold the matching stage is skipped (it
   provably cannot prune this pair).
3. *Matching bound* (upper tier, second stage) — the same msim bounds fed
   to a matching solver, on the pairs the lower bound did not clear.
4. *Full verification* — the pair graph is assembled from the two cached
   sides and Algorithm 1 runs with its value-ceiling short circuit (the
   improvement loop is skipped once no swap can gain ``1/t``).

The cascade is lossless: the surviving pair set and every reported
similarity are bit-identical to verifying each candidate with
:meth:`Verifier.verify` (the pre-engine path), which the randomized
equivalence tests enforce.  The stage order changes no counter either: a
pair the lower bound clears is never pruned by an upper stage, so the
counters equal those of running the lower bound first.  Counters are plain
sums, so the shards of :mod:`repro.join.parallel` — where each worker
process rebuilds a :class:`UnifiedVerifier` from picklable parameters and
runs this same cascade — merge back to exactly the serial counters.

With ``adaptive=True`` the verifier additionally *gates* each bound tier on
its observed hit rate (see :class:`UnifiedVerifier`), skipping tiers that
stopped paying for themselves — without ever changing the surviving pairs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Iterable, List, Optional, Sequence, Tuple

from ..core.approximation import approximate_usim, approximate_usim_on_graph
from ..core.graph import (
    GraphSide,
    PairGraphAssembler,
    PairUpperBound,
    build_conflict_graph_from_sides,
    singleton_greedy_lower_bound,
)
from ..core.measures import MeasureConfig
from ..records import Record

__all__ = ["VerificationStats", "VerifiedPair", "Verifier", "UnifiedVerifier"]

#: A similarity callable over two token sequences.
SimilarityFunction = Callable[[Sequence[str], Sequence[str]], float]

#: Maximum number of ad-hoc (non-prepared) graph sides memoised per verifier.
_SIDE_CACHE_LIMIT = 100_000


@dataclass(frozen=True)
class VerifiedPair:
    """A join result: the two record ids and their verified similarity."""

    left_id: int
    right_id: int
    similarity: float


@dataclass
class VerificationStats:
    """Counters of the tiered verification cascade (cumulative per verifier).

    ``candidates`` is the number of pairs examined; of those,
    ``upper_bound_prunes`` were rejected without building a pair graph and
    ``graphs_built`` went through Algorithm 1 (``ceiling_stops`` of them
    skipped the improvement loop via the value ceiling, ``full_runs`` ran
    it).  ``lower_bound_skips`` counts pairs whose lower bound cleared the
    threshold, letting the cascade skip the matching stage of the upper
    tier.  ``adaptive_lower_skips`` / ``adaptive_upper_skips`` count
    candidates for which the adaptive controller (see
    :class:`UnifiedVerifier`) bypassed a bound tier because its observed
    hit rate had dropped below its cost; both stay 0 when adaptivity is
    off.
    """

    candidates: int = 0
    lower_bound_skips: int = 0
    upper_bound_prunes: int = 0
    graphs_built: int = 0
    ceiling_stops: int = 0
    full_runs: int = 0
    results: int = 0
    adaptive_lower_skips: int = 0
    adaptive_upper_skips: int = 0

    #: Every dataclass field is a counter; derived below (after the class
    #: body) so a newly added field can never be silently dropped by
    #: merge()/diff().
    _COUNTERS: ClassVar[Tuple[str, ...]] = ()

    def merge(self, other: "VerificationStats") -> None:
        """Add another stats block into this one (per-worker aggregation).

        Every field is a plain sum, which is what makes merging lossless:
        any partition of one candidate stream into process shards merges
        back to exactly the serial counters.
        """
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> "VerificationStats":
        """A copy of the current counters (for before/after deltas)."""
        return replace(self)

    def diff(self, earlier: "VerificationStats") -> "VerificationStats":
        """The counters accumulated since ``earlier`` was snapshotted."""
        return VerificationStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in self._COUNTERS
            }
        )

    @property
    def prune_rate(self) -> float:
        """Fraction of candidates rejected without building a pair graph."""
        if self.candidates == 0:
            return 0.0
        return self.upper_bound_prunes / self.candidates

    @property
    def ceiling_stop_rate(self) -> float:
        """Fraction of built graphs whose improvement loop was skipped."""
        if self.graphs_built == 0:
            return 0.0
        return self.ceiling_stops / self.graphs_built


VerificationStats._COUNTERS = tuple(
    field.name for field in fields(VerificationStats)
)


class Verifier:
    """Verify candidate pairs with an arbitrary similarity function."""

    def __init__(self, similarity: SimilarityFunction, threshold: float) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.similarity = similarity
        self.threshold = threshold
        self.verified_count = 0

    def _verify_one(self, left: Record, right: Record) -> Optional[VerifiedPair]:
        """Verify one pair without touching shared counters (thread-safe).

        This is the extension hook for custom pair semantics: every path —
        :meth:`verify`, :meth:`verify_all`, and :meth:`verify_batch` —
        routes through it.
        """
        value = self.similarity(left.tokens, right.tokens)
        if value >= self.threshold:
            return VerifiedPair(left.record_id, right.record_id, value)
        return None

    def verify(self, left: Record, right: Record) -> Optional[VerifiedPair]:
        """Return a :class:`VerifiedPair` when the pair passes the threshold."""
        self.verified_count += 1
        return self._verify_one(left, right)

    def verify_all(
        self, pairs: Iterable[Tuple[Record, Record]]
    ) -> List[VerifiedPair]:
        """Verify many candidate pairs and return the survivors."""
        results: List[VerifiedPair] = []
        for left, right in pairs:
            verified = self.verify(left, right)
            if verified is not None:
                results.append(verified)
        return results

    def verify_batch(
        self,
        candidates: Iterable[Tuple[int, int]],
        left,
        right,
        *,
        probe_side: str = "left",
    ) -> List[VerifiedPair]:
        """Verify ``(left_id, right_id)`` candidates against two collections.

        ``left``/``right`` may be raw record collections or prepared ones
        (anything id-addressable).  Every pair goes through :meth:`verify`,
        so a subclass overriding it or :meth:`_verify_one` keeps its
        semantics.  ``probe_side`` names the filter's probe side, which only
        the prepared engine of :class:`UnifiedVerifier` uses.  Result order
        matches the candidate order.
        """
        pairs: List[VerifiedPair] = []
        for left_id, right_id in candidates:
            verified = self.verify(left[left_id], right[right_id])
            if verified is not None:
                pairs.append(verified)
        return pairs


class _AdaptiveTierGate:
    """Windowed hit-rate controller for one bound tier.

    The tier runs normally while ``active``; after each measurement window
    of ``window`` outcomes, the tier is disabled when its hit rate fell
    below ``min_hit_rate`` (the tier's cost expressed as the break-even
    fraction of candidates it must serve to pay for itself).  A disabled
    tier is re-probed after ``window * probe_windows`` bypassed candidates,
    so a workload whose regime shifts mid-run gets the tier back.  The
    controller is a pure function of the candidate sequence, hence
    deterministic on the serial path; a lock keeps its counters exact when
    concurrent :class:`~repro.search.index.SimilarityIndex` readers share
    one verifier (the *sequence* of outcomes then depends on their
    interleaving, but no update is ever lost).
    """

    __slots__ = (
        "min_hit_rate",
        "window",
        "probe_windows",
        "active",
        "seen",
        "hits",
        "bypassed",
        "_lock",
    )

    def __init__(self, min_hit_rate: float, window: int, probe_windows: int) -> None:
        self.min_hit_rate = min_hit_rate
        self.window = window
        self.probe_windows = probe_windows
        self.active = True
        self.seen = 0
        self.hits = 0
        self.bypassed = 0
        self._lock = threading.Lock()

    def should_run(self) -> bool:
        """Decide whether the tier runs for the next candidate."""
        with self._lock:
            if self.active:
                return True
            self.bypassed += 1
            if self.bypassed >= self.window * self.probe_windows:
                self.active = True
                self.bypassed = 0
                self.seen = 0
                self.hits = 0
                return True
            return False

    def record(self, hit: bool) -> None:
        """Record one tier outcome; close the window when it fills up."""
        with self._lock:
            self.seen += 1
            if hit:
                self.hits += 1
            if self.seen >= self.window:
                if self.hits < self.min_hit_rate * self.seen:
                    self.active = False
                    self.bypassed = 0
                self.seen = 0
                self.hits = 0


class UnifiedVerifier(Verifier):
    """Verifier backed by the approximate unified similarity (Algorithm 1).

    :meth:`verify` computes each pair from scratch (the reference path);
    :meth:`verify_batch` runs the prepared engine with per-record cached
    graph sides and the tiered bound cascade.  Both report bit-identical
    pairs and similarity values; ``prune=False`` disables the bound tiers
    (cached assembly only), which the equivalence tests and benchmarks use.

    Adaptive tier selection
    -----------------------
    With ``adaptive=True`` each bound tier is wrapped in an
    :class:`_AdaptiveTierGate`: when a tier's observed hit rate over a
    window of candidates drops below its cost (``lower_tier_cost`` /
    ``upper_tier_cost``, the break-even hit rate of computing the bound),
    the tier is skipped for subsequent candidates and periodically re-probed.
    The upper gate covers the whole upper tier — both stages, one outcome
    per candidate: pruned or not — and a bypassed upper tier bypasses the
    lower tier with it, since the lower bound only serves to skip the
    matching stage.  The lower gate covers the lower tier, so it only sees
    candidates the maxima bound did not prune: at high join thresholds few
    of those clear θ (``BENCH_verification.json`` records 0% at θ ≥ 0.7),
    and ``adaptive=True`` sheds their singleton matchings after the first
    window while keeping the tier available for the low-θ,
    similarity-dense workloads it exists for.
    Because both tiers are lossless, the surviving pairs and similarities
    are *identical* with adaptivity on or off — only the per-tier counters
    (and runtime) change, with bypasses reported as
    ``adaptive_lower_skips`` / ``adaptive_upper_skips``.  The gates are
    driven by the candidate stream, so the decision sequence is
    deterministic on the serial path; under process execution each worker
    gates its own shards, which is why the executor-equivalence guarantee on
    *statistics* is stated for ``adaptive=False`` (the default), while the
    pair-set guarantee holds always.
    """

    def __init__(
        self,
        config: MeasureConfig,
        threshold: float,
        *,
        t: float = 4.0,
        prune: bool = True,
        adaptive: bool = False,
        adaptive_window: int = 256,
        adaptive_probe_windows: int = 4,
        lower_tier_cost: float = 0.05,
        upper_tier_cost: float = 0.05,
    ) -> None:
        self.config = config
        self.t = t
        self.prune = prune
        self.adaptive = adaptive
        self.stats = VerificationStats()
        self._side_cache: dict = {}
        self._lower_gate = (
            _AdaptiveTierGate(lower_tier_cost, adaptive_window, adaptive_probe_windows)
            if adaptive
            else None
        )
        self._upper_gate = (
            _AdaptiveTierGate(upper_tier_cost, adaptive_window, adaptive_probe_windows)
            if adaptive
            else None
        )

        def similarity(left_tokens: Sequence[str], right_tokens: Sequence[str]) -> float:
            return approximate_usim(left_tokens, right_tokens, config, t=t).value

        super().__init__(similarity, threshold)

    # ------------------------------------------------------------------ #
    # cached graph sides
    # ------------------------------------------------------------------ #
    def _side_getter(self, collection) -> Callable[[int], GraphSide]:
        """Resolve the per-record :class:`GraphSide` source for a collection.

        Prepared collections bound to a config *equal* to this verifier's
        (configs compare by content, so an equal-but-distinct config — e.g.
        one that crossed a process boundary — qualifies) serve their own
        cached sides; anything else falls back to a verifier-local memo
        keyed by token tuple (so repeated records still hit the cache).
        """
        graph_side = getattr(collection, "graph_side", None)
        if graph_side is not None:
            bound_config = getattr(collection, "config", None)
            if bound_config is self.config or bound_config == self.config:
                return graph_side

        cache = self._side_cache
        config = self.config

        def fallback(record_id: int) -> GraphSide:
            tokens = collection[record_id].tokens
            side = cache.get(tokens)
            if side is None:
                side = GraphSide(tokens, config)
                if len(cache) < _SIDE_CACHE_LIMIT:
                    cache[tokens] = side
            return side

        return fallback

    # ------------------------------------------------------------------ #
    # the tiered cascade
    # ------------------------------------------------------------------ #
    def _verify_prepared(
        self,
        left_record: Record,
        right_record: Record,
        left_side: GraphSide,
        right_side: GraphSide,
        stats: VerificationStats,
        *,
        assembler: Optional[PairGraphAssembler] = None,
    ) -> Optional[VerifiedPair]:
        stats.candidates += 1
        threshold = self.threshold
        config = self.config

        # Empty-token records need no special case: both bounds are 0.0 and
        # the empty pair graph realises 0.0, matching approximate_usim's
        # empty-input result, so the cascade handles them like any pair (and
        # the tier counters keep partitioning the candidates).
        if self.prune and threshold > 0.0:
            upper_gate = self._upper_gate
            if upper_gate is None or upper_gate.should_run():
                upper = PairUpperBound(left_side, right_side, config)
                pruned = upper.maxima(threshold) < threshold
                if not pruned and not self._lower_bound_clears(
                    left_side, right_side, stats
                ):
                    pruned = upper.matching() < threshold
                if upper_gate is not None:
                    upper_gate.record(pruned)
                if pruned:
                    # Algorithm 1 realises ≤ exact USIM ≤ either upper stage
                    # < θ: the unpruned path would reject this pair too.
                    stats.upper_bound_prunes += 1
                    return None
            else:
                stats.adaptive_upper_skips += 1

        stats.graphs_built += 1
        if assembler is not None:
            # The probe-side assembler (shared across one probe's candidate
            # group) builds a graph vertex-for-vertex identical to the
            # two-sided constructor, with the probe's qualification state
            # hoisted out of the pair loop.
            graph = assembler.build(
                right_side if assembler.probe_is_left else left_side
            )
        else:
            graph = build_conflict_graph_from_sides(left_side, right_side, config)
        result = approximate_usim_on_graph(graph, config, t=self.t)
        if result.ceiling_stopped:
            stats.ceiling_stops += 1
        else:
            stats.full_runs += 1
        value = result.value
        if value >= threshold:
            stats.results += 1
            return VerifiedPair(left_record.record_id, right_record.record_id, value)
        return None

    def _lower_bound_clears(
        self, left_side: GraphSide, right_side: GraphSide, stats: VerificationStats
    ) -> bool:
        """The lower-bound tier: True when the pair provably reaches θ.

        The exact USIM is ≥ the lower bound, and both upper stages are ≥
        the exact USIM, so a lower bound clearing θ proves the matching
        stage cannot prune: the cascade skips it.
        """
        lower_gate = self._lower_gate
        if lower_gate is not None and not lower_gate.should_run():
            stats.adaptive_lower_skips += 1
            return False
        cleared = (
            singleton_greedy_lower_bound(left_side, right_side, self.config)
            >= self.threshold
        )
        if lower_gate is not None:
            lower_gate.record(cleared)
        if cleared:
            stats.lower_bound_skips += 1
        return cleared

    def verify_prepared_pair(
        self,
        left_record: Record,
        right_record: Record,
        left_side: GraphSide,
        right_side: GraphSide,
        stats: Optional[VerificationStats] = None,
    ) -> Optional[VerifiedPair]:
        """Run ONE pair through the tiered cascade (the single-pair unit).

        This is the public entry the online search index drives: one probe
        record against one candidate member, both with prepared
        :class:`~repro.core.graph.GraphSide` state, through exactly the
        bound / Algorithm-1 cascade that :meth:`verify_batch` runs per
        candidate — so a query's surviving pairs and similarities are
        bit-identical to the batch join's.

        ``stats`` redirects the cascade counters into a caller-owned block
        (merge it into :attr:`stats` when done, as :meth:`verify_batch`
        does per batch); without it, counters accumulate here directly and
        ``verified_count`` is bumped.
        """
        if stats is not None:
            return self._verify_prepared(
                left_record, right_record, left_side, right_side, stats
            )
        pair = self._verify_prepared(
            left_record, right_record, left_side, right_side, self.stats
        )
        self.verified_count += 1
        return pair

    # ------------------------------------------------------------------ #
    # batch verification
    # ------------------------------------------------------------------ #
    def verify_batch(
        self,
        candidates: Iterable[Tuple[int, int]],
        left,
        right,
        *,
        probe_side: str = "left",
    ) -> List[VerifiedPair]:
        """Verify candidates through the prepared engine (see class docs).

        The filter emits candidates probe-major (every partner of one probe
        record before the next, on the ``probe_side`` id), so one probe's
        cached side and graph assembler serve its whole run of partners.

        A subclass that overrides :meth:`verify` or the :meth:`_verify_one`
        extension hook without overriding :meth:`_verify_prepared` keeps
        its per-pair semantics: the batch engine would silently bypass such
        an override, so those verifiers are routed through the base class's
        per-pair path instead (which honors both hooks).
        """
        per_pair_override = (
            type(self).verify is not Verifier.verify
            or type(self)._verify_one is not Verifier._verify_one
        )
        if (
            per_pair_override
            and type(self)._verify_prepared is UnifiedVerifier._verify_prepared
        ):
            return Verifier.verify_batch(
                self, candidates, left, right, probe_side=probe_side
            )
        get_left = self._side_getter(left)
        get_right = self._side_getter(right)
        probe_is_left = probe_side == "left"
        # A subclass may override ``_verify_prepared`` with the historical
        # signature; only the base cascade is handed the group assembler.
        base_cascade = (
            type(self)._verify_prepared is UnifiedVerifier._verify_prepared
        )
        local = VerificationStats()
        pairs: List[VerifiedPair] = []
        # One assembler per run of pairs sharing the probe record: its
        # qualification pre-pass is computed once and reused against every
        # partner in the run.
        current_probe: Optional[int] = None
        assembler: Optional[PairGraphAssembler] = None
        for left_id, right_id in candidates:
            left_graph_side = get_left(left_id)
            right_graph_side = get_right(right_id)
            if base_cascade:
                probe_id = left_id if probe_is_left else right_id
                if assembler is None or probe_id != current_probe:
                    current_probe = probe_id
                    assembler = PairGraphAssembler(
                        left_graph_side if probe_is_left else right_graph_side,
                        self.config,
                        probe_is_left=probe_is_left,
                    )
                verified = self._verify_prepared(
                    left[left_id],
                    right[right_id],
                    left_graph_side,
                    right_graph_side,
                    local,
                    assembler=assembler,
                )
            else:
                verified = self._verify_prepared(
                    left[left_id],
                    right[right_id],
                    left_graph_side,
                    right_graph_side,
                    local,
                )
            if verified is not None:
                pairs.append(verified)
        self.stats.merge(local)
        self.verified_count += local.candidates
        return pairs
