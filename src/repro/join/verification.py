"""Candidate verification for the filter-and-verify join.

Verification computes the actual unified similarity of every surviving
candidate pair and keeps those meeting the join threshold.  One class does
it: :class:`UnifiedVerifier`, the approximate USIM of Algorithm 1 behind a
lossless bound cascade.

One entry
---------
:meth:`UnifiedVerifier.verify_batch` is the only way into the cascade.
Every join, join stream, batch query and single query reaches it through
the shard body of :mod:`repro.join.parallel`; the member and top-k reads of
:class:`~repro.search.index.SimilarityIndex` call it directly.  It reads
each record's cached :class:`~repro.core.graph.GraphSide` (segments, gram
sets, overlap sets) from :class:`~repro.join.prepared.PreparedCollection`
inputs bound to the verifier's config — a raw collection, or one prepared
under a different config, is rejected — groups candidates by probe record
(each run of candidates sharing a probe is one *probe group*, with one
:class:`~repro.core.graph.PairGraphAssembler`), and runs a tiered bound
cascade before committing to the full Algorithm 1, cheapest and most
decisive stage first:

1. *Maxima bound* (upper tier, first stage) — per-segment msim upper
   bounds from cached pebble material, summed over row and column maxima,
   reject pairs whose unified similarity cannot reach the threshold
   without building the pair graph.  It runs once per probe group, for
   every candidate of the group
   (:class:`~repro.join.bound_kernel.GroupUpperBounds`), and prunes nearly
   every pruned candidate.  A group whose segment-pair count reaches
   :data:`~repro.join.bound_kernel.GROUP_KERNEL_MIN_PAIRS` runs the
   vectorised numpy kernel, bit-identical to the scalar
   :class:`~repro.core.graph.PairUpperBound` loop that smaller groups run.
   The scalar loop is also the kernel's test oracle and the only path
   without numpy: the verifier's ``kernel`` is the engine's filter-kernel
   selection (``"python"``, or ``REPRO_NO_NUMPY=1``, keeps every group
   scalar).
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

Two oracles stay for the tests: :meth:`UnifiedVerifier.verify` computes one
pair from its tokens with a fresh ``approximate_usim``, and ``prune=False``
runs the cached assembly with every bound tier off.  With tracing on, each
tier runs in a span under the shard body's ``verify`` span:
``verify.maxima`` once per probe group, and ``verify.lower_bound``,
``verify.matching`` and ``verify.algorithm1`` once per candidate that
reaches the tier.  The cascade is
lossless: the surviving pair set and every reported similarity are
bit-identical to :meth:`~UnifiedVerifier.verify` on each candidate, which
the randomized equivalence tests enforce.  The stage order changes no
counter either: a pair the lower bound clears is never pruned by an upper
stage, so the counters equal those of running the lower bound first.
Counters are plain sums, so the shards of :mod:`repro.join.parallel` —
where each worker process rebuilds a :class:`UnifiedVerifier` from
picklable parameters and runs this same cascade — merge back to exactly
the serial counters.

With ``adaptive=True`` the verifier additionally *gates* each bound tier on
its observed hit rate (see :class:`UnifiedVerifier`), skipping tiers that
stopped paying for themselves — without ever changing the surviving pairs.
``adaptive`` is the only setting: the gates' window, re-probe interval
and tier costs are the module constants :data:`ADAPTIVE_WINDOW`,
:data:`ADAPTIVE_PROBE_WINDOWS`, :data:`LOWER_TIER_COST` and
:data:`UPPER_TIER_COST`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
from itertools import groupby
from operator import itemgetter
from typing import Callable, ClassVar, Iterable, List, Optional, Tuple

from ..core.approximation import (
    approximate_usim,
    approximate_usim_on_graph,
    check_approximation_t,
)
from ..core.graph import GraphSide, PairGraphAssembler, singleton_greedy_lower_bound
from ..core.measures import MeasureConfig
from ..records import Record
from ..telemetry.spans import NULL_SPAN, Span, current_span
from .bound_kernel import GroupUpperBounds
from .kernels import resolve_kernel
from .prepared import PreparedCollection

__all__ = [
    "VerificationStats",
    "VerifiedPair",
    "UnifiedVerifier",
]

#: Settings of the adaptive tier gates (see :class:`UnifiedVerifier`).  A
#: gate measures its tier's hit rate over windows of ``ADAPTIVE_WINDOW``
#: outcomes, closes the tier when the rate falls below the tier's cost —
#: the break-even share of candidates the bound must serve to pay for
#: itself — and re-probes a closed tier after ``ADAPTIVE_PROBE_WINDOWS``
#: windows of bypassed candidates.
ADAPTIVE_WINDOW = 256
ADAPTIVE_PROBE_WINDOWS = 4
LOWER_TIER_COST = 0.05
UPPER_TIER_COST = 0.05


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


def _tier_span(name: str, **attrs):
    """A tier span under the program's open ``verify`` span, else a no-op.

    The cascade has no telemetry handle; its tiers nest under the
    ``verify`` span the shard body (or a search read) opened with its own
    tracer, which is off when that tracer is disabled.  A caller's own
    span around a bare :meth:`UnifiedVerifier.verify_batch` call (a
    benchmark's layer span, say) gets no tier children, so its self time
    stays whole.
    """
    parent = current_span()
    if parent is None or parent.name != "verify":
        return NULL_SPAN
    return Span(name, attrs=attrs)


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


class UnifiedVerifier:
    """The verifier of every join and search read: Algorithm 1 behind a cascade.

    :meth:`verify_batch` is the engine (see the module docs); :meth:`verify`
    computes one pair afresh and ``prune=False`` turns every bound
    tier off — both are kept as oracles for the equivalence tests and
    benchmarks, and all three report bit-identical pairs and similarities.
    ``t`` is Algorithm 1's trade-off parameter and must satisfy
    ``1 < t < inf``.  ``kernel`` is the owning engine's filter-kernel
    selection (see :mod:`repro.join.kernels`); it picks the stage-1
    implementation the same way, with bit-identical results.

    Adaptive tier selection
    -----------------------
    With ``adaptive=True`` each bound tier is wrapped in an
    :class:`_AdaptiveTierGate`: when a tier's observed hit rate over a
    window of candidates drops below its cost (:data:`LOWER_TIER_COST` /
    :data:`UPPER_TIER_COST`, the break-even hit rate of computing the bound),
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
        kernel: str = "auto",
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        resolve_kernel(kernel)  # validate eagerly: typos fail at construction
        self.config = config
        self.threshold = threshold
        self.t = check_approximation_t(t)
        self.prune = prune
        self.adaptive = adaptive
        self.kernel = kernel
        self.stats = VerificationStats()
        self._lower_gate = (
            _AdaptiveTierGate(LOWER_TIER_COST, ADAPTIVE_WINDOW, ADAPTIVE_PROBE_WINDOWS)
            if adaptive
            else None
        )
        self._upper_gate = (
            _AdaptiveTierGate(UPPER_TIER_COST, ADAPTIVE_WINDOW, ADAPTIVE_PROBE_WINDOWS)
            if adaptive
            else None
        )

    @property
    def verified_count(self) -> int:
        """Candidates verified so far (``stats.candidates``)."""
        return self.stats.candidates

    def verify(self, left: Record, right: Record) -> Optional[VerifiedPair]:
        """One pair from its tokens, by a fresh ``approximate_usim`` (the oracle).

        No cached side, no bound and no counter is touched.
        """
        value = approximate_usim(left.tokens, right.tokens, self.config, t=self.t).value
        if value >= self.threshold:
            return VerifiedPair(left.record_id, right.record_id, value)
        return None

    def _graph_sides(self, collection: PreparedCollection) -> Callable[[int], GraphSide]:
        """The collection's cached-side getter, checked against this config."""
        if not isinstance(collection, PreparedCollection):
            raise TypeError(
                "verify_batch reads graph sides from prepared collections; got "
                f"{type(collection).__name__} — prepare it first"
            )
        return collection.require_config(self.config).graph_side

    # ------------------------------------------------------------------ #
    # the tiered cascade
    # ------------------------------------------------------------------ #
    def _verify_group(
        self,
        group: List[Tuple[int, int]],
        probe_side: GraphSide,
        partner_sides: List[GraphSide],
        probe_is_left: bool,
        stats: VerificationStats,
        pairs: List[VerifiedPair],
    ) -> None:
        """Run the cascade over one probe's run of candidates, in order."""
        threshold = self.threshold
        config = self.config
        upper_gate = self._upper_gate
        # One assembler per group: the probe's qualification pre-pass is
        # computed once and reused against every partner.
        assembler = PairGraphAssembler(probe_side, config, probe_is_left=probe_is_left)
        # Empty-token records need no special case: both bounds are 0.0 and
        # the empty pair graph realises 0.0, matching approximate_usim's
        # empty-input result, so the cascade handles them like any pair (and
        # the tier counters keep partitioning the candidates).
        bounds = None
        if self.prune and threshold > 0.0:
            bounds = GroupUpperBounds(
                probe_side,
                partner_sides,
                config,
                probe_is_left=probe_is_left,
                kernel=self.kernel,
            )
        maxima: Optional[List[float]] = None
        for position, (left_id, right_id) in enumerate(group):
            stats.candidates += 1
            partner_side = partner_sides[position]
            if bounds is not None:
                if upper_gate is None or upper_gate.should_run():
                    if maxima is None:
                        # Stage 1 for the whole group, on first need.
                        with _tier_span(
                            "verify.maxima",
                            candidates=len(group),
                            kernel=bounds.use_kernel,
                        ):
                            maxima = bounds.maxima(threshold)
                    pruned = maxima[position] < threshold
                    if not pruned:
                        left_side, right_side = (
                            (probe_side, partner_side)
                            if probe_is_left
                            else (partner_side, probe_side)
                        )
                        if not self._lower_bound_clears(left_side, right_side, stats):
                            with _tier_span("verify.matching"):
                                pruned = bounds.matching(position) < threshold
                    if upper_gate is not None:
                        upper_gate.record(pruned)
                    if pruned:
                        # Algorithm 1 realises ≤ exact USIM ≤ either upper
                        # stage < θ: the unpruned path would reject it too.
                        stats.upper_bound_prunes += 1
                        continue
                else:
                    stats.adaptive_upper_skips += 1

            stats.graphs_built += 1
            with _tier_span("verify.algorithm1"):
                # Vertex-for-vertex the two-sided constructor's graph.
                graph = assembler.build(partner_side)
                result = approximate_usim_on_graph(graph, config, t=self.t)
            if result.ceiling_stopped:
                stats.ceiling_stops += 1
            else:
                stats.full_runs += 1
            if result.value >= threshold:
                stats.results += 1
                pairs.append(VerifiedPair(left_id, right_id, result.value))

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
        with _tier_span("verify.lower_bound"):
            cleared = (
                singleton_greedy_lower_bound(left_side, right_side, self.config)
                >= self.threshold
            )
        if lower_gate is not None:
            lower_gate.record(cleared)
        if cleared:
            stats.lower_bound_skips += 1
        return cleared

    # ------------------------------------------------------------------ #
    # batch verification
    # ------------------------------------------------------------------ #
    def verify_batch(
        self,
        candidates: Iterable[Tuple[int, int]],
        left: PreparedCollection,
        right: PreparedCollection,
        *,
        probe_side: str = "left",
    ) -> List[VerifiedPair]:
        """Verify ``(left_id, right_id)`` candidates; return the survivors.

        ``left`` and ``right`` are prepared collections bound to this
        verifier's config (or an equal one): anything else raises before a
        candidate is read.  The filter emits candidates probe-major (every
        partner of one probe record before the next, on the ``probe_side``
        id), so each run of candidates sharing a probe record is one group:
        one cached probe side, one graph assembler and one stage-1 pass.
        Result order matches the candidate order, and the cascade counters
        accumulate on :attr:`stats`.
        """
        get_left = self._graph_sides(left)
        get_right = self._graph_sides(right)
        probe_is_left = probe_side == "left"
        get_probe, get_partner = (
            (get_left, get_right) if probe_is_left else (get_right, get_left)
        )
        probe_index, partner_index = (0, 1) if probe_is_left else (1, 0)
        local = VerificationStats()
        pairs: List[VerifiedPair] = []
        for probe_id, run in groupby(candidates, key=itemgetter(probe_index)):
            group = list(run)
            self._verify_group(
                group,
                get_probe(probe_id),
                [get_partner(pair[partner_index]) for pair in group],
                probe_is_left,
                local,
                pairs,
            )
        self.stats.merge(local)
        return pairs
