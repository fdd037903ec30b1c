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
:class:`~repro.core.graph.PairGraphAssembler`), and runs three stages,
cheapest and most decisive first:

1. *Maxima bound* — per-segment msim upper bounds from cached pebble
   material, summed over row and column maxima, reject pairs whose unified
   similarity cannot reach the threshold without building the pair graph.
   It runs once per probe group, for every candidate of the group
   (:class:`~repro.join.bound_kernel.GroupUpperBounds`), and prunes nearly
   every pruned candidate.  A group whose segment-pair count reaches
   :data:`~repro.join.bound_kernel.GROUP_KERNEL_MIN_PAIRS` runs the
   vectorised numpy kernel, bit-identical to the scalar
   :class:`~repro.core.graph.PairUpperBound` loop that smaller groups run.
   The scalar loop is also the kernel's test oracle and the only path
   without numpy: the verifier's ``kernel`` is the engine's filter-kernel
   selection (``"python"``, or ``REPRO_NO_NUMPY=1``, keeps every group
   scalar).
2. *Matching bound* — the same msim bounds fed to a matching solver, on
   the pairs the maxima bound did not prune.
3. *Algorithm 1* — the pair graph is assembled from the two cached sides
   and Algorithm 1 runs with its value-ceiling short circuit (the
   improvement loop is skipped once no swap can gain ``1/t``).

The two bound stages are the *upper tier*: both bound the exact USIM from
above, and Algorithm 1 never realises more than the exact USIM, so a pair
either stage prunes would be rejected by Algorithm 1 too.  The per-pair
:meth:`UnifiedVerifier.verify` stays as the tests' oracle: it computes one
pair from its tokens with a fresh ``approximate_usim``.  With tracing on,
each stage runs in a span under the shard body's ``verify`` span:
``verify.maxima`` once per probe group, and ``verify.matching`` and
``verify.algorithm1`` once per candidate that reaches the stage.  The
cascade is lossless: the surviving pair set and every reported similarity
are bit-identical to :meth:`~UnifiedVerifier.verify` on each candidate,
which the randomized equivalence tests enforce.  Counters are plain sums
over one fixed sequence of stages, so the shards of
:mod:`repro.join.parallel` — where each worker process runs this same
cascade on the fresh :class:`UnifiedVerifier` its shard plan carries —
merge back to exactly the serial counters.
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
from ..core.graph import GraphSide, PairGraphAssembler
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

#: Serialises every merge into a counter block, so concurrent readers of
#: one :class:`~repro.search.index.SimilarityIndex` — which share its
#: verifier's cumulative counters — never lose an update.  Module-level, so
#: the verifier a shard plan ships stays plain, picklable data.
_MERGE_LOCK = threading.Lock()


@dataclass(frozen=True)
class VerifiedPair:
    """A join result: the two record ids and their verified similarity."""

    left_id: int
    right_id: int
    similarity: float


@dataclass
class VerificationStats:
    """Counters of the verification cascade (cumulative per verifier).

    ``candidates`` is the number of pairs examined; of those,
    ``upper_bound_prunes`` were rejected by the maxima or the matching
    bound without building a pair graph and ``graphs_built`` went through
    Algorithm 1 (``ceiling_stops`` of them skipped the improvement loop via
    the value ceiling, ``full_runs`` ran it); ``results`` reached the
    threshold.
    """

    candidates: int = 0
    upper_bound_prunes: int = 0
    graphs_built: int = 0
    ceiling_stops: int = 0
    full_runs: int = 0
    results: int = 0

    #: Every dataclass field is a counter; derived below (after the class
    #: body) so a newly added field can never be silently dropped by
    #: merge()/diff().
    _COUNTERS: ClassVar[Tuple[str, ...]] = ()

    def merge(self, other: "VerificationStats") -> None:
        """Add another stats block into this one (per-worker aggregation).

        Every field is a plain sum, which is what makes merging lossless:
        any partition of one candidate stream into process shards merges
        back to exactly the serial counters.  The merge is atomic with
        respect to every other merge and snapshot.
        """
        with _MERGE_LOCK:
            for name in self._COUNTERS:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> "VerificationStats":
        """A copy of the current counters (for before/after deltas)."""
        with _MERGE_LOCK:
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
    def lower_bound_skips(self) -> int:
        """Always 0: the cascade has no lower-bound tier.

        Read-only and not a counter, so nothing can increment it.
        ``perfbench/workloads.py::_stats_metrics`` still reports it as
        ``verification.lower_bound_skips``; it goes with the next change to
        that benchmark.
        """
        return 0

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


class UnifiedVerifier:
    """The verifier of every join and search read: Algorithm 1 behind two bounds.

    :meth:`verify_batch` is the engine (see the module docs); :meth:`verify`
    computes one pair afresh and is kept as the oracle of the equivalence
    tests and benchmarks; both report bit-identical pairs and similarities.
    ``t`` is Algorithm 1's trade-off parameter and must satisfy
    ``1 < t < inf``.  ``kernel`` is the owning engine's filter-kernel
    selection (see :mod:`repro.join.kernels`); it picks the maxima stage's
    implementation the same way, with bit-identical results.  The
    verifier is plain data — its settings and :attr:`stats` — so a process
    shard plan ships a fresh copy of it to every worker.
    """

    def __init__(
        self,
        config: MeasureConfig,
        threshold: float,
        *,
        t: float = 4.0,
        kernel: str = "auto",
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        resolve_kernel(kernel)  # validate eagerly: typos fail at construction
        self.config = config
        self.threshold = threshold
        self.t = check_approximation_t(t)
        self.kernel = kernel
        self.stats = VerificationStats()

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
    # the cascade
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
        # One assembler per group: the probe's qualification pre-pass is
        # computed once and reused against every partner.
        assembler = PairGraphAssembler(probe_side, config, probe_is_left=probe_is_left)
        # Empty-token records need no special case: both bounds are 0.0 and
        # the empty pair graph realises 0.0, matching approximate_usim's
        # empty-input result, so the cascade handles them like any pair (and
        # the counters keep partitioning the candidates).
        bounds = maxima = None
        if threshold > 0.0:
            # Stage 1 for the whole group in one pass.
            bounds = GroupUpperBounds(
                probe_side,
                partner_sides,
                config,
                probe_is_left=probe_is_left,
                kernel=self.kernel,
            )
            with _tier_span(
                "verify.maxima", candidates=len(group), kernel=bounds.use_kernel
            ):
                maxima = bounds.maxima(threshold)
        for position, (left_id, right_id) in enumerate(group):
            stats.candidates += 1
            if maxima is not None:
                pruned = maxima[position] < threshold
                if not pruned:
                    with _tier_span("verify.matching"):
                        pruned = bounds.matching(position) < threshold
                if pruned:
                    # Algorithm 1 realises ≤ exact USIM ≤ either bound < θ:
                    # the unpruned path would reject it too.
                    stats.upper_bound_prunes += 1
                    continue

            stats.graphs_built += 1
            with _tier_span("verify.algorithm1"):
                # Vertex-for-vertex the two-sided constructor's graph.
                graph = assembler.build(partner_sides[position])
                result = approximate_usim_on_graph(graph, config, t=self.t)
            if result.ceiling_stopped:
                stats.ceiling_stops += 1
            else:
                stats.full_runs += 1
            if result.value >= threshold:
                stats.results += 1
                pairs.append(VerifiedPair(left_id, right_id, result.value))

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
        stats: Optional[VerificationStats] = None,
    ) -> List[VerifiedPair]:
        """Verify ``(left_id, right_id)`` candidates; return the survivors.

        ``left`` and ``right`` are prepared collections bound to this
        verifier's config (or an equal one): anything else raises before a
        candidate is read.  The filter emits candidates probe-major (every
        partner of one probe record before the next, on the ``probe_side``
        id), so each run of candidates sharing a probe record is one group:
        one cached probe side, one graph assembler and one stage-1 pass.
        Result order matches the candidate order.  The call's cascade
        counters are added to the verifier's cumulative :attr:`stats` and,
        when ``stats`` is given, to that caller-owned block too: the one
        count of a read that concurrent calls on this verifier cannot touch.
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
        if stats is not None:
            stats.merge(local)
        return pairs
