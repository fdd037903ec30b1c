"""Algorithm 1: polynomial-time approximation of the unified similarity.

The algorithm has two stages:

1. Seed: compute a weighted maximum independent set of the conflict graph
   with a SquareImp-style local search (:func:`repro.core.mis.squareimp_wmis`).
2. Improve: repeatedly look for a claw whose talons, once swapped into the
   solution (removing their conflicting neighbours), raise the *unified
   similarity realised by the selection* (``GetSim``) by at least ``1/t``.
   The loop therefore runs at most ``floor(t)`` times, keeping the overall
   running time polynomial in ``t · n`` as in the paper's Theorem 2.

The returned breakdown records the partitions and matched segment pairs that
realise the approximate similarity, so callers can explain results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .aggregation import SimilarityBreakdown, selection_similarity
from .graph import ConflictGraph, build_conflict_graph
from .measures import MeasureConfig
from .mis import greedy_wmis, squareimp_wmis

__all__ = [
    "ApproximationResult",
    "approximate_usim",
    "approximate_usim_on_graph",
    "check_approximation_t",
]


#: Slack added to the value ceiling before skipping improvement rounds; keeps
#: the skip conservative against any floating-point drift in GetSim sums.
_CEILING_EPSILON = 1e-9


def check_approximation_t(t: float) -> float:
    """Return ``t`` when it is a valid trade-off parameter, else raise.

    Algorithm 1 ignores improvements below ``1/t`` and runs at most
    ``floor(t)`` rounds, so it needs ``1 < t < inf``; the comparison is
    written so that NaN fails it.
    """
    if not 1.0 < t < math.inf:
        raise ValueError(f"t must be a finite number greater than 1; got t={t}")
    return t


@dataclass(frozen=True)
class ApproximationResult:
    """Outcome of Algorithm 1 on one string pair.

    ``ceiling_stopped`` reports that the improvement loop was cut short by
    the value ceiling: once the realised similarity exceeds ``1 - 1/t`` no
    swap can gain the required ``1/t`` (GetSim is capped at 1), so skipping
    the remaining rounds provably cannot change the outcome.  The
    verification engine reports these as bound-based early accepts.
    """

    breakdown: SimilarityBreakdown
    selection: Tuple[int, ...]
    graph_size: int
    improvement_rounds: int
    ceiling_stopped: bool = False

    @property
    def value(self) -> float:
        """The approximate unified similarity."""
        return self.breakdown.value


def _candidate_talon_sets(
    graph: ConflictGraph,
    selection: Set[int],
    *,
    max_talons: int,
    pool_limit: int,
) -> Iterable[Tuple[int, ...]]:
    """Enumerate bounded independent sets of out-of-solution vertices.

    The enumeration is anchored on vertices outside the current solution,
    ordered by descending weight, and bounded both in talon count and in the
    size of the neighbourhood pool each anchor explores.  This keeps each
    improvement round polynomial while still finding the swaps that matter
    in practice (Example 5 of the paper is recovered by 2-talon swaps).
    """
    outside = sorted(
        (index for index in range(len(graph)) if index not in selection),
        key=lambda index: -graph.vertices[index].weight,
    )
    outside_pool = outside[:pool_limit]
    for size in range(1, max_talons + 1):
        for combo in itertools.combinations(outside_pool, size):
            if graph.is_independent(combo):
                yield combo


def approximate_usim_on_graph(
    graph: ConflictGraph,
    config: MeasureConfig,
    *,
    t: float = 4.0,
    max_talons: int = 2,
    pool_limit: int = 12,
    max_evaluations: int = 8,
    seed: str = "squareimp",
    early_ceiling: bool = True,
) -> ApproximationResult:
    """Run Algorithm 1 on a pre-built conflict graph.

    Parameters
    ----------
    graph:
        The conflict graph of the string pair.
    config:
        Measure configuration used to evaluate ``GetSim``.
    t:
        The paper's trade-off parameter: improvements smaller than ``1/t``
        are ignored and at most ``floor(t)`` improvement rounds run.
    max_talons:
        Maximum number of talons per candidate claw swap.
    pool_limit:
        Maximum number of out-of-solution vertices considered per round.
    max_evaluations:
        Number of highest-ranked candidate swaps whose ``GetSim`` is actually
        evaluated per round.  Candidates are ranked by their vertex-weight
        gain, which is what bounds the similarity improvement; evaluating
        only the top swaps keeps each round cheap without changing the
        algorithm's guarantees (a swap that improves GetSim by ≥ 1/t must
        also carry substantial vertex-weight gain).
    seed:
        ``"squareimp"`` (default) or ``"greedy"`` — the ablation benchmark
        compares the two.
    early_ceiling:
        Skip improvement rounds once the realised similarity exceeds
        ``1 - 1/t``: the loop only accepts swaps gaining at least ``1/t``
        and GetSim never exceeds 1, so no remaining round can change the
        result.  The returned value is bit-identical with the flag on or
        off; it exists so benchmarks can measure the pre-optimization cost.
    """
    check_approximation_t(t)

    if len(graph) == 0:
        breakdown = selection_similarity(graph, (), config)
        return ApproximationResult(breakdown, (), 0, 0)

    if seed == "squareimp":
        selection = squareimp_wmis(graph)
    elif seed == "greedy":
        selection = greedy_wmis(graph)
    else:
        raise ValueError("seed must be 'squareimp' or 'greedy'")

    best_breakdown = selection_similarity(graph, selection, config)
    min_gain = 1.0 / t
    rounds = 0
    max_rounds = int(t)
    weights = [vertex.weight for vertex in graph.vertices]
    ceiling_stopped = False

    while rounds < max_rounds:
        if early_ceiling and best_breakdown.value + min_gain > 1.0 + _CEILING_EPSILON:
            # GetSim is capped at 1, so no swap can clear best + 1/t: the
            # remaining rounds would evaluate candidates and accept none.
            ceiling_stopped = True
            break
        rounds += 1
        # Rank candidate swaps by raw vertex-weight gain, then evaluate the
        # best few with the full GetSim computation.
        ranked: List[Tuple[float, Set[int], Tuple[int, ...]]] = []
        for talons in _candidate_talon_sets(
            graph, selection, max_talons=max_talons, pool_limit=pool_limit
        ):
            removed: Set[int] = set()
            for talon in talons:
                removed |= graph.neighbors(talon) & selection
            gain = sum(weights[talon] for talon in talons) - sum(
                weights[index] for index in removed
            )
            if gain <= 0.0:
                continue
            ranked.append((gain, removed, talons))
        ranked.sort(key=lambda item: -item[0])

        best_swap: Optional[Tuple[Set[int], SimilarityBreakdown]] = None
        for _, removed, talons in ranked[:max_evaluations]:
            candidate = (selection - removed) | set(talons)
            breakdown = selection_similarity(graph, candidate, config)
            if breakdown.value >= best_breakdown.value + min_gain:
                if best_swap is None or breakdown.value > best_swap[1].value:
                    best_swap = (candidate, breakdown)
        if best_swap is None:
            break
        selection, best_breakdown = best_swap

    return ApproximationResult(
        breakdown=best_breakdown,
        selection=tuple(sorted(selection)),
        graph_size=len(graph),
        improvement_rounds=rounds,
        ceiling_stopped=ceiling_stopped,
    )


def approximate_usim(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    config: MeasureConfig,
    *,
    t: float = 4.0,
    max_talons: int = 2,
    pool_limit: int = 12,
    max_evaluations: int = 8,
    seed: str = "squareimp",
    early_ceiling: bool = True,
) -> ApproximationResult:
    """Build the conflict graph for a string pair and run Algorithm 1."""
    if not left_tokens or not right_tokens:
        return ApproximationResult(SimilarityBreakdown(0.0, (), (), ()), (), 0, 0)
    graph = build_conflict_graph(left_tokens, right_tokens, config)
    return approximate_usim_on_graph(
        graph,
        config,
        t=t,
        max_talons=max_talons,
        pool_limit=pool_limit,
        max_evaluations=max_evaluations,
        seed=seed,
        early_ceiling=early_ceiling,
    )
