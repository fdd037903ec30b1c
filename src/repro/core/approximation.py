"""Algorithm 1: polynomial-time approximation of the unified similarity.

The algorithm has two stages:

1. Seed: compute a weighted maximum independent set of the conflict graph
   with a SquareImp-style local search (:func:`repro.core.mis.squareimp_mask`).
2. Improve: repeatedly look for a claw whose talons, once swapped into the
   solution (removing their conflicting neighbours), raise the *unified
   similarity realised by the selection* (``GetSim``) by at least ``1/t``.
   The loop therefore runs at most ``floor(t)`` times, keeping the overall
   running time polynomial in ``t · n`` as in the paper's Theorem 2.

Both stages work on the graph's adjacency masks with the selection as a
mask, and ``GetSim`` reads the graph's weight table
(:attr:`~repro.core.graph.ConflictGraph.table`), so a run on a built graph
computes no similarity measure.  The returned breakdown records the
partitions and matched segment pairs that realise the approximate
similarity, so callers can explain results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .aggregation import SimilarityBreakdown, selection_similarity
from .graph import ConflictGraph, build_conflict_graph, mask_indices
from .measures import MeasureConfig
from .mis import greedy_mask, squareimp_mask

__all__ = [
    "ApproximationResult",
    "approximate_usim",
    "approximate_usim_on_graph",
    "check_approximation_t",
]


#: Slack added to the value ceiling before skipping improvement rounds; keeps
#: the skip conservative against any floating-point drift in GetSim sums.
_CEILING_EPSILON = 1e-9

#: Maximum number of talons per candidate claw swap.
MAX_TALONS = 2

#: Maximum number of out-of-solution vertices considered per round.
POOL_LIMIT = 12

#: Number of highest-ranked candidate swaps whose ``GetSim`` is actually
#: evaluated per round.  Candidates are ranked by their vertex-weight gain,
#: which is what bounds the similarity improvement; evaluating only the top
#: swaps keeps each round cheap without changing the algorithm's guarantees
#: (a swap that improves GetSim by ≥ 1/t must also carry substantial
#: vertex-weight gain).
MAX_EVALUATIONS = 8


def check_approximation_t(t: float) -> float:
    """Return ``t`` when it is a valid trade-off parameter, else raise.

    Algorithm 1 ignores improvements below ``1/t`` and runs at most
    ``floor(t)`` rounds, so it needs ``1 < t < inf``; the comparison is
    written so that NaN fails it.
    """
    if not 1.0 < t < math.inf:
        raise ValueError(f"t must be a finite number greater than 1; got t={t}")
    return t


def _seed_search(seed: str):
    """The seed search named by ``seed``, else raise."""
    if seed == "squareimp":
        return squareimp_mask
    if seed == "greedy":
        return greedy_mask
    raise ValueError("seed must be 'squareimp' or 'greedy'")


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
    graph: ConflictGraph, selection: int
) -> Iterable[Tuple[int, ...]]:
    """Enumerate bounded independent sets of out-of-solution vertices.

    The enumeration is anchored on vertices outside the current solution
    (the mask ``selection``), ordered by descending weight, and bounded both
    in talon count and in the size of the neighbourhood pool each anchor
    explores.  This keeps each improvement round polynomial while still
    finding the swaps that matter in practice (Example 5 of the paper is
    recovered by 2-talon swaps).
    """
    weights = graph.weights
    outside = sorted(
        mask_indices(((1 << len(graph)) - 1) & ~selection),
        key=lambda index: -weights[index],
    )
    outside_pool = outside[:POOL_LIMIT]
    for size in range(1, MAX_TALONS + 1):
        for combo in itertools.combinations(outside_pool, size):
            if graph.is_independent(combo):
                yield combo


def approximate_usim_on_graph(
    graph: ConflictGraph,
    *,
    t: float = 4.0,
    seed: str = "squareimp",
    early_ceiling: bool = True,
) -> ApproximationResult:
    """Run Algorithm 1 on a pre-built conflict graph.

    Parameters
    ----------
    graph:
        The conflict graph of the string pair; ``GetSim`` reads its weight
        table.
    t:
        The paper's trade-off parameter: improvements smaller than ``1/t``
        are ignored and at most ``floor(t)`` improvement rounds run.
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
    search = _seed_search(seed)

    if len(graph) == 0:
        breakdown = selection_similarity(graph, ())
        return ApproximationResult(breakdown, (), 0, 0)

    selection = search(graph)
    best_breakdown = selection_similarity(graph, mask_indices(selection))
    min_gain = 1.0 / t
    rounds = 0
    max_rounds = int(t)
    weights = graph.weights
    adjacency = graph.adjacency
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
        ranked: List[Tuple[float, int, Tuple[int, ...]]] = []
        for talons in _candidate_talon_sets(graph, selection):
            removed = 0
            for talon in talons:
                removed |= adjacency[talon]
            removed &= selection
            gain = sum(weights[talon] for talon in talons) - sum(
                weights[index] for index in mask_indices(removed)
            )
            if gain <= 0.0:
                continue
            ranked.append((gain, removed, talons))
        ranked.sort(key=lambda item: -item[0])

        best_swap: Optional[Tuple[int, SimilarityBreakdown]] = None
        for _, removed, talons in ranked[:MAX_EVALUATIONS]:
            candidate = selection & ~removed
            for talon in talons:
                candidate |= 1 << talon
            breakdown = selection_similarity(graph, mask_indices(candidate))
            if breakdown.value >= best_breakdown.value + min_gain:
                if best_swap is None or breakdown.value > best_swap[1].value:
                    best_swap = (candidate, breakdown)
        if best_swap is None:
            break
        selection, best_breakdown = best_swap

    return ApproximationResult(
        breakdown=best_breakdown,
        selection=tuple(mask_indices(selection)),
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
    seed: str = "squareimp",
    early_ceiling: bool = True,
) -> ApproximationResult:
    """Build the conflict graph for a string pair and run Algorithm 1."""
    check_approximation_t(t)
    _seed_search(seed)
    if not left_tokens or not right_tokens:
        return ApproximationResult(SimilarityBreakdown(0.0, (), (), ()), (), 0, 0)
    graph = build_conflict_graph(left_tokens, right_tokens, config)
    return approximate_usim_on_graph(
        graph,
        t=t,
        seed=seed,
        early_ceiling=early_ceiling,
    )
