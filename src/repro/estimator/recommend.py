"""Algorithm 7: sampling-based recommendation of the overlap constraint τ.

The recommender signs the full input collections **once** (at the largest
candidate τ, through the :class:`~repro.join.prepared.PreparedCollection`
signature cache) and encodes each signed side once per call as
:class:`~repro.join.flat.FlatSignatures`.  It then draws a series of small
independent Bernoulli samples as row gathers of that encoding (one
``rng.random()`` per row, in row order), runs only the filtering stage on
each sample — one counts-mode pass of the filter kernel per iteration
(:func:`~repro.join.kernels.overlap_histogram`, whose histogram of
saturated overlap counts yields every ``V_τ`` at once) — scales the
observed cardinalities up to the full data (unbiased Bernoulli
estimators), and folds them into the cost model.  Iterations continue
until both

* the burn-in of ``n*`` iterations has completed, and
* the worst-case penalty of committing to the currently-best τ is smaller
  than the cost of running one more estimation iteration (Inequality 24),

after which the τ with the lowest estimated total cost is returned.

Because the prepared signature cache is shared, a subsequent full join at
the same (θ, signing τ, method) — as ``UnifiedJoin(tau="auto")`` performs —
reuses the recommendation's signing verbatim: the full collections are
signed exactly once end to end.

Self-joins are estimated as self-joins: one sample per iteration, filtered
with ``exclude_self_pairs`` so that neither ``(i, i)`` nor mirrored pairs
inflate the cost estimates (each unordered pair survives sampling with
probability ``p²``, so estimates scale by ``1/p²``).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.measures import MeasureConfig
from ..core.vocab import Vocabulary
from ..join.flat import FlatPostings, FlatSignatures
from ..join.kernels import overlap_histogram
from ..join.signatures import check_tau
from .bernoulli import bernoulli_rows, scale_estimate
from .cost_model import CostEstimate, CostModel

__all__ = ["RecommendationResult", "TauRecommender", "recommend_tau"]

#: Student's t quantile the paper uses (70 % two-sided confidence).
DEFAULT_T_QUANTILE = 1.036
#: Burn-in iterations before the stopping rule may fire.
DEFAULT_BURN_IN = 10
#: Default candidate τ values (the paper examines 1–8).
DEFAULT_TAU_UNIVERSE = (1, 2, 3, 4, 5, 6)
#: Iteration cap of :func:`recommend_tau` and ``UnifiedJoin(tau="auto")``.
DEFAULT_MAX_ITERATIONS = 100


def check_sampling(tau_universe: Sequence[int], *probabilities: float) -> Tuple[int, ...]:
    """Validate a τ universe and sampling probabilities; returns the universe.

    Probabilities must lie in (0, 1], the bound
    :func:`~repro.estimator.bernoulli.bernoulli_rows` enforces, and every
    τ must be a positive integer.  Returns the sorted, deduplicated universe.
    """
    universe = tuple(
        sorted({check_tau(tau, "every tau in tau_universe") for tau in tau_universe})
    )
    if not universe:
        raise ValueError("tau_universe must not be empty")
    for probability in probabilities:
        if not 0.0 < probability <= 1.0:
            raise ValueError(
                f"sampling probability must be in (0, 1]; got {probability}"
            )
    return universe


@dataclass
class RecommendationResult:
    """Outcome of the τ recommendation."""

    best_tau: int
    iterations: int
    elapsed_seconds: float
    estimates: Dict[int, CostEstimate]
    sample_sizes: List[Tuple[int, int]] = field(default_factory=list)
    #: τ the shared signatures were selected for (``max(tau_universe)``);
    #: a follow-up join signing at this τ hits the prepared cache.
    signing_tau: int = 1
    #: Whether the recommendation estimated a self-join.
    self_join: bool = False


class TauRecommender:
    """Monte-Carlo τ recommendation for a pebble join (Algorithm 7)."""

    def __init__(
        self,
        join_factory,
        *,
        tau_universe: Sequence[int] = DEFAULT_TAU_UNIVERSE,
        left_probability: float = 0.01,
        right_probability: float = 0.01,
        burn_in: int = DEFAULT_BURN_IN,
        max_iterations: int = 200,
        t_quantile: float = DEFAULT_T_QUANTILE,
        filter_cost: float = 1.0,
        verify_cost: float = 50.0,
        seed: Optional[int] = None,
    ) -> None:
        """``join_factory(tau)`` must return a join engine exposing
        ``as_prepared`` and the ``theta`` / ``method`` / ``order_strategy`` /
        ``kernel`` attributes — i.e. a
        :class:`~repro.join.aufilter.PebbleJoin` configured for the target θ
        and signature method.  Its ``kernel`` knob picks the filter kernel
        the samples run through.

        Raises ``ValueError`` for a probability outside (0, 1] or a τ below
        1 (see :func:`check_sampling`), for a ``burn_in`` or
        ``max_iterations`` that is not an integer ≥ 1 (a bool included), for
        ``max_iterations < burn_in``, and for a ``t_quantile`` or cost
        constant that is not finite and > 0.
        """
        burn_in = check_tau(burn_in, "burn_in")
        max_iterations = check_tau(max_iterations, "max_iterations")
        if max_iterations < burn_in:
            raise ValueError("max_iterations must be at least burn_in")
        # Written so that NaN fails the comparison.
        if not 0 < t_quantile < math.inf:
            raise ValueError(f"t_quantile must be finite and > 0; got {t_quantile!r}")
        self.join_factory = join_factory
        self.tau_universe = check_sampling(
            tau_universe, left_probability, right_probability
        )
        self.left_probability = left_probability
        self.right_probability = right_probability
        self.burn_in = burn_in
        self.max_iterations = max_iterations
        self.t_quantile = t_quantile
        self.cost_model = CostModel(filter_cost=filter_cost, verify_cost=verify_cost)
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    # one estimation iteration
    # ------------------------------------------------------------------ #
    def _sample_rows(self, flat: FlatSignatures, probability: float) -> FlatSignatures:
        return flat.take(bernoulli_rows(len(flat), probability, self.rng))

    def _run_iteration(
        self,
        left_flat: FlatSignatures,
        right_flat: FlatSignatures,
        self_join: bool,
        ascending: bool,
        counts_size: int,
        kernel: str,
    ) -> Tuple[Dict[int, Tuple[float, float]], Tuple[int, int], float]:
        """Sample the encoded sides, count every τ in one pass, scale.

        Returns the per-τ ``(T̂, V̂)`` estimates, the sample sizes, and the raw
        (unscaled) processed-pair count of this iteration, which feeds the
        stopping rule's right-hand side.
        """
        if self_join:
            # A self-join sample is filtered as a self-join: one index,
            # (i, i) and mirrored pairs excluded.
            probe = index = self._sample_rows(left_flat, self.left_probability)
            sizes = (len(probe), len(probe))
            left_scale = right_scale = self.left_probability
        else:
            probe = self._sample_rows(left_flat, self.left_probability)
            index = self._sample_rows(right_flat, self.right_probability)
            sizes = (len(probe), len(index))
            left_scale, right_scale = self.left_probability, self.right_probability

        if not len(probe) or not len(index):
            # Empty samples estimate zero work for every τ; they still count
            # as an iteration (the estimator stays unbiased in expectation).
            return {tau: (0.0, 0.0) for tau in self.tau_universe}, sizes, 0.0

        # Overlap counts are symmetric in the two sides, so the right sample
        # is always the indexed one.
        processed, histogram = overlap_histogram(
            FlatPostings.from_flat(index, len(left_flat.vocab)),
            probe,
            0,
            len(probe),
            self.tau_universe[-1],
            probe_is_left=not self_join,
            exclude_self_pairs=self_join,
            postings_ascending=ascending,
            counts_size=counts_size,
            kernel=kernel,
        )
        scaled_processed = scale_estimate(processed, left_scale, right_scale)
        estimates: Dict[int, Tuple[float, float]] = {}
        for tau in self.tau_universe:
            candidates = scale_estimate(sum(histogram[tau:]), left_scale, right_scale)
            estimates[tau] = (scaled_processed, candidates)
        return estimates, sizes, float(processed)

    # ------------------------------------------------------------------ #
    # stopping rule
    # ------------------------------------------------------------------ #
    def _should_stop(self, iteration: int, last_raw_processed: float) -> bool:
        """Inequality 24 after the burn-in period.

        One estimation iteration is a single counts-mode kernel pass, so its
        cost is one filtering pass over the sample — not one pass per
        candidate τ.
        """
        if iteration < self.burn_in:
            return False
        estimates = {tau: self.cost_model.estimate(tau) for tau in self.tau_universe}
        best_tau = min(estimates.values(), key=lambda estimate: estimate.mean_cost).tau
        _, best_upper = estimates[best_tau].confidence_interval(self.t_quantile)
        other_lowers = [
            estimates[tau].confidence_interval(self.t_quantile)[0]
            for tau in self.tau_universe
            if tau != best_tau
        ]
        if not other_lowers:
            return True
        penalty = best_upper - min(other_lowers)
        next_iteration_cost = self.cost_model.filter_cost * last_raw_processed
        return penalty < next_iteration_cost

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def recommend(
        self,
        left,
        right=None,
        *,
        order=None,
    ) -> RecommendationResult:
        """Run Algorithm 7 and return the recommended τ with its evidence.

        ``left`` and ``right`` may be raw
        :class:`~repro.records.RecordCollection` objects or prepared
        collections; ``right=None`` estimates a self-join (deduplicated
        pairs, ``exclude_self_pairs``).  Passing the same collection twice
        keeps cross-join semantics — matching what ``join(c, c)`` executes —
        while still sharing one preparation and signing.  A precomputed
        ``order`` (shared with the final join) can be supplied to avoid
        rebuilding the global order.
        """
        start = time.perf_counter()
        signing_tau = max(self.tau_universe)
        engine = self.join_factory(signing_tau)
        self_join = right is None

        left_prep = engine.as_prepared(left)
        right_prep = left_prep if (self_join or right is left) else engine.as_prepared(right)
        if order is None:
            if right_prep is left_prep:
                order = left_prep.build_order(engine.order_strategy)
            else:
                order = left_prep.shared_order_with(right_prep, engine.order_strategy)

        # One full signing at the largest candidate τ serves every iteration
        # and — through the prepared cache — the final join.
        left_signed = left_prep.signed(order, engine.theta, signing_tau, engine.method)
        right_signed = (
            left_signed
            if self_join
            else right_prep.signed(order, engine.theta, signing_tau, engine.method)
        )
        # Encoded once; every sample is a row gather of these arrays.
        vocab = Vocabulary()
        left_flat = FlatSignatures.from_signed(left_signed, vocab)
        right_flat = (
            left_flat
            if right_signed is left_signed
            else FlatSignatures.from_signed(right_signed, vocab)
        )
        index_ids = right_flat.record_ids
        # Rows keep their order in every sample, so ascending full-side ids
        # license the self-join early break in every sample.
        ascending = all(a < b for a, b in zip(index_ids, index_ids[1:]))
        counts_size = max(index_ids, default=-1) + 1

        sample_sizes: List[Tuple[int, int]] = []
        iteration = 0
        last_raw_processed = 0.0

        while iteration < self.max_iterations:
            iteration += 1
            estimates, sizes, raw_processed = self._run_iteration(
                left_flat, right_flat, self_join, ascending, counts_size, engine.kernel
            )
            sample_sizes.append(sizes)
            last_raw_processed = raw_processed
            for tau, (processed, candidates) in estimates.items():
                self.cost_model.observe(tau, processed, candidates)
            if self._should_stop(iteration, last_raw_processed):
                break

        estimates_by_tau = {tau: self.cost_model.estimate(tau) for tau in self.tau_universe}
        best_tau = min(estimates_by_tau.values(), key=lambda estimate: estimate.mean_cost).tau
        return RecommendationResult(
            best_tau=best_tau,
            iterations=iteration,
            elapsed_seconds=time.perf_counter() - start,
            estimates=estimates_by_tau,
            sample_sizes=sample_sizes,
            signing_tau=signing_tau,
            self_join=self_join,
        )


def recommend_tau(
    left,
    right,
    config: MeasureConfig,
    theta: float,
    *,
    method: str = "au-dp",
    tau_universe: Sequence[int] = DEFAULT_TAU_UNIVERSE,
    sample_probability: float = 0.01,
    burn_in: int = DEFAULT_BURN_IN,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    t_quantile: float = DEFAULT_T_QUANTILE,
    seed: Optional[int] = None,
    order=None,
) -> RecommendationResult:
    """Convenience wrapper: recommend τ for a unified join configuration.

    ``left``/``right`` accept raw or prepared collections; ``right=None``
    recommends for a self-join.
    """
    from ..join.aufilter import PebbleJoin

    def factory(tau: int) -> PebbleJoin:
        return PebbleJoin(config, theta, tau=tau, method=method)

    recommender = TauRecommender(
        factory,
        tau_universe=tau_universe,
        left_probability=sample_probability,
        right_probability=sample_probability,
        burn_in=burn_in,
        max_iterations=max_iterations,
        t_quantile=t_quantile,
        seed=seed,
    )
    return recommender.recommend(left, right, order=order)
