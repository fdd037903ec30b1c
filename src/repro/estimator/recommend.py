"""Algorithm 7: sampling-based recommendation of the overlap constraint τ.

The recommender takes a join engine and signs the full input collections
**once**, through the engine's
:meth:`~repro.join.aufilter.PebbleJoin.resolve` (at the largest candidate
τ, cached in the :class:`~repro.join.prepared.PreparedCollection`
signature cache).  It encodes the signed sides through the call the join's
plan makes, ``PebbleJoin._flat_filter_state``, so the
:class:`~repro.join.flat.FlatJoinState` is memoized on the indexed side's
preparation (:meth:`~repro.join.prepared.PreparedCollection.flat_state`)
and the final join's filter finds it there: ``UnifiedJoin(tau="auto")``
signs and encodes its sides once end to end.

Sampling draws a series of small independent Bernoulli samples as row
gathers of the encoded sides (one ``rng.random()`` per row, in row order),
runs only the filtering stage on each sample — one counts-mode pass of
the filter kernel per iteration
(:func:`~repro.join.kernels.overlap_histogram`, whose histogram of
saturated overlap counts yields every ``V_τ`` at once) — scales the
observed cardinalities up to the full data (unbiased Bernoulli
estimators), and folds them into the cost model.  Iterations continue
until both

* the burn-in of ``n*`` iterations has completed, and
* the worst-case penalty of committing to the currently-best τ is smaller
  than the cost of running one more estimation iteration (Inequality 24),

after which the τ with the lowest estimated total cost is returned.

Counting exactly when sampling would cost more
----------------------------------------------
Sampling pays because one filter pass over a large input is expensive; on
a small input one exact pass is the cheaper answer.  The recommender
weighs the two in the unit the stopping rule already uses, processed
pairs, plus the key occurrences a sample gathers:

* The exact pass costs ``T``, the processed pairs of the full filter.
  :func:`~repro.join.kernels.processed_count` reads it off the state's
  postings without a probe pass.  The kernels count a posting as processed
  before their saturation check, so a posting is processed exactly when it
  survives the self-join exclusion, which compares it with the probe id
  alone: a cross join processes every posting of each known probe key
  occurrence, and a self-join the part of each ascending posting list
  below the probe id, which a binary search finds.  The count is
  therefore the kernel's ``processed`` for the same arguments.
* One sample's expected work is ``E = p_l·p_r·T + p_l·K_l + p_r·K_r``,
  with ``K`` a side's signature key occurrences; a self-join draws one
  sample, so ``E = p²·T + p·K``.

Before each sample, if the work sampled so far plus
``max(burn_in − samples drawn, 1) · E`` reaches ``T``, the recommender runs
the exact pass — one :func:`~repro.join.kernels.overlap_histogram` at cap
``max(tau_universe)`` over the state — and stops.  Its ``(T, V_τ)`` become
the only observation of the call's cost model (variance 0), whose argmin
is ``best_tau`` as after sampling.  The sampler cannot stop before its
burn-in, so the rule never samples when the burn-in alone would cost more
than the exact answer.  The rule reads only the sampling settings and
counts, never a clock: a τ that followed machine load would move every
counter downstream of it.

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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.measures import MeasureConfig
from ..join.flat import FlatJoinState, FlatPostings, FlatSignatures
from ..join.kernels import overlap_histogram, processed_count
from ..join.signatures import check_tau
from .bernoulli import bernoulli_rows, scale_estimate
from .cost_model import CostEstimate, CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..join.aufilter import PebbleJoin

__all__ = ["RecommendationResult", "TauRecommender", "recommend_tau"]

#: Student's t quantile the paper uses (70 % two-sided confidence).
DEFAULT_T_QUANTILE = 1.036
#: Burn-in iterations before the stopping rule may fire.
DEFAULT_BURN_IN = 10
#: Default candidate τ values (the paper examines 1–8).
DEFAULT_TAU_UNIVERSE = (1, 2, 3, 4, 5, 6)
#: Iteration cap of :class:`TauRecommender`, :func:`recommend_tau` and
#: ``UnifiedJoin(tau="auto")``.
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


def _sample_rows(flat: FlatSignatures, probability: float, rng: random.Random) -> FlatSignatures:
    return flat.take(bernoulli_rows(len(flat), probability, rng))


@dataclass
class RecommendationResult:
    """Outcome of the τ recommendation."""

    best_tau: int
    #: Samples drawn (0 when the exact pass ran first).
    iterations: int
    elapsed_seconds: float
    estimates: Dict[int, CostEstimate]
    sample_sizes: List[Tuple[int, int]] = field(default_factory=list)
    #: τ the shared signatures were selected for (``max(tau_universe)``);
    #: a follow-up join signing at this τ hits the prepared cache.
    signing_tau: int = 1
    #: Whether the recommendation estimated a self-join.
    self_join: bool = False
    #: Whether the estimates are one exact counts pass over the full sides,
    #: run once it was cheaper than sampling on (see the module docs).
    exact: bool = False


class TauRecommender:
    """Monte-Carlo τ recommendation for a pebble join (Algorithm 7)."""

    def __init__(
        self,
        engine: "PebbleJoin",
        *,
        tau_universe: Sequence[int] = DEFAULT_TAU_UNIVERSE,
        left_probability: float = 0.01,
        right_probability: float = 0.01,
        burn_in: int = DEFAULT_BURN_IN,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        t_quantile: float = DEFAULT_T_QUANTILE,
        filter_cost: float = 1.0,
        verify_cost: float = 50.0,
        seed: Optional[int] = None,
    ) -> None:
        """``engine`` is the :class:`~repro.join.aufilter.PebbleJoin` whose
        θ, signature method, order strategy and store the recommendation
        signs with (its ``resolve``, at ``max(tau_universe)``, which must
        not be below the engine's own τ); its ``kernel`` knob picks the
        filter kernel the samples and the exact pass run through.

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
        self.engine = engine
        self.tau_universe = check_sampling(
            tau_universe, left_probability, right_probability
        )
        self.left_probability = left_probability
        self.right_probability = right_probability
        self.burn_in = burn_in
        self.max_iterations = max_iterations
        self.t_quantile = t_quantile
        # Validated here; each recommend() call builds its own model from them.
        CostModel(filter_cost=filter_cost, verify_cost=verify_cost)
        self.filter_cost = filter_cost
        self.verify_cost = verify_cost
        self.seed = seed

    # ------------------------------------------------------------------ #
    # one estimation iteration
    # ------------------------------------------------------------------ #
    def _run_iteration(
        self,
        rng: random.Random,
        state: FlatJoinState,
        index_rows: FlatSignatures,
        probe_is_left: bool,
        self_join: bool,
        kernel: str,
    ) -> Tuple[Dict[int, Tuple[float, float]], Tuple[int, int], int, int]:
        """Sample the encoded sides from ``rng``, count every τ in one pass, scale.

        ``state.probe`` holds the probe side's rows and ``index_rows`` the
        indexed side's (the same rows for a self-join or a side passed
        twice); the left side is sampled first.  Returns the per-τ
        ``(T̂, V̂)`` estimates, the sample sizes, the raw (unscaled)
        processed-pair count of this iteration, which feeds the stopping
        rule's right-hand side, and the key occurrences the samples
        gathered.
        """
        if self_join:
            # A self-join sample is filtered as a self-join: one index,
            # (i, i) and mirrored pairs excluded.
            probe = index = _sample_rows(state.probe, self.left_probability, rng)
            sizes = (len(probe), len(probe))
            left_scale = right_scale = self.left_probability
            gathered = probe.total_keys
        else:
            left_rows, right_rows = (
                (state.probe, index_rows) if probe_is_left else (index_rows, state.probe)
            )
            left = _sample_rows(left_rows, self.left_probability, rng)
            right = _sample_rows(right_rows, self.right_probability, rng)
            probe, index = (left, right) if probe_is_left else (right, left)
            sizes = (len(left), len(right))
            left_scale, right_scale = self.left_probability, self.right_probability
            gathered = left.total_keys + right.total_keys

        if not len(probe) or not len(index):
            # Empty samples estimate zero work for every τ; they still count
            # as an iteration (the estimator stays unbiased in expectation).
            return {tau: (0.0, 0.0) for tau in self.tau_universe}, sizes, 0, gathered

        # Overlap counts are symmetric in the two sides, so the sample of
        # the state's indexed side is the indexed one here too.
        processed, histogram = overlap_histogram(
            FlatPostings.from_flat(index, len(state.vocab)),
            probe,
            0,
            len(probe),
            self.tau_universe[-1],
            probe_is_left=probe_is_left,
            exclude_self_pairs=self_join,
            postings_ascending=state.postings_ascending,
            counts_size=state.counts_size,
            kernel=kernel,
        )
        scaled_processed = scale_estimate(processed, left_scale, right_scale)
        estimates: Dict[int, Tuple[float, float]] = {}
        for tau in self.tau_universe:
            candidates = scale_estimate(sum(histogram[tau:]), left_scale, right_scale)
            estimates[tau] = (scaled_processed, candidates)
        return estimates, sizes, processed, gathered

    # ------------------------------------------------------------------ #
    # stopping rule
    # ------------------------------------------------------------------ #
    def _should_stop(self, cost_model: CostModel, iteration: int, last_raw_processed: float) -> bool:
        """Inequality 24 after the burn-in period, on this call's ``cost_model``.

        One estimation iteration is a single counts-mode kernel pass, so its
        cost is one filtering pass over the sample — not one pass per
        candidate τ.
        """
        if iteration < self.burn_in:
            return False
        estimates = {tau: cost_model.estimate(tau) for tau in self.tau_universe}
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
        next_iteration_cost = cost_model.filter_cost * last_raw_processed
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
        collections, resolved as :meth:`PebbleJoin.resolve` resolves a
        join's sides; ``right=None`` estimates a self-join (deduplicated
        pairs, ``exclude_self_pairs``).  Passing the same collection twice
        keeps cross-join semantics — matching what ``join(c, c)`` executes —
        while still sharing one preparation and signing.  A precomputed
        ``order`` (shared with the final join) can be supplied to avoid
        rebuilding the global order.

        Each call has its own cost model and random stream (from ``seed``),
        so a second call returns what a fresh recommender would.
        """
        start = time.perf_counter()
        signing_tau = max(self.tau_universe)
        # One full signing at the largest candidate τ serves every iteration
        # and — through the prepared cache — the final join.
        engine = self.engine
        sides = engine.resolve(
            left, right, precomputed_order=order, signing_tau=signing_tau
        )
        self_join = sides.self_join
        # The state the join's plan resolves, memoized on the indexed side's
        # preparation, so the final join encodes nothing again.
        state, probe_signed, probe_is_left = engine._flat_filter_state(
            sides.left_signed, sides.right_signed, (sides.left_prep, sides.right_prep)
        )
        index_signed = sides.right_signed if probe_is_left else sides.left_signed
        kernel = engine.kernel
        count_flags = dict(
            probe_is_left=probe_is_left,
            exclude_self_pairs=self_join,
            postings_ascending=state.postings_ascending,
        )
        # The exact pass's work, T, and one sample's expected work, E (see
        # the module docs).  Every indexed key occurrence posts once, and
        # the probe side's unknown keys are gathered too.
        exact_work = processed_count(
            state.postings, state.probe, 0, state.probe_count, kernel=kernel, **count_flags
        )
        probe_keys, index_keys = state.probe.total_keys, len(state.postings.data)
        left_keys, right_keys = (
            (probe_keys, index_keys) if probe_is_left else (index_keys, probe_keys)
        )
        left_p, right_p = self.left_probability, self.right_probability
        if self_join:
            expected_work = left_p * left_p * exact_work + left_p * left_keys
        else:
            expected_work = (
                left_p * right_p * exact_work + left_p * left_keys + right_p * right_keys
            )

        cost_model = CostModel(filter_cost=self.filter_cost, verify_cost=self.verify_cost)
        rng = random.Random(self.seed)
        sample_sizes: List[Tuple[int, int]] = []
        sampled_work = 0
        index_rows: Optional[FlatSignatures] = None
        exact = False
        while len(sample_sizes) < self.max_iterations:
            # The samples still to come, at least the rest of the burn-in
            # and at least one, would bring the sampled work up to T.
            remaining = max(self.burn_in - len(sample_sizes), 1)
            if sampled_work + remaining * expected_work >= exact_work:
                processed, histogram = overlap_histogram(
                    state.postings,
                    state.probe,
                    0,
                    state.probe_count,
                    self.tau_universe[-1],
                    counts_size=state.counts_size,
                    kernel=kernel,
                    **count_flags,
                )
                cost_model = CostModel(
                    filter_cost=self.filter_cost, verify_cost=self.verify_cost
                )
                for tau in self.tau_universe:
                    cost_model.observe(tau, float(processed), float(sum(histogram[tau:])))
                exact = True
                break
            if index_rows is None:
                # A cross join's state keeps only the indexed side's
                # postings; its samples need that side's rows once.
                index_rows = (
                    state.probe
                    if index_signed is probe_signed
                    else FlatSignatures.from_signed(index_signed, state.vocab, grow=False)
                )
            estimates, sizes, raw_processed, gathered = self._run_iteration(
                rng, state, index_rows, probe_is_left, self_join, kernel
            )
            sample_sizes.append(sizes)
            sampled_work += raw_processed + gathered
            for tau, (processed_estimate, candidates) in estimates.items():
                cost_model.observe(tau, processed_estimate, candidates)
            if self._should_stop(cost_model, len(sample_sizes), raw_processed):
                break

        estimates_by_tau = {tau: cost_model.estimate(tau) for tau in self.tau_universe}
        best_tau = min(estimates_by_tau.values(), key=lambda estimate: estimate.mean_cost).tau
        return RecommendationResult(
            best_tau=best_tau,
            iterations=len(sample_sizes),
            elapsed_seconds=time.perf_counter() - start,
            estimates=estimates_by_tau,
            sample_sizes=sample_sizes,
            signing_tau=signing_tau,
            self_join=self_join,
            exact=exact,
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
    recommends for a self-join.  The engine filters at ``max(tau_universe)``,
    so the U-Filter method (which implies τ = 1) takes a universe of 1 only.
    """
    from ..join.aufilter import PebbleJoin

    engine = PebbleJoin(
        config, theta, tau=check_sampling(tau_universe)[-1], method=method
    )
    recommender = TauRecommender(
        engine,
        tau_universe=tau_universe,
        left_probability=sample_probability,
        right_probability=sample_probability,
        burn_in=burn_in,
        max_iterations=max_iterations,
        t_quantile=t_quantile,
        seed=seed,
    )
    return recommender.recommend(left, right, order=order)
