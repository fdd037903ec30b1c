"""The end-user facade of the unified join framework.

:class:`UnifiedJoin` bundles the measure configuration, the signature method,
the optional τ recommendation, and verification into one object:

>>> from repro.join import UnifiedJoin
>>> from repro.records import RecordCollection
>>> join = UnifiedJoin(rules=rules, taxonomy=taxonomy, theta=0.8, tau="auto")
>>> result = join.join(RecordCollection.from_strings(left), RecordCollection.from_strings(right))
>>> [(pair.left_id, pair.right_id, pair.similarity) for pair in result.pairs]

``tau="auto"`` runs the Section-4 recommendation before the join; an integer
pins it; the default of 1 with the U-Filter method reproduces Algorithm 3.

Prepared reuse
--------------
:meth:`UnifiedJoin.prepare` returns a
:class:`~repro.join.prepared.PreparedCollection` whose pebbles, global
orders, per-(θ, τ, method) signatures, *and per-record verification state*
(cached conflict-graph sides) are cached; pass prepared collections to
:meth:`join` / :meth:`join_batches` to amortize signing and verification
across repeated joins.  Prepared collections are picklable and configs
compare by content, so prepared state survives a trip into worker
processes.  With ``tau="auto"`` the facade prepares both sides itself,
shares one global order between the recommendation and the final join, and
signs the full collections exactly once: the recommender signs at
``max(tau_universe)`` and the final join reuses those signatures while
filtering at the recommended τ (lossless, since a τ'-signature guarantees
τ' ≥ τ overlaps for any θ-similar pair).

Execution
---------
Verification runs through the prepared engine
(:meth:`~repro.join.verification.UnifiedVerifier.verify_batch`): candidates
are grouped per probe record and pass a tiered bound cascade before the
full Algorithm 1; the resulting prune/accept counters are reported in
``result.statistics.verification``.  The ``executor`` knob on :meth:`join`
/ :meth:`join_batches` picks where that work runs: ``"serial"`` (default)
or ``"process"`` — the sharded multi-core driver of
:mod:`repro.join.parallel`, which runs each probe shard's filtering *and*
verification in worker processes and merges results losslessly.  Both
executors return bit-identical pairs, similarities, and statistics
counters at every worker count.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..store import PreparedStore

from ..core.approximation import check_approximation_t
from ..core.grams import DEFAULT_Q
from ..core.measures import MeasureConfig
from ..records import RecordCollection
from ..synonyms.rules import SynonymRuleSet
from ..telemetry import Telemetry, resolve_telemetry
from ..taxonomy.tree import Taxonomy
from .aufilter import (
    JoinBatch,
    JoinResult,
    PebbleJoin,
    _persist_store_entries,
    _store_entries,
    _stream_then_persist,
)
from .kernels import resolve_kernel
from .parallel import _stage_seconds
from .prepared import PreparedCollection
from .signatures import SignatureMethod, check_tau

__all__ = ["UnifiedJoin"]


class UnifiedJoin:
    """High-level unified similarity join (filter–verify with pebbles).

    Parameters
    ----------
    rules, taxonomy:
        Knowledge sources; either may be omitted.
    measures:
        Paper-style measure code string (default ``"TJS"``).
    theta:
        Join threshold in [0, 1].
    tau:
        Overlap constraint: a positive integer, or ``"auto"`` to run the
        sampling-based recommendation of Section 4 before joining.  The
        U-Filter method implies τ = 1: an explicit larger τ raises
        ``ValueError``, and ``tau="auto"`` is pinned to 1 with a warning
        (the recommendation would be pointless).
    method:
        Signature selection method (default AU-Filter DP, the paper's best).
    q:
        Gram length for Jaccard pebbles and verification.
    approximation_t:
        Algorithm 1's trade-off parameter ``t``; anything but
        ``1 < t < inf`` raises ``ValueError`` at construction (the engines
        are built lazily, so the facade checks it itself).
    sample_probability, tau_universe:
        Parameters forwarded to the recommender when ``tau="auto"``; a
        probability outside (0, 1] or a τ below 1 raises ``ValueError`` at
        construction.
    store:
        An optional :class:`~repro.store.PreparedStore`.  When set, raw
        collections passed to :meth:`join` / :meth:`join_batches` /
        :meth:`prepare` are resolved through the on-disk store (a warm
        artifact skips preparation entirely), and after a join that added
        new signings the updated preparation — signatures, graph sides —
        is persisted back, so the *next* run's signing is a cache hit too.
    kernel:
        Filter-kernel selection forwarded to the engine (``"auto"`` —
        the vectorized numpy kernel when numpy is importable, else the
        pure-Python loop — ``"numpy"``, or ``"python"``); bit-identical
        output either way (see :mod:`repro.join.kernels`).
    telemetry:
        A :class:`~repro.telemetry.Telemetry` bundle forwarded to every
        engine this facade constructs (defaults to the process-wide
        bundle; see ``docs/observability.md``).
    """

    #: Always ``False``, kept for benchmark compatibility: ``perfbench/``
    #: reads it and forwards it to :class:`PebbleJoin`, which ignores it.
    adaptive_verification = False

    def __init__(
        self,
        *,
        rules: Optional[SynonymRuleSet] = None,
        taxonomy: Optional[Taxonomy] = None,
        measures: str = "TJS",
        theta: float = 0.8,
        tau: Union[int, str] = 1,
        method: str = SignatureMethod.AU_DP,
        q: int = DEFAULT_Q,
        approximation_t: float = 4.0,
        sample_probability: float = 0.05,
        tau_universe: Sequence[int] = (1, 2, 3, 4, 5, 6),
        recommendation_seed: Optional[int] = None,
        store: Optional["PreparedStore"] = None,
        kernel: str = "auto",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        self.config = MeasureConfig.from_codes(measures, rules=rules, taxonomy=taxonomy, q=q)
        self.theta = theta
        self.method = SignatureMethod.validate(method)
        self.approximation_t = check_approximation_t(approximation_t)
        self.sample_probability = sample_probability
        self.tau_universe = tuple(tau_universe)
        self.recommendation_seed = recommendation_seed
        if isinstance(tau, str):
            if tau != "auto":
                raise ValueError("tau must be a positive integer or 'auto'")
            if self.method == SignatureMethod.U_FILTER:
                warnings.warn(
                    "tau='auto' with the U-Filter method is a conflict: U-Filter "
                    "implies tau=1, so the sampling recommendation would be "
                    "discarded; pinning tau=1 and skipping the recommendation",
                    stacklevel=2,
                )
                self.tau: Union[int, str] = 1
            else:
                from ..estimator.recommend import check_sampling

                check_sampling(self.tau_universe, sample_probability)
                self.tau = "auto"
        else:
            self.tau = check_tau(tau)
            if self.method == SignatureMethod.U_FILTER and self.tau > 1:
                raise ValueError(
                    "the U-Filter method implies tau=1 (Algorithm 3); "
                    f"got tau={tau} — pass tau=1 or use an AU-Filter method"
                )
        self.last_recommendation = None
        self.store = store
        resolve_kernel(kernel)  # validate eagerly: typos fail at construction
        self.kernel = kernel
        self.telemetry = resolve_telemetry(telemetry)

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    def prepare(self, collection: RecordCollection) -> PreparedCollection:
        """Prepare a collection for repeated joins under this configuration.

        With a :attr:`store`, preparation is store-backed: a matching
        on-disk artifact is loaded instead of rebuilt, and a fresh build is
        persisted for the next run.
        """
        if self.store is not None:
            return self.store.prepare(collection, self.config)
        return PreparedCollection.prepare(collection, self.config)

    def _engine(self, tau: int) -> PebbleJoin:
        return PebbleJoin(
            self.config,
            self.theta,
            tau=tau,
            method=self.method,
            approximation_t=self.approximation_t,
            kernel=self.kernel,
            telemetry=self.telemetry,
        )

    def _as_prepared(self, collection, engine: PebbleJoin) -> PreparedCollection:
        """Coerce one side, routing raw collections through the store."""
        if self.store is not None and not isinstance(collection, PreparedCollection):
            return self.store.prepare(collection, self.config)
        return engine.as_prepared(collection)

    def _resolve(
        self, left, right
    ) -> Tuple[PebbleJoin, PreparedCollection, Optional[PreparedCollection], object, Optional[int], float, List[Tuple[PreparedCollection, int]]]:
        """Prepare the sides, pick τ, and return the configured engine.

        Returns ``(engine, left_prep, right_prep_or_None, order, signing_tau,
        suggestion_seconds, store_entries)`` where ``right_prep_or_None`` is
        ``None`` for a self-join (so the engine takes its dedicated
        self-join path) and ``store_entries`` holds each store-resolved
        preparation with its signature-cache size at resolve time — the
        persist-back hook compares against it after the join.
        """
        probe_engine = self._engine(1 if self.tau == "auto" else self.tau)
        self_join = right is None
        left_prep = self._as_prepared(left, probe_engine)
        if self_join:
            right_prep = None
            order = left_prep.build_order(probe_engine.order_strategy)
        elif right is left:
            # join(c, c): cross-join semantics, but share one preparation.
            right_prep = left_prep
            order = left_prep.build_order(probe_engine.order_strategy)
        else:
            right_prep = self._as_prepared(right, probe_engine)
            order = left_prep.shared_order_with(right_prep, probe_engine.order_strategy)

        # Recorded before the recommender signs, so its signing persists too.
        store_entries = _store_entries(self.store, left_prep, right_prep)

        if self.tau != "auto":
            return probe_engine, left_prep, right_prep, order, None, 0.0, store_entries

        from ..estimator.recommend import DEFAULT_MAX_ITERATIONS, TauRecommender

        # The recommender builds its engine with this facade's factory, so
        # it samples through the configured filter kernel.
        recommender = TauRecommender(
            self._engine,
            tau_universe=self.tau_universe,
            left_probability=self.sample_probability,
            right_probability=self.sample_probability,
            max_iterations=DEFAULT_MAX_ITERATIONS,
            seed=self.recommendation_seed,
        )
        with self.telemetry.span("recommend") as recommend_span:
            start = time.perf_counter()
            recommendation = recommender.recommend(left_prep, right_prep, order=order)
            recommend_span.annotate(
                best_tau=recommendation.best_tau,
                iterations=recommendation.iterations,
                signing_tau=recommendation.signing_tau,
            )
        suggestion_seconds = _stage_seconds(recommend_span, start)
        self.last_recommendation = recommendation
        engine = self._engine(recommendation.best_tau)
        return (
            engine,
            left_prep,
            right_prep,
            order,
            recommendation.signing_tau,
            suggestion_seconds,
            store_entries,
        )

    # ------------------------------------------------------------------ #
    # joining
    # ------------------------------------------------------------------ #
    def join(
        self,
        left,
        right=None,
        *,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        pool=None,
        supervision=None,
    ) -> JoinResult:
        """Join two collections (or self-join one) under the configuration.

        Both sides accept raw record collections or collections prepared
        with :meth:`prepare`.  With ``tau="auto"``, the recommendation and
        the final join share one preparation, order, and full signing.
        ``executor`` / ``workers`` select serial or sharded process-pool
        execution, and ``pool`` / ``supervision`` tune the process path's
        pooling and fault tolerance, exactly as on :meth:`PebbleJoin.join`.
        With a :attr:`store`, raw sides resolve
        through the on-disk artifact store and enriched preparations are
        persisted back after the join.
        """
        engine, left_prep, right_prep, order, signing_tau, suggestion_seconds, entries = (
            self._resolve(left, right)
        )
        result = engine.join(
            left_prep,
            right_prep,
            precomputed_order=order,
            signing_tau=signing_tau,
            executor=executor,
            workers=workers,
            pool=pool,
            supervision=supervision,
        )
        result.statistics.suggestion_seconds = suggestion_seconds
        _persist_store_entries(self.store, entries)
        return result

    def join_batches(
        self,
        left,
        right=None,
        *,
        batch_size: int = 1024,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        pool=None,
        supervision=None,
    ) -> Iterator[JoinBatch]:
        """Stream the join in verified chunks (see ``PebbleJoin.join_batches``).

        With ``tau="auto"`` the τ-recommendation runs before streaming
        starts; its cost is reported as ``suggestion_seconds`` on the first
        yielded batch (it used to be silently discarded here), so streaming
        consumers can account for the full end-to-end time just like
        :meth:`join` does through ``JoinStatistics``.  Store-resolved
        preparations are persisted back once the stream is exhausted.
        """
        engine, left_prep, right_prep, order, signing_tau, suggestion_seconds, entries = (
            self._resolve(left, right)
        )
        batches = engine.join_batches(
            left_prep,
            right_prep,
            batch_size=batch_size,
            precomputed_order=order,
            signing_tau=signing_tau,
            executor=executor,
            workers=workers,
            pool=pool,
            supervision=supervision,
            suggestion_seconds=suggestion_seconds,
        )
        return _stream_then_persist(self.store, batches, entries)

    def self_join(self, collection) -> JoinResult:
        """Self-join convenience wrapper."""
        return self.join(collection)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnifiedJoin(measures={self.config.codes!r}, theta={self.theta}, "
            f"tau={self.tau!r}, method={self.method!r})"
        )
