"""Public facade for the unified string similarity measure (USIM).

:class:`UnifiedSimilarity` wires the tokenizer, the measure configuration,
and the exact / approximate solvers behind a small API:

>>> from repro import UnifiedSimilarity, SynonymRuleSet, Taxonomy
>>> rules = SynonymRuleSet.from_pairs([("coffee shop", "cafe")])
>>> taxonomy = Taxonomy("Wikipedia")
>>> food = taxonomy.add_node("food", taxonomy.root)
>>> coffee = taxonomy.add_node("coffee", food)
>>> drinks = taxonomy.add_node("coffee drinks", coffee)
>>> _ = taxonomy.add_node("espresso", drinks); _ = taxonomy.add_node("latte", drinks)
>>> usim = UnifiedSimilarity(rules=rules, taxonomy=taxonomy)
>>> round(usim.similarity("coffee shop latte Helsingki", "espresso cafe Helsinki"), 3)
0.822

(The paper's Figure 1 reports 0.892 for this pair because it scores the
"Helsingki"/"Helsinki" segment with a normalised edit similarity of 0.875;
with the 2-gram Jaccard of Equation 1 that segment scores 2/3, giving the
0.822 above.  Example 2 of the paper computes the same 2/3.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .aggregation import SimilarityBreakdown
from .approximation import ApproximationResult, approximate_usim, check_approximation_t
from .exact import DEFAULT_PARTITION_LIMIT, exact_usim
from .grams import DEFAULT_Q
from .measures import MeasureConfig
from .tokenizer import Tokenizer, default_tokenizer
from ..synonyms.rules import SynonymRuleSet
from ..taxonomy.tree import Taxonomy

__all__ = ["UnifiedSimilarity"]


class UnifiedSimilarity:
    """Unified string similarity combining Jaccard, synonym, and taxonomy.

    Parameters
    ----------
    rules:
        Synonym rule set (optional).
    taxonomy:
        Taxonomy tree (optional).
    measures:
        Paper-style code string selecting the enabled measures, e.g. ``"TJS"``
        (default), ``"J"``, ``"TJ"``.
    q:
        Gram length for the Jaccard measure.
    method:
        ``"approximate"`` (default) runs Algorithm 1; ``"exact"`` enumerates
        all partition pairs (exponential — small strings only).
    t:
        Algorithm 1's accuracy/time trade-off parameter: a finite number
        greater than 1, checked at construction for both methods.
    tokenizer:
        Tokenizer used for raw string inputs.
    """

    def __init__(
        self,
        *,
        rules: Optional[SynonymRuleSet] = None,
        taxonomy: Optional[Taxonomy] = None,
        measures: str = "TJS",
        q: int = DEFAULT_Q,
        method: str = "approximate",
        t: float = 4.0,
        tokenizer: Optional[Tokenizer] = None,
    ) -> None:
        if method not in {"approximate", "exact"}:
            raise ValueError("method must be 'approximate' or 'exact'")
        self.config = MeasureConfig.from_codes(measures, rules=rules, taxonomy=taxonomy, q=q)
        self.method = method
        self.t = check_approximation_t(t)
        self.tokenizer = tokenizer or default_tokenizer

    # ------------------------------------------------------------------ #
    # main API
    # ------------------------------------------------------------------ #
    def similarity(self, left: str, right: str) -> float:
        """Unified similarity between two raw strings (in [0, 1])."""
        return self.explain(left, right).value

    def explain(self, left: str, right: str) -> SimilarityBreakdown:
        """Similarity plus the partitions and matched segment pairs behind it."""
        return self.explain_tokens(self.tokenizer.tokenize(left), self.tokenizer.tokenize(right))

    def explain_tokens(
        self, left_tokens: Sequence[str], right_tokens: Sequence[str]
    ) -> SimilarityBreakdown:
        """Token-level variant of :meth:`explain`."""
        if self.method == "exact":
            return exact_usim(left_tokens, right_tokens, self.config)
        return approximate_usim(left_tokens, right_tokens, self.config, t=self.t).breakdown

    def approximate(self, left: str, right: str, **kwargs) -> ApproximationResult:
        """Run Algorithm 1 explicitly, returning the full approximation result.

        Keyword arguments are forwarded to
        :func:`repro.core.approximation.approximate_usim` (``t``, ``seed``,
        ``early_ceiling``).
        """
        kwargs.setdefault("t", self.t)
        return approximate_usim(
            self.tokenizer.tokenize(left), self.tokenizer.tokenize(right), self.config, **kwargs
        )

    def exact(self, left: str, right: str, *, partition_limit: int = DEFAULT_PARTITION_LIMIT) -> SimilarityBreakdown:
        """Exact USIM (exponential time) regardless of the configured method."""
        return exact_usim(
            self.tokenizer.tokenize(left),
            self.tokenizer.tokenize(right),
            self.config,
            partition_limit=partition_limit,
        )

    def is_similar(self, left: str, right: str, threshold: float) -> bool:
        """Predicate form used by the join verification step."""
        return self.similarity(left, right) >= threshold

    # ------------------------------------------------------------------ #
    # configuration helpers
    # ------------------------------------------------------------------ #
    def with_measures(self, codes: str) -> "UnifiedSimilarity":
        """Return a copy restricted to the given measure codes (e.g. ``"TJ"``)."""
        clone = UnifiedSimilarity(
            rules=self.config.rules,
            taxonomy=self.config.taxonomy,
            measures=codes,
            q=self.config.q,
            method=self.method,
            t=self.t,
            tokenizer=self.tokenizer,
        )
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnifiedSimilarity(measures={self.config.codes!r}, method={self.method!r}, "
            f"q={self.config.q}, t={self.t})"
        )
