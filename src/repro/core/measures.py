"""Individual similarity measures and the per-segment maximum ``msim``.

The paper works with three families of measures (Section 2.1):

* gram-based Jaccard similarity (``sim_j``, Equation 1),
* synonym-rule similarity (``sim_s``, Equation 2),
* taxonomy LCA-depth similarity (``sim_t``, Equation 3),

and, for a pair of segments, the *maximum* over the enabled measures
(``msim``, Equation 4).  :class:`MeasureConfig` bundles the knowledge sources
and the subset of enabled measures, which is how the evaluation section's
T / J / S / TJ / JS / TS / TJS variants are expressed.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from . import grams
from ..synonyms.rules import SynonymRuleSet
from ..taxonomy.tree import Taxonomy

__all__ = ["Measure", "MeasureConfig"]

#: Maximum partner configs memoised per config by ``MeasureConfig.__eq__``.
_EQ_MEMO_LIMIT = 64


class Measure(str, enum.Enum):
    """The three similarity measure families of the paper."""

    JACCARD = "jaccard"
    SYNONYM = "synonym"
    TAXONOMY = "taxonomy"

    @property
    def short_code(self) -> str:
        """One-letter code used in the paper's tables (J, S, T)."""
        return {"jaccard": "J", "synonym": "S", "taxonomy": "T"}[self.value]

    @classmethod
    def from_code(cls, code: str) -> "Measure":
        """Parse a one-letter code (J, S, or T) into a measure."""
        mapping = {"J": cls.JACCARD, "S": cls.SYNONYM, "T": cls.TAXONOMY}
        upper = code.strip().upper()
        if upper not in mapping:
            raise ValueError(f"unknown measure code {code!r}; expected one of J, S, T")
        return mapping[upper]


def _parse_measure_codes(codes: str) -> FrozenSet[Measure]:
    return frozenset(Measure.from_code(code) for code in codes)


@dataclass(frozen=True, eq=False)
class MeasureConfig:
    """Knowledge sources plus the subset of enabled similarity measures.

    Parameters
    ----------
    rules:
        The synonym rule set (may be None when the synonym measure is
        disabled or no rules exist).
    taxonomy:
        The taxonomy tree (may be None when the taxonomy measure is
        disabled or no taxonomy exists).
    q:
        Gram length for the Jaccard measure.
    enabled:
        The measures participating in ``msim``.  Defaults to all three,
        i.e. the paper's TJS configuration.

    Equality is by *content* (q, enabled set, and the rule-set/taxonomy
    contents), not identity: two configs built from equal knowledge sources
    are interchangeable, which is what lets prepared collections and cached
    graph sides survive a pickle round-trip into worker processes.  The
    per-instance equality memo is excluded from equality and from pickles
    (each process rebuilds its own).
    """

    rules: Optional[SynonymRuleSet] = None
    taxonomy: Optional[Taxonomy] = None
    q: int = grams.DEFAULT_Q
    enabled: FrozenSet[Measure] = frozenset(
        {Measure.JACCARD, Measure.SYNONYM, Measure.TAXONOMY}
    )

    def __post_init__(self) -> None:
        # The gram length slices text, so a float (fractional, NaN or
        # integral) and a bool are refused; an integral q is stored as a
        # plain int, so equal configs also fingerprint equally.
        q = self.q
        if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 1:
            raise ValueError(f"q must be a positive integer; got {q!r}")
        object.__setattr__(self, "q", int(q))
        if not self.enabled:
            raise ValueError("at least one measure must be enabled")
        # Memo for __eq__ against other config objects: the graph assembly
        # path checks config agreement per candidate pair, and a content
        # comparison walks the full rule set / taxonomy — pay it once per
        # distinct partner object, then answer by identity.  The dataclass
        # is frozen, so the memo is attached via object.__setattr__.
        object.__setattr__(self, "_eq_memo", {})

    # ------------------------------------------------------------------ #
    # equality and pickling
    # ------------------------------------------------------------------ #
    def _knowledge_versions(self) -> Tuple[Optional[int], Optional[int]]:
        """Mutation counters of the knowledge sources (None when absent)."""
        return (
            getattr(self.rules, "_version", None),
            getattr(self.taxonomy, "_version", None),
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, MeasureConfig):
            return NotImplemented
        memo: dict = self._eq_memo  # type: ignore[attr-defined]
        versions = (self._knowledge_versions(), other._knowledge_versions())
        # Identity-guarded memo: the entry pins `other` strongly and is
        # re-validated with `is` below, so the id key can never alias.
        entry = memo.get(id(other))  # repro: ignore[id-keyed-container]
        if entry is not None and entry[0] is other and entry[2] == versions:
            return entry[1]
        result = (
            self.q == other.q
            and self.enabled == other.enabled
            and self.rules == other.rules
            and self.taxonomy == other.taxonomy
        )
        # The strong reference keeps the partner's id from being recycled by
        # a different config, the version stamps invalidate the verdict when
        # either side's knowledge sources are mutated afterwards, and the
        # size cap keeps a long-lived config compared against an endless
        # stream of per-request partners from pinning them all.
        if len(memo) >= _EQ_MEMO_LIMIT:
            memo.clear()
        memo[id(other)] = (other, result, versions)  # repro: ignore[id-keyed-container]
        return result

    def __hash__(self) -> int:
        return hash((self.q, self.enabled, self.rules, self.taxonomy))

    def content_key(self) -> Tuple:
        """A canonical, process-independent identity of this configuration.

        Mirrors :meth:`__eq__` (q, enabled measures, rule multiset,
        taxonomy shape) but uses deterministically ordered plain values, so
        the on-disk prepared-collection store can digest its ``repr`` into
        a fingerprint that is stable across processes and Python runs —
        ``hash()`` is not, under string hash randomization.
        """
        return (
            self.q,
            tuple(sorted(measure.value for measure in self.enabled)),
            None if self.rules is None else self.rules.content_key(),
            None if self.taxonomy is None else self.taxonomy.content_key(),
        )

    def __getstate__(self) -> dict:
        # The equality memo is a per-process cache: dropping it keeps
        # pickles small and every process rebuilds its own.
        state = dict(self.__dict__)
        state.pop("_eq_memo", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_eq_memo", {})

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_codes(
        cls,
        codes: str,
        *,
        rules: Optional[SynonymRuleSet] = None,
        taxonomy: Optional[Taxonomy] = None,
        q: int = grams.DEFAULT_Q,
    ) -> "MeasureConfig":
        """Build a config from a paper-style code string such as ``"TJS"``."""
        return cls(rules=rules, taxonomy=taxonomy, q=q, enabled=_parse_measure_codes(codes))

    def with_measures(self, codes: str) -> "MeasureConfig":
        """Return a copy of this config with a different enabled set."""
        return MeasureConfig(
            rules=self.rules,
            taxonomy=self.taxonomy,
            q=self.q,
            enabled=_parse_measure_codes(codes),
        )

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #
    @property
    def codes(self) -> str:
        """The enabled measures as a sorted code string (e.g. ``"JST"``)."""
        return "".join(sorted(measure.short_code for measure in self.enabled))

    def uses(self, measure: Measure) -> bool:
        """True when ``measure`` participates in ``msim``."""
        return measure in self.enabled

    @property
    def max_rule_tokens(self) -> int:
        """Maximal token count on either side of any applicable rule or label.

        This is the paper's ``k`` parameter: the conflict graph is
        (k+1)-claw-free.
        """
        best = 1
        if self.uses(Measure.SYNONYM) and self.rules is not None:
            best = max(best, self.rules.max_side_tokens)
        if self.uses(Measure.TAXONOMY) and self.taxonomy is not None:
            best = max(best, self.taxonomy.max_label_tokens)
        return best

    # ------------------------------------------------------------------ #
    # individual measures on token sequences
    # ------------------------------------------------------------------ #
    def jaccard(self, left: Sequence[str], right: Sequence[str]) -> float:
        """Gram Jaccard similarity between the joined texts of two segments."""
        return grams.jaccard(" ".join(left), " ".join(right), self.q)

    def synonym(self, left: Sequence[str], right: Sequence[str]) -> float:
        """Synonym similarity (Eq. 2) or 0.0 when no rule set is configured."""
        if self.rules is None:
            return 0.0
        return self.rules.similarity(left, right)

    def taxonomy_similarity(self, left: Sequence[str], right: Sequence[str]) -> float:
        """Taxonomy similarity (Eq. 3) or 0.0 when no taxonomy is configured."""
        if self.taxonomy is None:
            return 0.0
        return self.taxonomy.similarity(left, right)

    # ------------------------------------------------------------------ #
    # msim
    # ------------------------------------------------------------------ #
    def msim(self, left: Sequence[str], right: Sequence[str]) -> float:
        """The maximum similarity over enabled measures (Equation 4).

        Computed afresh on every call, so it always reflects the knowledge
        sources as they are now.  It is 0.0 when no enabled measure yields a
        positive similarity.  Verification never calls it: conflict graphs
        take their weights from the stage-1 bound matrix (see
        :mod:`repro.core.graph`), and the exact solver computes each segment
        pair once per call.
        """
        best = 0.0
        if self.uses(Measure.SYNONYM):
            value = self.synonym(left, right)
            if value > best:
                best = value
        if self.uses(Measure.TAXONOMY):
            value = self.taxonomy_similarity(left, right)
            if value > best:
                best = value
        if self.uses(Measure.JACCARD):
            value = self.jaccard(left, right)
            if value > best:
                best = value
        return best

