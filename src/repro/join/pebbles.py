"""Pebbles: the unified signature unit of the join framework (Section 3.1).

A pebble is an abstract signature element generated from a well-defined
segment under one of the three similarity measures (Table 2 of the paper):

* Jaccard — every q-gram of the segment, weight ``1/|G(P, q)|``;
* Synonym — the lhs of every rule applicable to the segment, weight ``C(R)``;
* Taxonomy — the matching taxonomy node and all its ancestors, weight
  ``1/|n|`` where ``|n|`` is the node depth.

Pebble *keys* are namespaced by measure so that, e.g., the 2-gram ``"ca"``
and a taxonomy node labelled ``"ca"`` never collide in the inverted index.

Pebble generation is θ/τ-independent and is the largest part of signing a
record; the signature-selection walk comes second (see
:func:`~repro.join.signatures.sign_record`).
:class:`~repro.join.prepared.PreparedCollection` caches its output per
record so orders, signings, and repeated joins all reuse one generation
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.grams import qgrams
from ..core.measures import Measure, MeasureConfig
from ..core.segments import Segment, enumerate_segments

__all__ = ["Pebble", "PebbleKey", "generate_pebbles", "segments_for_pebbles"]

#: A pebble key is ``(measure_code, text)`` — hashable and order-stable.
PebbleKey = Tuple[str, str]


@dataclass(frozen=True)
class Pebble:
    """One pebble generated from one segment by one measure.

    Attributes
    ----------
    key:
        The namespaced identity used for index lookups and overlap counting.
    weight:
        The pebble's contribution to its segment's similarity upper bound.
    segment_index:
        Index of the generating segment in the record's segment list.
    measure:
        The measure family that generated the pebble.
    """

    key: PebbleKey
    weight: float
    segment_index: int
    measure: Measure

    @property
    def text(self) -> str:
        """The textual part of the key (gram, rule lhs, or node label)."""
        return self.key[1]


def segments_for_pebbles(tokens: Sequence[str], config: MeasureConfig) -> List[Segment]:
    """Enumerate the well-defined segments used for pebble generation.

    All well-defined segments participate (including overlapping ones); the
    accumulated-similarity bound of Definition 4 sums over all of them.
    """
    return enumerate_segments(
        tokens,
        rules=config.rules if config.uses(Measure.SYNONYM) else None,
        taxonomy=config.taxonomy if config.uses(Measure.TAXONOMY) else None,
    )


def _jaccard_pebbles(segment: Segment, segment_index: int, config: MeasureConfig) -> List[Pebble]:
    grams = qgrams(segment.text, config.q)
    if not grams:
        return []
    # Every gram occurrence is a pebble (the paper's Example 6 counts the two
    # "es" occurrences of "espresso" separately), each weighing 1/|G(P, q)|.
    weight = 1.0 / len(grams)
    return [
        Pebble(key=("J", gram), weight=weight, segment_index=segment_index, measure=Measure.JACCARD)
        for gram in sorted(grams)
    ]


def _synonym_pebbles(segment: Segment, segment_index: int, config: MeasureConfig) -> List[Pebble]:
    if config.rules is None:
        return []
    pebbles: List[Pebble] = []
    for lhs_tokens, closeness in config.rules.lhs_pebbles_for(segment.tokens):
        pebbles.append(
            Pebble(
                key=("S", " ".join(lhs_tokens)),
                weight=closeness,
                segment_index=segment_index,
                measure=Measure.SYNONYM,
            )
        )
    return pebbles


def _taxonomy_pebbles(segment: Segment, segment_index: int, config: MeasureConfig) -> List[Pebble]:
    if config.taxonomy is None:
        return []
    pebbles: List[Pebble] = []
    for label_tokens, weight in config.taxonomy.ancestor_pebbles_for(segment.tokens):
        pebbles.append(
            Pebble(
                key=("T", " ".join(label_tokens)),
                weight=weight,
                segment_index=segment_index,
                measure=Measure.TAXONOMY,
            )
        )
    return pebbles


def generate_pebbles(
    tokens: Sequence[str],
    config: MeasureConfig,
    *,
    segments: Optional[Sequence[Segment]] = None,
) -> Tuple[List[Segment], List[Pebble]]:
    """Generate all pebbles of a token sequence under ``config``.

    Returns the segment list (so that callers can relate pebbles back to
    segments via ``segment_index``) and the unsorted pebble list.  Sorting by
    the corpus-wide global order happens in
    :mod:`repro.join.global_order`.
    """
    segment_list = list(segments) if segments is not None else segments_for_pebbles(tokens, config)
    pebbles: List[Pebble] = []
    for segment_index, segment in enumerate(segment_list):
        if config.uses(Measure.JACCARD):
            pebbles.extend(_jaccard_pebbles(segment, segment_index, config))
        if config.uses(Measure.SYNONYM):
            pebbles.extend(_synonym_pebbles(segment, segment_index, config))
        if config.uses(Measure.TAXONOMY):
            pebbles.extend(_taxonomy_pebbles(segment, segment_index, config))
    return segment_list, pebbles
