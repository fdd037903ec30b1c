"""Filter-kernel equivalence: numpy ≡ python ≡ independent references.

The kernel layer of :mod:`repro.join.kernels` promises *bit-identity*.  In
candidate mode every kernel must emit the same candidate pairs, in the same
order and orientation, with the same ``processed`` count, as the dict-based
probe loop the kernels replaced — kept here as a verbatim test-local copy
over a ``defaultdict(list)`` postings map.  In counts mode every kernel
must return the same ``processed`` count and saturated overlap histogram
as the exact overlaps of :func:`~repro.join.aufilter.dual_index_filter_candidates`.
These suites sweep the full semantic surface — all measure configurations,
self-join and R×S orientations, τ saturation, unknown probe keys, empty
posting spans — and pin the serial/process boundary: shards running a
*different* kernel than the parent must still reproduce the serial answer
exactly.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from array import array
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.measures import MeasureConfig
from repro.core.vocab import Vocabulary
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin, UnifiedJoin, dual_index_filter_candidates
from repro.join.flat import UNKNOWN_KEY, FlatJoinState, FlatPostings, FlatSignatures
from repro.join.kernels import (
    KERNELS,
    numpy_available,
    overlap_histogram,
    probe_span,
    resolve_kernel,
)

MEASURE_CODES = ("J", "S", "T", "TJS")
THETA = 0.5
TAU = 2

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not importable in this environment"
)
AVAILABLE_KERNELS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(TINY_PROFILE, seed=53)


def _config(dataset, codes: str) -> MeasureConfig:
    return MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )


def _signed_sides(dataset, codes, *, self_join, theta=THETA, tau=TAU):
    """Signed (index, probe) lists exactly as the engine would produce."""
    engine = PebbleJoin(_config(dataset, codes), theta, tau=tau)
    left = dataset.records.head(40)
    if self_join:
        order = engine.build_order(left)
        signed = engine.sign_collection(left, order)
        return signed, signed
    # Overlapping ranges: shared keys on both sides plus probe-only keys.
    right = dataset.records.subset(range(20, 60))
    order = engine.build_order(left, right)
    return (
        engine.sign_collection(left, order),
        engine.sign_collection(right, order),
    )


# --------------------------------------------------------------------- #
# The dict probe loop the flat kernels replaced, copied verbatim as the
# candidate-mode oracle (emission order, orientation, processed counts).
# --------------------------------------------------------------------- #
def probe_single(
    postings_map: Dict,
    signed_probe,
    requirement: int,
    *,
    probe_id: Optional[int] = None,
    probe_is_left: bool = True,
    exclude_self_pairs: bool = False,
    postings_ascending: bool = False,
) -> Tuple[List[int], int, Dict[int, int]]:
    partners: List[int] = []
    processed = 0
    counts: Dict[int, int] = {}
    counts_get = counts.get
    get_postings = postings_map.get
    for key in signed_probe.signature_key_sequence:
        postings = get_postings(key)
        if postings is None:
            continue
        for other in postings:
            if exclude_self_pairs:
                if probe_is_left:
                    if other <= probe_id:
                        continue
                elif other >= probe_id:
                    if postings_ascending:
                        break  # nothing left to pair with in this list
                    continue
            processed += 1
            count = counts_get(other, 0)
            if count >= requirement:
                continue  # short-circuit: already a candidate
            count += 1
            counts[other] = count
            if count == requirement:
                partners.append(other)
    return partners, processed, counts


def _probe_candidates(
    postings_map: Dict,
    probe_records: Sequence,
    requirement: int,
    *,
    probe_is_left: bool,
    exclude_self_pairs: bool,
    collect_counts: bool = False,
    postings_ascending: bool = False,
) -> Tuple[List[Tuple[int, int]], int, Optional[Dict[Tuple[int, int], int]]]:
    candidates: List[Tuple[int, int]] = []
    processed = 0
    overlap: Optional[Dict[Tuple[int, int], int]] = {} if collect_counts else None

    for signed in probe_records:
        probe_id = signed.record.record_id
        partners, touched, counts = probe_single(
            postings_map,
            signed,
            requirement,
            probe_id=probe_id,
            probe_is_left=probe_is_left,
            exclude_self_pairs=exclude_self_pairs,
            postings_ascending=postings_ascending,
        )
        processed += touched
        if probe_is_left:
            candidates.extend((probe_id, other) for other in partners)
        else:
            candidates.extend((other, probe_id) for other in partners)
        if overlap is not None:
            if probe_is_left:
                for other, count in counts.items():
                    overlap[(probe_id, other)] = count
            else:
                for other, count in counts.items():
                    overlap[(other, probe_id)] = count
    return candidates, processed, overlap


def _dict_reference(
    index_signed,
    probe_signed,
    requirement,
    *,
    probe_is_left,
    exclude_self_pairs,
    postings_ascending,
):
    """The dict walk: one posting per key occurrence, in index order."""
    postings_map = defaultdict(list)
    for signed in index_signed:
        for key in signed.signature_key_sequence:
            postings_map[key].append(signed.record.record_id)
    candidates, processed, _ = _probe_candidates(
        postings_map,
        probe_signed,
        requirement,
        probe_is_left=probe_is_left,
        exclude_self_pairs=exclude_self_pairs,
        postings_ascending=postings_ascending,
    )
    return candidates, processed


def _dual_index_histogram(left_signed, right_signed, cap, *, exclude_self_pairs):
    """Counts-mode oracle: the exact dual-index overlaps, saturated at cap."""
    outcome = dual_index_filter_candidates(
        left_signed, right_signed, requirement=1, exclude_self_pairs=exclude_self_pairs
    )
    histogram = [0] * (cap + 1)
    for count in outcome.overlap_counts.values():
        histogram[min(count, cap)] += 1
    return outcome.processed_pairs, histogram


def _histogram_answers(state, cap, *, probe_is_left, exclude_self_pairs):
    """Every available kernel's ``(processed, histogram)`` answer."""
    return {
        kernel: overlap_histogram(
            state.postings,
            state.probe,
            0,
            state.probe_count,
            cap,
            probe_is_left=probe_is_left,
            exclude_self_pairs=exclude_self_pairs,
            postings_ascending=state.postings_ascending,
            counts_size=state.counts_size,
            kernel=kernel,
        )
        for kernel in AVAILABLE_KERNELS
    }


def _kernel_answers(
    index_signed,
    probe_signed,
    requirement,
    *,
    probe_is_left,
    exclude_self_pairs,
    postings_ascending,
):
    """Every available kernel's ``(candidates, processed)`` answer."""
    state = FlatJoinState.from_signed_sides(
        index_signed, probe_signed, postings_ascending=postings_ascending
    )
    return {
        kernel: state.probe_span(
            0,
            state.probe_count,
            requirement,
            probe_is_left=probe_is_left,
            exclude_self_pairs=exclude_self_pairs,
            kernel=kernel,
        )
        for kernel in AVAILABLE_KERNELS
    }


class TestKernelEquivalence:
    """Randomized sweeps: every kernel ≡ the legacy dict reference."""

    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_self_join_matches_dict_reference(self, dataset, codes):
        index_signed, probe_signed = _signed_sides(dataset, codes, self_join=True)
        rng = random.Random(hash(codes) & 0xFFFF)
        for _ in range(4):
            requirement = rng.choice((1, 2, 3))
            for ascending in (True, False):
                expected = _dict_reference(
                    index_signed,
                    probe_signed,
                    requirement,
                    probe_is_left=False,
                    exclude_self_pairs=True,
                    postings_ascending=ascending,
                )
                answers = _kernel_answers(
                    index_signed,
                    probe_signed,
                    requirement,
                    probe_is_left=False,
                    exclude_self_pairs=True,
                    postings_ascending=ascending,
                )
                for kernel, got in answers.items():
                    assert got == expected, (codes, kernel, requirement, ascending)

    @pytest.mark.parametrize("codes", MEASURE_CODES)
    @pytest.mark.parametrize("probe_is_left", (True, False))
    def test_two_collection_matches_dict_reference(
        self, dataset, codes, probe_is_left
    ):
        index_signed, probe_signed = _signed_sides(dataset, codes, self_join=False)
        for requirement in (1, 2, 4):
            expected = _dict_reference(
                index_signed,
                probe_signed,
                requirement,
                probe_is_left=probe_is_left,
                exclude_self_pairs=False,
                postings_ascending=False,
            )
            answers = _kernel_answers(
                index_signed,
                probe_signed,
                requirement,
                probe_is_left=probe_is_left,
                exclude_self_pairs=False,
                postings_ascending=False,
            )
            for kernel, got in answers.items():
                assert got == expected, (codes, kernel, requirement)

    def test_unknown_probe_keys_act_as_dict_misses(self, dataset):
        """Probe-only keys encode as UNKNOWN_KEY and contribute nothing."""
        index_signed, probe_signed = _signed_sides(dataset, "TJS", self_join=False)
        state = FlatJoinState.from_signed_sides(
            index_signed, probe_signed, postings_ascending=False
        )
        # The disjoint tail of the probe range guarantees unseen keys.
        assert UNKNOWN_KEY in set(state.probe.key_ids)
        expected = _dict_reference(
            index_signed,
            probe_signed,
            2,
            probe_is_left=True,
            exclude_self_pairs=False,
            postings_ascending=False,
        )
        for kernel, got in _kernel_answers(
            index_signed,
            probe_signed,
            2,
            probe_is_left=True,
            exclude_self_pairs=False,
            postings_ascending=False,
        ).items():
            assert got == expected, kernel


class TestOverlapHistogramEquivalence:
    """Counts mode: every kernel ≡ the saturated dual-index overlaps."""

    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_self_join_matches_dual_index(self, dataset, codes):
        signed, _ = _signed_sides(dataset, codes, self_join=True)
        for ascending in (True, False):
            state = FlatJoinState.from_signed_sides(
                signed, signed, postings_ascending=ascending
            )
            for cap in (1, 2, 3, 4):
                expected = _dual_index_histogram(
                    signed, signed, cap, exclude_self_pairs=True
                )
                assert sum(expected[1]) > 0, codes  # some pairs overlap
                answers = _histogram_answers(
                    state, cap, probe_is_left=False, exclude_self_pairs=True
                )
                for kernel, got in answers.items():
                    assert got == expected, (codes, kernel, cap, ascending)

    @pytest.mark.parametrize("codes", MEASURE_CODES)
    @pytest.mark.parametrize("probe_is_left", (True, False))
    @pytest.mark.parametrize("exclude_self_pairs", (False, True))
    def test_two_collection_matches_dual_index(
        self, dataset, codes, probe_is_left, exclude_self_pairs
    ):
        index_signed, probe_signed = _signed_sides(dataset, codes, self_join=False)
        state = FlatJoinState.from_signed_sides(
            index_signed, probe_signed, postings_ascending=True
        )
        # The disjoint tail of the probe range guarantees unseen keys.
        assert UNKNOWN_KEY in set(state.probe.key_ids)
        left, right = (
            (probe_signed, index_signed) if probe_is_left else (index_signed, probe_signed)
        )
        for cap in (1, 3):
            expected = _dual_index_histogram(
                left, right, cap, exclude_self_pairs=exclude_self_pairs
            )
            answers = _histogram_answers(
                state,
                cap,
                probe_is_left=probe_is_left,
                exclude_self_pairs=exclude_self_pairs,
            )
            for kernel, got in answers.items():
                assert got == expected, (codes, kernel, cap)

    @pytest.mark.parametrize("codes", MEASURE_CODES)
    def test_row_gathered_samples_match_dual_index(self, dataset, codes):
        """The estimator's shape: random row gathers of encodings that share
        one vocabulary, postings over the sample only — so most key ids have
        empty spans, and a probe sample's keys are often postless."""
        left_signed, right_signed = _signed_sides(dataset, codes, self_join=False)
        vocab = Vocabulary()
        left_flat = FlatSignatures.from_signed(left_signed, vocab)
        right_flat = FlatSignatures.from_signed(right_signed, vocab)
        counts_size = max(right_flat.record_ids) + 1
        rng = random.Random(sum(map(ord, codes)))
        for _ in range(6):
            probability = rng.choice((0.2, 0.5, 1.0))
            left_rows = [row for row in range(len(left_flat)) if rng.random() < probability]
            right_rows = [row for row in range(len(right_flat)) if rng.random() < probability]
            cap = rng.choice((1, 2, 3))
            # Two-collection samples, and a self-join sample of the right side.
            cases = (
                (left_flat.take(left_rows), right_flat.take(right_rows), False,
                 [left_signed[row] for row in left_rows],
                 [right_signed[row] for row in right_rows]),
                (right_flat.take(right_rows), right_flat.take(right_rows), True,
                 [right_signed[row] for row in right_rows],
                 [right_signed[row] for row in right_rows]),
            )
            for probe, index, self_join, left_sample, right_sample in cases:
                postings = FlatPostings.from_flat(index, len(vocab))
                expected = _dual_index_histogram(
                    left_sample, right_sample, cap, exclude_self_pairs=self_join
                )
                for kernel in AVAILABLE_KERNELS:
                    got = overlap_histogram(
                        postings,
                        probe,
                        0,
                        len(probe),
                        cap,
                        probe_is_left=not self_join,
                        exclude_self_pairs=self_join,
                        postings_ascending=True,
                        counts_size=counts_size,
                        kernel=kernel,
                    )
                    assert got == expected, (codes, kernel, cap, self_join)


class _SyntheticProbe:
    """Duck-typed probe side (kernels read only these four arrays)."""

    def __init__(self, record_ids, key_offsets, key_ids):
        self.record_ids = array("i", record_ids)
        self.key_offsets = array("i", key_offsets)
        self.key_ids = array("i", key_ids)

    def __len__(self):
        return len(self.record_ids)


class TestSyntheticEdgeCases:
    """Hand-built spans pinning saturation, empty postings, and emission."""

    def _postings(self):
        # key 0 -> [5, 5, 5, 7]; key 1 -> [] (empty span); key 2 -> [7, 9]
        return FlatPostings(array("i", [0, 4, 4, 6]), array("i", [5, 5, 5, 7, 7, 9]))

    def _run(self, kernel, requirement, key_ids, **flags):
        probe = _SyntheticProbe([3], [0, len(key_ids)], key_ids)
        return probe_span(
            self._postings(),
            probe,
            0,
            1,
            requirement,
            counts_size=10,
            kernel=kernel,
            **flags,
        )

    def _histogram(self, kernel, cap, key_ids, **flags):
        probe = _SyntheticProbe([3], [0, len(key_ids)], key_ids)
        return overlap_histogram(
            self._postings(), probe, 0, 1, cap, counts_size=10, kernel=kernel, **flags
        )

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_saturation_never_affects_processed(self, kernel):
        # Partner 5 is touched three times but emitted once at count == 2;
        # processed counts every touch, including post-saturation ones.
        flags = dict(probe_is_left=True, exclude_self_pairs=False, postings_ascending=True)
        candidates, processed = self._run(kernel, 2, [0, 2], **flags)
        assert candidates == [(3, 5), (3, 7)]
        assert processed == 6
        # Counts: partner 5 overlaps 3 times, 7 twice, 9 once.
        assert self._histogram(kernel, 2, [0, 2], **flags) == (6, [0, 1, 2])
        assert self._histogram(kernel, 3, [0, 2], **flags) == (6, [0, 1, 1, 1])

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_empty_spans_and_unknown_keys_are_skipped(self, kernel):
        flags = dict(probe_is_left=True, exclude_self_pairs=False, postings_ascending=True)
        candidates, processed = self._run(kernel, 1, [1, UNKNOWN_KEY, 1], **flags)
        assert candidates == []
        assert processed == 0
        assert self._histogram(kernel, 2, [1, UNKNOWN_KEY, 1], **flags) == (0, [0, 0, 0])

    def test_histogram_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="cap"):
            self._histogram(
                "auto", 0, [0], probe_is_left=True, exclude_self_pairs=False,
                postings_ascending=True,
            )

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_ascending_break_equals_exclusion_mask(self, kernel):
        # Probe 3 plays the right role: partners >= 3 are excluded.  With
        # ascending postings every span truncates before any exclusion is
        # touched, so processed counts nothing here.
        candidates, processed = self._run(
            kernel,
            1,
            [0, 2],
            probe_is_left=False,
            exclude_self_pairs=True,
            postings_ascending=True,
        )
        assert candidates == []
        assert processed == 0
        assert self._histogram(
            kernel, 2, [0, 2], probe_is_left=False, exclude_self_pairs=True,
            postings_ascending=True,
        ) == (0, [0, 0, 0])

    def test_emission_order_is_first_reach_order(self):
        # Stream order for keys [2, 0, 0] is 7 9 | 5 5 5 7 | 5 5 5 7:
        # partner 5 reaches the requirement on its second touch, before
        # partner 7's second touch arrives — so 5 is emitted first, then 7,
        # by every kernel.
        for kernel in AVAILABLE_KERNELS:
            candidates, processed = self._run(
                kernel,
                2,
                [2, 0, 0],
                probe_is_left=True,
                exclude_self_pairs=False,
                postings_ascending=True,
            )
            assert candidates == [(3, 5), (3, 7)]
            assert processed == 10


class TestKernelSelection:
    def test_kernel_names_are_validated_eagerly(self, dataset):
        assert set(KERNELS) == {"auto", "numpy", "python"}
        assert resolve_kernel("python") == "python"
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel("vectorized")
        config = _config(dataset, "J")
        with pytest.raises(ValueError, match="kernel"):
            PebbleJoin(config, THETA, tau=TAU, kernel="bogus")
        with pytest.raises(ValueError, match="kernel"):
            UnifiedJoin(
                rules=dataset.rules,
                taxonomy=dataset.taxonomy,
                theta=THETA,
                tau=TAU,
                kernel="bogus",
            )

    @needs_numpy
    def test_auto_resolves_to_numpy_when_available(self):
        assert resolve_kernel("auto") == "numpy"
        assert resolve_kernel("numpy") == "numpy"

    def test_no_numpy_env_masks_the_kernel(self):
        """REPRO_NO_NUMPY=1 must force the pure-python fallback."""
        code = (
            "from repro.join import kernels\n"
            "assert kernels._np is None\n"
            "assert not kernels.numpy_available()\n"
            "assert kernels.resolve_kernel('auto') == 'python'\n"
            "try:\n"
            "    kernels.resolve_kernel('numpy')\n"
            "except ValueError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('explicit numpy must fail without numpy')\n"
        )
        env = dict(os.environ, REPRO_NO_NUMPY="1")
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src_dir), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestCrossBoundaryIdentity:
    def test_serial_and_process_mixed_kernels_agree(self, dataset):
        """A numpy parent and python workers (and vice versa) agree exactly."""
        kwargs = dict(
            rules=dataset.rules,
            taxonomy=dataset.taxonomy,
            theta=THETA,
            tau=TAU,
        )
        collection = dataset.records.head(30)
        reference = UnifiedJoin(kernel="python", **kwargs).join(collection)
        triples = [
            (pair.left_id, pair.right_id, pair.similarity)
            for pair in reference.pairs
        ]
        for kernel in ("auto", "python") + (("numpy",) if numpy_available() else ()):
            pooled = UnifiedJoin(kernel=kernel, **kwargs).join(
                collection, executor="process", workers=2
            )
            got = [
                (pair.left_id, pair.right_id, pair.similarity)
                for pair in pooled.pairs
            ]
            assert got == triples, kernel
