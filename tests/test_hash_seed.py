"""Answers and counters do not depend on the interpreter's hash seed.

The contract is that pairs, similarities and every counter are identical
across hash seeds.  String hashing is salted per interpreter, so a set or
dict iterated in hash order anywhere on a path would show up here: one
fixed scenario runs in two fresh interpreters, with ``PYTHONHASHSEED=0``
and ``1``, and the two digests must be equal.  The scenario covers the
J/S/T/TJS self-joins on both executors, one ``tau="auto"`` join with its
recommended τ, and every read of a TJS search index.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCENARIO = r'''
import hashlib, json
from repro.core.measures import MeasureConfig
from repro.datasets import TINY_PROFILE, generate_dataset
from repro.join import PebbleJoin, UnifiedJoin
from repro.search import SimilarityIndex
from repro.telemetry import Telemetry, set_default

set_default(Telemetry(enabled=False))
dataset = generate_dataset(TINY_PROFILE, count=60, seed=31)
records = dataset.records.head(40)
rows = []


def counters(stats):
    return [getattr(stats, name) for name in stats._COUNTERS]


def joined(result):
    statistics = result.statistics
    return [
        [(p.left_id, p.right_id, p.similarity) for p in result.pairs],
        statistics.candidate_count,
        statistics.processed_pairs,
        counters(statistics.verification),
    ]


def read(result):
    return [
        [(m.record_id, m.similarity) for m in result.matches],
        result.candidate_count,
        result.processed_pairs,
        counters(result.verification),
        result.bound_skipped,
    ]


for codes in ("J", "S", "T", "TJS"):
    config = MeasureConfig.from_codes(
        codes, rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
    )
    for kwargs in ({}, {"executor": "process", "workers": 2}):
        rows.append(joined(PebbleJoin(config, 0.5, tau=2).join(records, **kwargs)))

auto = UnifiedJoin(
    rules=dataset.rules, taxonomy=dataset.taxonomy, theta=0.5, tau="auto",
    tau_universe=(1, 2, 3), sample_probability=0.5, recommendation_seed=7,
)
rows.append(joined(auto.join(records)))
rows.append(auto.last_recommendation.best_tau)

config = MeasureConfig.from_codes(
    "TJS", rules=dataset.rules, taxonomy=dataset.taxonomy, q=3
)
index = SimilarityIndex(records, config, theta=0.5, tau=2)
probes = [dataset.records[i].text for i in range(40, 52)] + [records[0].text]
for probe in probes:
    rows.append(read(index.query(probe)))
    rows.append(read(index.query_topk(probe, 2)))
for member in range(0, 40, 4):
    rows.append(read(index.query_member(member)))
batch = index.query_batch(probes)
rows.append([
    [(p.left_id, p.right_id, p.similarity) for p in batch.pairs],
    batch.candidate_count,
    batch.processed_pairs,
    counters(batch.verification),
])
print(json.dumps({
    "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    "candidates": sum(row[1] for row in rows[:8]),
    "best_tau": auto.last_recommendation.best_tau,
}))
'''


def _run(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_answers_and_counters_identical_across_hash_seeds():
    first, second = _run("0"), _run("1")
    # A scenario without candidates would prove nothing about the paths.
    assert first["candidates"] > 0
    assert first == second
