"""Fixture: the deterministic spellings of the determinism_bad patterns."""

import random


def pairs_from_overlap(left, right):
    overlap = set(left) & set(right)
    pairs = []
    for token in sorted(overlap):
        pairs.append((token, token))
    return pairs


def keys_in_sorted_order(counts):
    return [key for key in sorted(counts.keys())]


def membership_only(left, right):
    # Iterating a set without leaking its order into output is fine.
    total = 0
    for token in set(left):
        if token in right:
            total += 1
    return total


def sample_one(items, seed):
    return random.Random(seed).choice(items)


def keyed_by_content(cache, record):
    return cache.get(record.record_id)


def guarded_memo_lookup(cache, record, method):
    # The value holds the record and is identity-checked below.
    key = (id(record), method)  # repro: ignore[id-keyed-container]
    entry = cache.get(key)
    return entry[1] if entry is not None and entry[0] is record else None
