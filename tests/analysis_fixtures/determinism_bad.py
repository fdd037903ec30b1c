"""Fixture: hash-order and entropy leaks into output structures."""

import random


def pairs_from_overlap(left, right):
    overlap = set(left) & set(right)
    pairs = []
    for token in overlap:  # expect[unsorted-iteration]
        pairs.append((token, token))
    return pairs


def keys_in_hash_order(counts):
    return [key for key in counts.keys()]  # expect[unsorted-iteration]


def yielded_in_hash_order(items):
    for item in {value for value in items}:  # expect[unsorted-iteration]
        yield item


def counter_in_hash_order(tokens):
    counts = {}
    for token in set(tokens):  # expect[unsorted-iteration]
        counts[token] = counts.get(token, 0) + 1
    return counts


def sample_one(items):
    return random.choice(items)  # expect[unseeded-random]


def fresh_rng():
    return random.Random()  # expect[unseeded-random]


def memo_lookup(cache, record):
    return cache.get(id(record))  # expect[id-keyed-container]


def memo_store(cache, record, value):
    cache[id(record)] = value  # expect[id-keyed-container]


def memo_lookup_via_name(cache, record, method):
    key = (id(record), method)  # expect[id-keyed-container]
    return cache.get(key)
