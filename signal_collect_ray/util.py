"""Small vectorized helpers shared across the engine.

Partitioning mirrors the reference's vertex→worker mapping
(``DefaultVertexToWorkerMapper.scala:28-35``: hash of the vertex id
modulo the worker count) with a multiplicative hash so sequential /
modulo-structured id spaces still spread evenly.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Knuth multiplicative hash constant (2^32 / phi). Public-domain trick.
_KNUTH = np.uint64(2654435761)
_MASK32 = np.uint64(0xFFFFFFFF)


def part_of(vids: np.ndarray, num_partitions: int) -> np.ndarray:
    """Deterministic partition id for each vertex id (int64 → int32).

    Mirrors the reference's ``(id.hashCode & MaxValue) % numberOfWorkers``
    semantics: stable, uniform, independent of data order.
    """
    v = vids.astype(np.uint64, copy=False)
    h = (v * _KNUTH) & _MASK32
    # fold the high bits of the id in as well so ids > 2^32 still mix
    h = h ^ (v >> np.uint64(32))
    return (h % np.uint64(num_partitions)).astype(np.int32)


class HostAffinityMapper:
    """Pluggable vertex→partition mapper (the reference's
    ``VertexToWorkerMapper`` surface: ``DefaultVertexToWorkerMapper.scala:
    28-35`` is the hash default, ``GraphBuilder.withMapperFactory`` /
    ``features/MapperSpec.scala:34-83`` inject custom ones): place every
    vertex of one HOST on one partition — locality-aware placement for
    web graphs whose vids reduce to a host id (here ``vid % host_mod``,
    matching the host-contraction mapping in pipelines/queries.py). Any
    picklable ``(vids: int64[:], P) -> int32[:]`` callable works as a
    mapper; ``mapper_name`` is recorded in graph meta for auditability
    and reload safety."""

    mapper_name = "host_affinity"

    def __init__(self, host_mod: int):
        self.host_mod = host_mod

    def __call__(self, vids: np.ndarray, num_partitions: int) -> np.ndarray:
        return part_of(
            np.asarray(vids, dtype=np.int64) % self.host_mod, num_partitions
        )


def url_to_vid(url: str) -> int:
    """Deterministic 63-bit vertex id for a url (blake2b-8, top bit clear).

    Used instead of a global sort-rank dictionary: fully parallel, no
    shuffle, stable across runs and partition counts. Collision odds at
    10^12 urls are ~2.7% for any collision across the whole corpus;
    acceptable for analytics (and checked to be zero on test fixtures).
    """
    d = hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(d, "big") & 0x7FFFFFFFFFFFFFFF


def urls_to_vids(urls) -> np.ndarray:
    """Vectorized-ish wrapper (C-speed hash per url) → int64 array."""
    return np.fromiter(
        (url_to_vid(u) for u in urls), dtype=np.int64, count=len(urls)
    )


def isin_sorted(haystack_sorted: np.ndarray, needles: np.ndarray):
    """Membership of ``needles`` in an ASCENDING-sorted ``haystack``:
    returns (hit_mask, clipped_positions). One searchsorted; the shared
    helper for every sorted-membership check in the repo (empty-haystack
    safe)."""
    n = len(haystack_sorted)
    if n == 0:
        return (
            np.zeros(len(needles), dtype=bool),
            np.zeros(len(needles), dtype=np.int64),
        )
    pos = np.searchsorted(haystack_sorted, needles)
    pos_c = np.minimum(pos, n - 1)
    hit = (pos < n) & (haystack_sorted[pos_c] == needles)
    return hit, pos_c


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal values in a sorted key array."""
    if len(sorted_keys) == 0:
        return np.empty(0, dtype=np.int64)
    change = np.empty(len(sorted_keys), dtype=bool)
    change[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    return np.flatnonzero(change)


def segment_sum(keys: np.ndarray, vals: np.ndarray):
    """Group-by-key sum over unsorted arrays. Returns (unique_keys, sums)."""
    order = np.argsort(keys, kind="stable")
    k, v = keys[order], vals[order]
    starts = segment_starts(k)
    if len(starts) == 0:
        return k[:0], v[:0]
    return k[starts], np.add.reduceat(v, starts)


def segment_min(keys: np.ndarray, vals: np.ndarray):
    """Group-by-key min over unsorted arrays. Returns (unique_keys, mins)."""
    order = np.argsort(keys, kind="stable")
    k, v = keys[order], vals[order]
    starts = segment_starts(k)
    if len(starts) == 0:
        return k[:0], v[:0]
    return k[starts], np.minimum.reduceat(v, starts)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64/murmur3 finalizer over uint64 arrays (public domain)."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xC4CEB9FE1A85EC53)
        x ^= x >> np.uint64(33)
        return x


def pair_hash(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """64-bit hash of id pairs — used as a pre-filter (collisions are
    resolved by exact verification, never trusted)."""
    with np.errstate(over="ignore"):
        return mix64(
            a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ^ mix64(b.astype(np.uint64))
        )


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s+c)`` for each (s, c) pair — vectorized.

    The standard CSR fan-out trick: selects the edge-array index for every
    out-edge of every selected source vertex without a Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.repeat(counts.cumsum() - counts, counts)
    return np.arange(total, dtype=np.int64) - offs + np.repeat(starts, counts)


def pin_schema(ds, schema):
    """Union ``ds`` with one empty typed block so the Dataset keeps a
    schema even when every real block is filtered away.

    ``groupby().map_groups`` emits NO blocks when there are zero groups,
    leaving ``Dataset.schema()`` as None — downstream consumers (the
    driver's correctness comparator, ``to_pandas`` column recovery)
    need the declared schema on legitimately-empty results (e.g. a
    near-dup pair search that finds no pairs). ``schema`` is a
    ``pyarrow.Schema``; the extra block is empty and costs nothing.
    """
    import ray.data as rd

    empty = rd.from_arrow(schema.empty_table())
    return empty.union(ds)
