"""k-truss decomposition — iterative edge peeling by triangle support
(Cohen 2008, public): repeatedly delete every edge contained in fewer
than k−2 triangles; the fixpoint is the k-truss, the standard
community-core / spam-farm filter one level finer than k-core.

Each peel round runs the triangle pipeline's oriented-adjacency
builder and two-exchange wedge closure (``triangles._adjacency`` /
``_triangle_partials``) with a per-EDGE reduce instead of per-vertex:
every closed wedge (u,v,w) contributes one unit of support to its three
edges, keyed by the canonical packed pair id. Support counts
pre-combine per ipart group before a hash-partitioned exact sum
(``_sum_by_key``), so that exchange carries one row per surviving edge
and group, never per triangle. Peeling is MONOTONE (removing
edges only lowers support), so running R rounds of the engine equals an
R-round unrolled SQL oracle even when the fixpoint lands early.

Requires vertex ids < 2^31 (packed pair keys) — same contract as
cocitation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from signal_collect_ray.algorithms.triangles import (
    _adjacency,
    _np,
    _sum_by_key,
    _triangle_partials,
    _unique_undirected,
)
from signal_collect_ray.util import segment_sum

_ID_BITS = 32


def _pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if len(hi) and hi.max() >= (1 << (_ID_BITS - 1)):
        raise ValueError("ktruss requires vertex ids < 2^31")
    return (lo.astype(np.int64) << _ID_BITS) | hi.astype(np.int64)


def _support_rows(u, v, w) -> pa.Table:
    """Closed wedges of one ipart group → per-edge partial support."""
    keys = np.concatenate([_pack(u, v), _pack(u, w), _pack(v, w)])
    k, c = segment_sum(keys, np.ones(len(keys), dtype=np.int64))
    return pa.table({"key": pa.array(k, pa.int64()), "supp": pa.array(c, pa.int64())})


def edge_support(edges_ds, num_partitions: int = 64):
    """Per-edge triangle support over the undirected graph: Dataset
    (key: packed canonical pair, supp: int64). Edges on no triangle are
    absent (support 0)."""
    partials = _triangle_partials(
        _adjacency(edges_ds, num_partitions), num_partitions, _support_rows
    )
    return _sum_by_key(partials, "key", "supp", num_partitions)


def ktruss(edges_ds, k: int, num_partitions: int = 64, max_rounds: int = 30):
    """The k-truss of the (undirected-ized) graph: pyarrow Table (a, b)
    of the surviving canonical edges. Driver loop: support pass →
    filter < k−2 → repeat until the edge set is stable (or max_rounds,
    which bounds the oracle unroll)."""
    import ray.data as rd

    if k < 2:
        raise ValueError("k must be ≥ 2")
    thresh = k - 2
    cur = _unique_undirected(edges_ds, num_partitions).materialize()
    n = cur.count()
    if thresh <= 0:
        # 2-truss = every edge; the support pass would drop
        # triangle-free edges (they are absent from its output)
        max_rounds = 0
    for _ in range(max_rounds):
        if n == 0:
            break

        def as_edges(tbl: pa.Table) -> pa.Table:
            return pa.table({"src": tbl.column("a"), "dst": tbl.column("b")})

        supp = edge_support(
            cur.map_batches(as_edges, batch_format="pyarrow"), num_partitions
        )

        def keep(tbl: pa.Table) -> pa.Table:
            key = _np(tbl, "key")
            s = _np(tbl, "supp")
            sel = np.flatnonzero(s >= thresh)
            kk = key[sel]
            return pa.table(
                {
                    "a": pa.array(kk >> _ID_BITS, pa.int64()),
                    "b": pa.array(kk & ((1 << _ID_BITS) - 1), pa.int64()),
                }
            )

        nxt = supp.map_batches(keep, batch_format="pyarrow").materialize()
        m = nxt.count()
        if m == n:
            cur = nxt
            break
        cur, n = nxt, m
    if not n:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
        )
    # bounded by surviving truss edges; columnar lexsort, no row loop
    tbl = pa.concat_tables(
        cur.iter_batches(batch_format="pyarrow", batch_size=None)
    ).combine_chunks()
    a = tbl.column("a").to_numpy(zero_copy_only=False)
    b = tbl.column("b").to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a))
    return pa.table(
        {
            "a": pa.array(a[order], pa.int64()),
            "b": pa.array(b[order], pa.int64()),
        }
    )
