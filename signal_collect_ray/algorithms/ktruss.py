"""k-truss decomposition — iterative edge peeling by triangle support
(Cohen 2008, public): repeatedly delete every edge contained in fewer
than k−2 triangles; the fixpoint is the k-truss, the standard
community-core / spam-farm filter one level finer than k-core.

Each peel round runs the triangle pipeline's oriented-adjacency
builder and wedge closure on its object-ref exchange
(``triangles._adjacency`` / ``_triangle_partials``) with a per-EDGE
reduce instead of per-vertex: every closed wedge (u,v,w) contributes one
unit of support to its three canonical (a < b) edges. Support counts
pre-combine per close reducer before one more exchange on the edge,
whose reducers sum them exactly on the (a, b) columns (``_pair_sums``),
so that exchange carries one row per surviving edge and reducer, never
per triangle, and any int64 id works. Peeling is MONOTONE (removing
edges only lowers support), so running R rounds of the engine equals an
R-round unrolled SQL oracle even when the fixpoint lands early.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from signal_collect_ray.algorithms.triangles import _edge_supports, _unique_undirected


def _support_table(a, b, supp) -> pa.Table:
    return pa.table(
        {
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "supp": pa.array(supp, pa.int64()),
        }
    )


def edge_support(edges_ds, num_partitions: int = 64):
    """Per-edge triangle support over the undirected graph: Dataset
    (a, b, supp: int64) over the canonical a < b edges. Edges on no
    triangle are absent (support 0)."""
    import ray.data as rd

    return rd.from_arrow_refs(_edge_supports(edges_ds, num_partitions, _support_table))


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
            return tbl.filter(pc.greater_equal(tbl.column("supp"), thresh)).select(["a", "b"])

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
