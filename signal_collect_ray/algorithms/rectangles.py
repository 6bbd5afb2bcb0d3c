"""4-cycle (rectangle / butterfly) counting over the undirected simple
graph — the next motif up from triangles (reference's vertex-centric
triangle counting: ``IntegrationSpec``-style graph analytics; 4-cycles
are the standard spam-farm / near-bipartite-core signal in link-graph
analysis, Wang et al. 2014 "butterfly counting", public literature).

Exact identity: every 4-cycle u–v–w–x has exactly two diagonal pairs
({u,w} and {v,x}), and a pair {u,w} with ``c`` common neighbours is the
diagonal of C(c,2) distinct 4-cycles, so

    #C4 = 1/2 · Σ_{u<w} C(codeg(u, w), 2).

Pipeline (two exchanges):
1. the triangle pipeline's exchange A (``triangles._adjacency``, an
   object-ref exchange with no Ray Data shuffle) leaves one row per
   wedge CENTER holding its whole sorted neighbourhood in the object
   store; a Dataset over those reducer outputs runs the neighbour-pair
   emission kernel (``cocitation._pairs_from_partition``) as a plain map
   over the rows, exact and vectorized (one ``np.triu_indices`` gather
   per distinct segment length);
2. route each unordered pair to one partition by its pair hash
   (``groupby``) and reduce: per-partition ``np.unique`` counts give
   codeg, Σ C(c,2) folds to ONE int64 per partition — the driver sums
   the partials.

Cost is the unavoidable Σ_v C(deg v, 2) wedge emission (the butterfly
bound); ``max_degree`` caps hub centers for an approximate count at
100-TB hub skew (None = exact, the oracle-checked default).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from signal_collect_ray.algorithms.cocitation import _pairs_from_partition
from signal_collect_ray.algorithms.triangles import _adjacency, _flat, _np


def rectangle_count(
    edges_ds, num_partitions: int = 64, max_degree=None
) -> int:
    """Exact number of 4-cycles in the undirected simple graph of
    ``edges_ds`` (src, dst; direction and duplicates ignored,
    self-loops dropped)."""
    emit = _pairs_from_partition(max_degree, num_partitions)

    def center_pairs(tbl: pa.Table) -> pa.Table:
        # one call per block of whole rows: a center's neighbourhood is
        # never split across calls
        _, v, x = _flat(tbl)
        return emit(pa.table({"src": v, "dst": x}))

    pairs = _adjacency(edges_ds, num_partitions).dataset().map_batches(
        center_pairs, batch_format="pyarrow"
    )

    def partial(tbl: pa.Table) -> pa.Table:
        a, b = _np(tbl, "id_a"), _np(tbl, "id_b")
        key = np.stack([a, b], axis=1)
        _, cnt = np.unique(key, axis=0, return_counts=True)
        c = cnt.astype(np.int64)
        tot = int((c * (c - 1) // 2).sum())
        return pa.table({"part": pa.array([tot], pa.int64())})

    parts = (
        pairs.groupby("gpart")
        .map_groups(partial, batch_format="pyarrow")
        .take_all()
    )
    return sum(int(r["part"]) for r in parts) // 2
