"""Triangle counting & clustering coefficient — two object-ref exchanges.

The reference computes the clustering coefficient by signaling whole
neighbor sets along every edge and intersecting in collect
(``/root/reference/src/main/scala/com/signalcollect/examples/
ClusteringCoefficient.scala:24-47``) — O(Σ deg²) traffic, not
combiner-friendly. Per SURVEY §7.4.3 we replace it with the standard
distributed degree-oriented wedge closure, built by ONE
oriented-adjacency builder that every consumer here (and ktruss,
cliques, rectangles) goes through. Every exchange runs on the
object-ref exchange ``Graph.build`` uses (``signal_collect_ray.
exchange``): split tasks route rows to reducer part_of(key) % R, R =
min(P, cluster CPUs), with no Ray Data shuffle.

A. exchange keyed by hash(v): a map over the edge blocks drops
   self-loops, emits (v, x) and (x, v) and lexsort-dedups; each of the
   R reducers dedups exactly and emits one row per vertex it owns,
   (v, nbrs) with nbrs the sorted unique neighbour list, and its
   (v, deg) rows as a second return. Degree is the list length, exact,
   so there is no degree exchange; a row is never split, so every
   later step sees all of N(v).
B. degree broadcast: the driver fetches the A reducers' (vid, deg)
   rows, sorts them by vid and ``ray.put``s the table once.
C. orient-and-ship, one task per A reducer: N⁺(v) = {x ∈ N(v) :
   (deg v, v) < (deg x, x)} — the classic O(E^1.5) bound on shipped
   wedges. Emit the owner row (v, N⁺(v)) and, for each x ∈ N⁺(v), an
   edge row (x, v, the w ∈ N⁺(v) after x in that order) routed to
   part_of(x). Ids are ranks in the broadcast sorted-vid array: exact
   and < V.
D. R close reducers: wedge (v, x, w) closes iff x→w is oriented, and
   x's owner row is in the same reducer; the exact key rank_x·V +
   rank_w and one searchsorted decide it. The key is global and each
   vertex has one owner row, so a reducer closes all its partitions in
   one call. Each triangle closes exactly one wedge, so the R partial
   results are the answer: the caller sums R counts for
   ``total_triangles``.

Above ``BROADCAST_DEGREE_LIMIT`` vertices, B is replaced by one
degree-announce exchange: each vertex row sends (x, v, deg v) to
part_of(x), whose reducer then knows deg x as its row count, orients
N(x) and ships; D keys its wedges by ranks local to each reducer.

Per-vertex counts equal the reference's Σ|N(v)∩N(u)|/2; the clustering
coefficient is 2·tri(v)/(deg·(deg−1)) (ClusteringCoefficient.scala:31-38).
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from signal_collect_ray.exchange import (
    block_refs,
    concat,
    num_reducers,
    route,
    submit,
)
from signal_collect_ray.util import (
    expand_ranges,
    isin_sorted,
    part_of,
    segment_starts,
    segment_sum,
)

_EMPTY = np.empty(0, np.int64)


def _np(tbl: pa.Table, col: str) -> np.ndarray:
    return tbl.column(col).combine_chunks().to_numpy(zero_copy_only=False)


def _partial_sums(tbl: pa.Table, key_col: str, val_col: str, P: int) -> pa.Table:
    k, c = segment_sum(_np(tbl, key_col), _np(tbl, val_col))
    return pa.table(
        {
            "gpart": pa.array(part_of(k, P), pa.int32()),
            key_col: pa.array(k, pa.int64()),
            val_col: pa.array(c, pa.int64()),
        }
    )


def _final_sums(key_col: str, val_col: str, *pieces) -> pa.Table:
    tbl = concat(pieces)
    k, c = (_EMPTY, _EMPTY) if tbl is None else segment_sum(
        _np(tbl, key_col), _np(tbl, val_col)
    )
    return pa.table({key_col: pa.array(k, pa.int64()), val_col: pa.array(c, pa.int64())})


def _sum_by_key(refs, key_col, val_col, num_partitions=64):
    """Exact sum-by-key over the tables behind ``refs``: a partial
    segment_sum per table in its split task, then one exact sum per
    reducer of part_of(key) % R. A Dataset over the R reducer outputs."""
    import ray.data as rd

    R = num_reducers(num_partitions)
    pieces = route(
        ([ref] for ref in refs), "gpart", R, _partial_sums, key_col, val_col, num_partitions
    )
    return rd.from_arrow_refs(
        [submit(_final_sums, 1, key_col, val_col, *pieces[r])[0] for r in range(R)]
    )


def _pair_sums(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Sum of c per distinct (a, b) pair: (a, b, sum), sorted by (a, b)."""
    order = np.lexsort((b, a))
    a, b, c = a[order], b[order], c[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(first)
    return a[starts], b[starts], np.add.reduceat(c, starts) if len(c) else c


def _dedup_pairs(a: np.ndarray, b: np.ndarray):
    """The distinct (a, b) pairs, sorted by (a, b)."""
    a, b, _ = _pair_sums(a, b, np.zeros(len(a), np.int8))
    return a, b


def _list_column(counts: np.ndarray, values: np.ndarray) -> pa.ListArray:
    """list<int64> whose row i holds the next counts[i] of ``values``."""
    off = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=off[1:])
    return pa.ListArray.from_arrays(pa.array(off), pa.array(values, pa.int64()))


def _flat(tbl: pa.Table, key: str = "v"):
    """(row, key, value) arrays of a table's ``nbrs`` list column, one
    entry per list element: row i of the table owns entries with row == i."""
    nbrs = tbl.column("nbrs")
    lens = pc.list_value_length(nbrs).to_numpy(zero_copy_only=False)
    vals = pc.list_flatten(nbrs).to_numpy(zero_copy_only=False)
    row = np.repeat(np.arange(len(tbl)), lens)
    return row, _np(tbl, key)[row], vals


class _Adjacency(NamedTuple):
    """Exchange A's output, one entry per reducer: refs of its (v, nbrs)
    rows, of its (vid, deg) rows, and its vertex count."""

    rows: list
    degs: list
    sizes: list

    def dataset(self):
        """The (v, nbrs) rows as a Dataset over the reducer outputs."""
        import ray.data as rd

        return rd.from_arrow_refs(self.rows)


def _emit(tbl: pa.Table, P: int) -> pa.Table:
    s, d = _np(tbl, "src"), _np(tbl, "dst")
    keep = s != d
    s, d = s[keep], d[keep]
    v, x = _dedup_pairs(np.concatenate([s, d]), np.concatenate([d, s]))
    return pa.table(
        {
            "gpart": pa.array(part_of(v, P), pa.int32()),
            "v": pa.array(v, pa.int64()),
            "x": pa.array(x, pa.int64()),
        }
    )


def _degree_rows(tbl: pa.Table) -> pa.Table:
    return pa.table(
        {
            "vid": tbl.column("v"),
            "deg": pc.list_value_length(tbl.column("nbrs")).cast(pa.int64()),
        }
    )


def _rows_task(*pieces) -> list:
    """Exchange A's reducer: (v, x) pieces → the (v, nbrs) row of every
    vertex it owns, its (vid, deg) rows, and their count."""
    tbl = concat(pieces)
    v, x = (_EMPTY, _EMPTY) if tbl is None else _dedup_pairs(_np(tbl, "v"), _np(tbl, "x"))
    starts = segment_starts(v)
    adj = pa.table(
        {
            "v": pa.array(v[starts], pa.int64()),
            "nbrs": _list_column(np.diff(np.append(starts, len(v))), x),
        }
    )
    return [adj, _degree_rows(adj), len(starts)]


def _adjacency(edges_ds, num_partitions: int = 64) -> _Adjacency:
    """Exchange A: (src, dst) edges → one row per vertex (v:int64,
    nbrs:list<int64>) of the undirected simple graph; nbrs is sorted and
    unique, self-loops are dropped, and a vertex with only self-loops
    has no row. Vertex v belongs to reducer part_of(v, P) % R."""
    R = num_reducers(num_partitions)
    emitted = edges_ds.map_batches(
        _emit, fn_args=(num_partitions,), batch_format="pyarrow"
    )
    pieces = route(([ref] for ref in block_refs(emitted)), "gpart", R)
    outs = [submit(_rows_task, 3, *pieces[r]) for r in range(R)]
    return _Adjacency(*([o[i] for o in outs] for i in range(3)))


def _lower(tbl: pa.Table) -> pa.Table:
    _, v, x = _flat(tbl)
    keep = v < x
    return pa.table(
        {"a": pa.array(v[keep], pa.int64()), "b": pa.array(x[keep], pa.int64())}
    )


def _unique_undirected(edges_ds, num_partitions: int = 64):
    """(src,dst[,weight]) → unique (a,b) with a<b, self-loops dropped:
    the exchange-A entries x ∈ N(v) with v < x."""
    return _adjacency(edges_ds, num_partitions).dataset().map_batches(
        _lower, batch_format="pyarrow"
    )


def _broadcast_degrees(adj: _Adjacency):
    """Step B: ``ray.put`` of the vid-sorted (vid, deg) arrays. Only
    (v, deg) reaches the driver; the adjacency lists never do."""
    import ray

    dt = pa.concat_tables(ray.get(adj.degs)).sort_by("vid")
    return ray.put({"vid": _np(dt, "vid"), "deg": _np(dt, "deg")})


def _forward(deg_v, v, deg_x, x):
    """x ∈ N⁺(v): the edge points from the lower (degree, id) end."""
    return (deg_v < deg_x) | ((deg_v == deg_x) & (v < x))


def _orient(tbl: pa.Table, vids: np.ndarray, deg: np.ndarray):
    """N⁺ of a block of exchange-A rows in rank space: (rank_v per row,
    |N⁺| per row, rank_x of the kept entries in row order, their degrees)."""
    row, _, x = _flat(tbl)
    rv = np.searchsorted(vids, _np(tbl, "v"))
    rx = np.searchsorted(vids, x)
    keep = _forward(deg[rv][row], rv[row], deg[rx], rx)
    rx = rx[keep]
    return rv, np.bincount(row[keep], minlength=len(rv)), rx, deg[rx]


def _ship(v: np.ndarray, counts: np.ndarray, w: np.ndarray, wdeg, P: int):
    """Step C's rows from a CSR oriented adjacency (vertex v[i] owns the
    next counts[i] entries of w, whose degrees are wdeg).

    Owner row (key=v, other=v, N⁺(v)) to part_of(v); for each x ∈ N⁺(v)
    an edge row (key=x, other=v, the w ∈ N⁺(v) after x in (deg, id)
    order) to part_of(x). A w before x cannot close: x→w needs
    (deg x, x) < (deg w, w). Edge rows with nothing after x are not sent.
    """
    seg = np.repeat(np.arange(len(v)), counts)
    order = np.lexsort((w, wdeg, seg))
    w = w[order]
    end = np.repeat(np.cumsum(counts), counts)
    nxt = np.arange(len(w)) + 1
    tail = end - nxt
    send = np.flatnonzero(tail > 0)
    own = np.flatnonzero(counts > 0)
    key = np.concatenate([v[own], w[send]])
    return pa.table(
        {
            "ipart": pa.array(part_of(key, P), pa.int32()),
            "key": pa.array(key, pa.int64()),
            "other": pa.array(np.concatenate([v[own], v[seg[send]]]), pa.int64()),
            "nbrs": _list_column(
                np.concatenate([counts[own], tail[send]]),
                np.concatenate([w, w[expand_ranges(nxt[send], tail[send])]]),
            ),
        }
    )


def _orient_ship(tbl: pa.Table, d: dict, P: int) -> pa.Table:
    """Step C on the broadcast degrees: exchange-A rows → rank-space
    owner and edge rows."""
    return _ship(*_orient(tbl, d["vid"], d["deg"]), P)


def _announce(P: int):
    """Degree-announce exchange (no broadcast): each vertex row sends
    (x, v, deg v) for x ∈ N(v) to part_of(x); x's group sees all of
    N(x) with degrees, and deg x as its own row count."""

    def send(tbl: pa.Table) -> pa.Table:
        row, v, x = _flat(tbl)
        deg = pc.list_value_length(tbl.column("nbrs")).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "apart": pa.array(part_of(x, P), pa.int32()),
                "x": pa.array(x, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "dv": pa.array(deg[row], pa.int64()),
            }
        )

    def orient_ship(tbl: pa.Table) -> pa.Table:
        x, v, dv = _np(tbl, "x"), _np(tbl, "v"), _np(tbl, "dv")
        order = np.lexsort((v, x))
        x, v, dv = x[order], v[order], dv[order]
        starts = segment_starts(x)
        deg = np.diff(np.append(starts, len(x)))
        keep = _forward(np.repeat(deg, deg), x, dv, v)
        counts = np.add.reduceat(keep.astype(np.int64), starts)
        return _ship(x[starts], counts, v[keep], dv[keep], P)

    return send, orient_ship


def _closed_wedges(tbl: pa.Table, n=None):
    """Triangle corners (u, v, w) closed in one ipart group, in the ids
    the group was shipped with: edge row (key=v, other=u) carries
    wedges (u, v, w), which close iff the owner row of v lists w.

    ``n`` is V when ids are global ranks (< n); None ranks the group's
    ids locally. Membership is the exact key rank_v·n + rank_w."""
    row, v, w = _flat(tbl, "key")
    owner = (_np(tbl, "other") == _np(tbl, "key"))[row]
    rv, rw = v, w
    if n is None:
        ids = np.unique(np.concatenate([_np(tbl, "key"), w]))
        rv, rw, n = np.searchsorted(ids, v), np.searchsorted(ids, w), len(ids)
    pair = rv * np.int64(n) + rw
    wedge = np.flatnonzero(~owner)
    hit, _ = isin_sorted(np.sort(pair[owner]), pair[wedge])
    tri = wedge[hit]
    return _np(tbl, "other")[row[tri]], v[tri], w[tri]


def _close_task(reduce, d, *pieces) -> pa.Table:
    """Step D: one reducer's shipped rows → ``reduce(u, v, w)`` of the
    triangles they close, corners as vids. With the broadcast degrees
    ``d`` the rows hold global ranks; without them, vids."""
    tbl = concat(pieces)
    if tbl is None:
        return reduce(_EMPTY, _EMPTY, _EMPTY)
    if d is None:
        return reduce(*_closed_wedges(tbl))
    vids = d["vid"]
    return reduce(*(vids[c] for c in _closed_wedges(tbl, len(vids))))


# Above this many vertices the degree table is announced through one
# exchange instead of broadcast. 20M vertices ≈ 320 MB of (vid, deg)
# int64 pairs in the object store — read zero-copy by every orient task,
# shipped once per node, not per task.
BROADCAST_DEGREE_LIMIT = 20_000_000


def _triangle_partials(adj: _Adjacency, num_partitions: int, reduce) -> list:
    """Steps B–D over exchange-A rows: refs of R ``reduce(u, v, w)``
    tables, one per close reducer; together they cover every triangle
    once. ``reduce`` must accept empty arrays."""
    import ray

    P, R = num_partitions, len(adj.rows)
    rows = [[ref] for ref in adj.rows]
    if sum(ray.get(adj.sizes)) <= BROADCAST_DEGREE_LIMIT:
        deg_ref = _broadcast_degrees(adj)
        shipped = route(rows, "ipart", R, _orient_ship, deg_ref, P)
    else:
        deg_ref = None
        send, orient_ship = _announce(P)
        shipped = route(route(rows, "apart", R, send), "ipart", R, orient_ship)
    return [submit(_close_task, 1, reduce, deg_ref, *shipped[r])[0] for r in range(R)]


def _orient_rows(tbl: pa.Table, d: dict) -> pa.Table:
    rv, counts, rx, _ = _orient(tbl, d["vid"], d["deg"])
    return pa.table(
        {
            "src": pa.array(d["vid"][np.repeat(rv, counts)], pa.int64()),
            "dst": pa.array(d["vid"][rx], pa.int64()),
        }
    )


def _oriented_edges(edges_ds, num_partitions=64):
    """The degree-oriented DAG as (src, dst) edge rows: exchange A plus
    the broadcast orientation, one task per A reducer. Its consumer
    (cliques' bitset kernels) bounds V far below
    ``BROADCAST_DEGREE_LIMIT``, so there is no announce path."""
    import ray.data as rd

    from signal_collect_ray.engine import remote

    adj = _adjacency(edges_ds, num_partitions)
    deg_ref = _broadcast_degrees(adj)
    orient = remote(_orient_rows)
    return rd.from_arrow_refs([orient.remote(ref, deg_ref) for ref in adj.rows])


def _count_rows(u, v, w) -> pa.Table:
    return pa.table({"t": pa.array([len(u)], pa.int64())})


def _vertex_rows(u, v, w) -> pa.Table:
    vid, cnt = segment_sum(np.concatenate([u, v, w]), np.ones(3 * len(u), np.int64))
    return pa.table(
        {"vid": pa.array(vid, pa.int64()), "triangles": pa.array(cnt, pa.int64())}
    )


def _triangle_rows(u, v, w) -> pa.Table:
    m = np.sort(np.stack([u, v, w], axis=1), axis=1)
    return pa.table({c: pa.array(m[:, i], pa.int64()) for i, c in enumerate("abc")})


def _edge_triangles(P: int, u, v, w) -> pa.Table:
    """Closed wedges of one reducer → per-edge partial support, keyed by
    the canonical (a < b) pair and routed by its hash."""
    a = np.concatenate([np.minimum(u, v), np.minimum(u, w), np.minimum(v, w)])
    b = np.concatenate([np.maximum(u, v), np.maximum(u, w), np.maximum(v, w)])
    a, b, t = _pair_sums(a, b, np.ones(len(a), np.int64))
    return pa.table(
        {
            "epart": pa.array(part_of(a * np.int64(1_000_003) + b, P), pa.int32()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "supp": pa.array(t, pa.int64()),
        }
    )


def _support_task(fold, *pieces) -> pa.Table:
    tbl = concat(pieces)
    if tbl is None:
        return fold(_EMPTY, _EMPTY, _EMPTY)
    return fold(*_pair_sums(_np(tbl, "a"), _np(tbl, "b"), _np(tbl, "supp")))


def _edge_supports(edges_ds, num_partitions: int, fold) -> list:
    """Per-edge triangle support, exact: the closed wedges' edges
    pre-combined per close reducer, one exchange on the edge, and
    ``fold(a, b, supp)`` over each reducer's edges (a < b, supp > 0).
    Refs of the R fold tables."""
    adj = _adjacency(edges_ds, num_partitions)
    R = len(adj.rows)
    partials = _triangle_partials(adj, num_partitions, partial(_edge_triangles, num_partitions))
    pieces = route(([ref] for ref in partials), "epart", R)
    return [submit(_support_task, 1, fold, *pieces[r])[0] for r in range(R)]


def _coefficients(degs: pa.Table, *pieces) -> pa.Table:
    """One reducer's (vid, deg) rows and summed (vid, triangles) pieces
    → (vid, coefficient) for every vertex it owns."""
    vid, deg = _np(degs, "vid"), _np(degs, "deg").astype(np.float64)
    tri = np.zeros(len(vid))
    tbl = concat(pieces)
    if tbl is not None:
        k, c = segment_sum(_np(tbl, "vid"), _np(tbl, "triangles"))
        tri[np.searchsorted(vid, k)] = c
    denom = deg * (deg - 1.0)
    coeff = np.where(denom > 0, 2.0 * tri / np.maximum(denom, 1.0), 0.0)
    return pa.table(
        {"vid": pa.array(vid, pa.int64()), "coefficient": pa.array(coeff, pa.float64())}
    )


def triangle_counts(edges_ds, num_partitions: int = 64):
    """Per-vertex triangle counts: Dataset (vid:int64, triangles:int64).

    Vertices on no triangle are absent (count 0).
    """
    partials = _triangle_partials(
        _adjacency(edges_ds, num_partitions), num_partitions, _vertex_rows
    )
    return _sum_by_key(partials, "vid", "triangles", num_partitions)


def total_triangles(edges_ds, num_partitions: int = 64) -> int:
    """Total distinct triangles in the (undirected-ized) graph: the
    caller sums one closed-wedge count per close reducer."""
    import ray

    partials = _triangle_partials(
        _adjacency(edges_ds, num_partitions), num_partitions, _count_rows
    )
    return sum(int(_np(t, "t").sum()) for t in ray.get(partials))


def clustering_coefficient(edges_ds, num_partitions: int = 64):
    """Per-vertex local clustering coefficient (reference formula
    Σ|N(v)∩N(u)| / (deg·(deg−1)) = 2·tri / (deg·(deg−1))).

    Returns Dataset (vid:int64, coefficient:float64) over ALL vertices
    (0.0 when deg < 2 or no triangles). The exchange-A reducers keep
    their (vid, deg) rows; the per-vertex triangle sums route to the
    reducer that owns the vertex, which finishes them in one task.
    """
    import ray.data as rd

    P = num_partitions
    adj = _adjacency(edges_ds, P)
    R = len(adj.rows)
    partials = _triangle_partials(adj, P, _vertex_rows)
    tris = route(([ref] for ref in partials), "gpart", R, _partial_sums, "vid", "triangles", P)
    return rd.from_arrow_refs(
        [submit(_coefficients, 1, adj.degs[r], *tris[r])[0] for r in range(R)]
    )


def triangle_list(edges_ds, num_partitions: int = 64):
    """Enumerate every distinct triangle as a canonical (a < b < c) row
    — the same two-exchange wedge closure as ``total_triangles`` (each
    triangle closes exactly ONE wedge in the orientation DAG, so rows are
    exactly the triangles, no dedup needed). Output size is the triangle
    count itself, held in the object store as R reducer outputs."""
    import ray.data as rd

    return rd.from_arrow_refs(
        _triangle_partials(_adjacency(edges_ds, num_partitions), num_partitions, _triangle_rows)
    )


def _diamond_rows(a, b, supp) -> pa.Table:
    return pa.table({"d": pa.array([int((supp * (supp - 1) // 2).sum())], pa.int64())})


def diamond_count(edges_ds, num_partitions: int = 64) -> int:
    """Total diamonds (two triangles sharing an edge, K4 minus one
    edge, counted per shared edge): Σ_e C(t_e, 2) where t_e is the
    number of triangles containing undirected edge e.

    Built on the per-edge support of the wedge closure: each close
    reducer explodes its triangles into their 3 canonical (a < b) edges,
    pre-combined per reducer, then one exchange on the edge and a
    per-reducer C(t,2) fold; the caller sums the R folds. The exchange
    is O(#triangle edges), never all-pairs."""
    import ray

    return sum(
        int(_np(t, "d").sum())
        for t in ray.get(_edge_supports(edges_ds, num_partitions, _diamond_rows))
    )
