"""Triangle counting & clustering coefficient — two exchanges.

The reference computes the clustering coefficient by signaling whole
neighbor sets along every edge and intersecting in collect
(``/root/reference/src/main/scala/com/signalcollect/examples/
ClusteringCoefficient.scala:24-47``) — O(Σ deg²) traffic, not
combiner-friendly. Per SURVEY §7.4.3 we replace it with the standard
distributed degree-oriented wedge closure, built by ONE
oriented-adjacency builder that every consumer here (and ktruss,
cliques, rectangles) goes through:

A. exchange keyed by hash(v): each batch drops self-loops, emits
   (v, x) and (x, v) and lexsort-dedups; ``groupby(part_of(v))``
   dedups exactly and emits one row per vertex, (v, nbrs) with nbrs
   the sorted unique neighbour list. Degree is the list length, exact,
   so there is no degree exchange; a row is never split across blocks,
   so every later map sees all of N(v).
B. degree broadcast: a remote map yields (v, deg) and only those
   columns reach the calling process; the vid-sorted table is ``ray.put``
   once.
C. orient-and-ship, one map: N⁺(v) = {x ∈ N(v) : (deg v, v) <
   (deg x, x)} — the classic O(E^1.5) bound on shipped wedges. Emit
   the owner row (v, N⁺(v)) and, for each x ∈ N⁺(v), an edge row
   (x, v, the w ∈ N⁺(v) after x in that order) routed to part_of(x).
   Ids are ranks in the broadcast sorted-vid array: exact and < V.
D. exchange ``groupby(ipart)``: wedge (v, x, w) closes iff x→w is
   oriented, and x's owner row is in this group; the exact key
   rank_x·V + rank_w and one searchsorted decide it. Each triangle
   closes exactly one wedge, so partial rows are the answer: the caller
   sums P counts for ``total_triangles``.

Above ``BROADCAST_DEGREE_LIMIT`` vertices, B is replaced by one
degree-announce exchange: each vertex row sends (x, v, deg v) to
part_of(x), whose group then knows deg x as its row count, orients
N(x) and ships; D keys its wedges by ranks local to each group.

Per-vertex counts equal the reference's Σ|N(v)∩N(u)|/2; the clustering
coefficient is 2·tri(v)/(deg·(deg−1)) (ClusteringCoefficient.scala:31-38).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from signal_collect_ray.util import (
    expand_ranges,
    isin_sorted,
    part_of,
    segment_starts,
    segment_sum,
)


def _np(tbl: pa.Table, col: str) -> np.ndarray:
    return tbl.column(col).combine_chunks().to_numpy(zero_copy_only=False)


def _sum_by_key(ds, key_col, val_col, num_partitions=64):
    """hash-partitioned exact sum-by-key: per-batch partial segment_sum,
    one groupby on the (low-cardinality int32) partition id, vectorized
    final sum per group. Much cheaper than the native high-cardinality
    ``groupby(key).aggregate(Sum)`` (which sorts every row by key)."""

    def partial(tbl: pa.Table) -> pa.Table:
        k, c = segment_sum(_np(tbl, key_col), _np(tbl, val_col))
        return pa.table(
            {
                "gpart": pa.array(part_of(k, num_partitions), pa.int32()),
                key_col: pa.array(k, pa.int64()),
                val_col: pa.array(c, pa.int64()),
            }
        )

    def final(tbl: pa.Table) -> pa.Table:
        k, c = segment_sum(_np(tbl, key_col), _np(tbl, val_col))
        return pa.table(
            {key_col: pa.array(k, pa.int64()), val_col: pa.array(c, pa.int64())}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(final, batch_format="pyarrow")
    )


def _attach(left_ds, left_key, right_ds, right_key, attach_cols, num_partitions=64):
    """Co-partitioned hash join: gather ``attach_cols`` from right onto left.

    Tagged-union pattern (ray_guide 'Joins and lookups'): both sides get
    ``jpart = hash(key) % P``; one groupby(jpart) co-locates them; inside
    the group a vectorized searchsorted gather attaches the columns.
    Right keys must be unique. Left rows with no match are dropped.
    """

    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_cols = list(left_schema.names)
    attach_types = {
        n: right_schema.types[right_schema.names.index(n)] for n in attach_cols
    }
    left_types = {n: left_schema.types[left_schema.names.index(n)] for n in left_cols}

    def tag(kind, key_col):
        def fn(tbl: pa.Table) -> pa.Table:
            k = _np(tbl, key_col)
            n = len(tbl)
            cols = {}
            for c in left_cols:
                cols[c] = (
                    tbl.column(c) if c in tbl.column_names and kind == 1
                    else pa.nulls(n, left_types[c])
                )
            for c in attach_cols:
                cols[c] = (
                    tbl.column(c) if kind == 0 else pa.nulls(n, attach_types[c])
                )
            cols["jkey"] = pa.array(k, pa.int64())
            cols["jpart"] = pa.array(part_of(k, num_partitions), pa.int32())
            cols["jkind"] = pa.array(np.full(n, kind, dtype=np.int8), pa.int8())
            return pa.table(cols)

        return fn

    left_t = left_ds.map_batches(tag(1, left_key), batch_format="pyarrow")
    right_t = right_ds.map_batches(tag(0, right_key), batch_format="pyarrow")

    def join_group(tbl: pa.Table) -> pa.Table:
        kind = _np(tbl, "jkind")
        lmask = kind == 1
        left = tbl.filter(pa.array(lmask))
        right = tbl.filter(pa.array(~lmask))
        rk = _np(right, "jkey")
        order = np.argsort(rk, kind="stable")
        rk = rk[order]
        lk = _np(left, "jkey")
        pos = np.searchsorted(rk, lk)
        pos_c = np.minimum(pos, max(len(rk) - 1, 0))
        ok = (len(rk) > 0) & (pos < len(rk))
        ok = ok & (rk[pos_c] == lk) if len(rk) else np.zeros(len(lk), dtype=bool)
        take_left = pa.array(np.flatnonzero(ok), pa.int64())
        out = left.select(left_cols).take(take_left)
        ridx = pa.array(order[pos_c[ok]], pa.int64())
        for col in attach_cols:
            out = out.append_column(col, right.column(col).combine_chunks().take(ridx))
        return out

    return (
        left_t.union(right_t)
        .groupby("jpart")
        .map_groups(join_group, batch_format="pyarrow")
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


def _adjacency(edges_ds, num_partitions: int = 64):
    """Exchange A: (src, dst) edges → one materialised row per vertex
    (v:int64, nbrs:list<int64>) of the undirected simple graph; nbrs is
    sorted and unique, self-loops are dropped, and a vertex with only
    self-loops has no row."""
    P = num_partitions

    def emit(tbl: pa.Table) -> pa.Table:
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

    def rows(tbl: pa.Table) -> pa.Table:
        v, x = _dedup_pairs(_np(tbl, "v"), _np(tbl, "x"))
        starts = segment_starts(v)
        return pa.table(
            {
                "v": pa.array(v[starts], pa.int64()),
                "nbrs": _list_column(np.diff(np.append(starts, len(v))), x),
            }
        )

    return (
        edges_ds.map_batches(emit, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(rows, batch_format="pyarrow")
        .materialize()
    )


def _unique_undirected(edges_ds, num_partitions: int = 64):
    """(src,dst[,weight]) → unique (a,b) with a<b, self-loops dropped:
    the exchange-A entries x ∈ N(v) with v < x."""

    def lower(tbl: pa.Table) -> pa.Table:
        _, v, x = _flat(tbl)
        keep = v < x
        return pa.table(
            {"a": pa.array(v[keep], pa.int64()), "b": pa.array(x[keep], pa.int64())}
        )

    return _adjacency(edges_ds, num_partitions).map_batches(
        lower, batch_format="pyarrow"
    )


def _degree_rows(tbl: pa.Table) -> pa.Table:
    return pa.table(
        {
            "vid": tbl.column("v"),
            "deg": pc.list_value_length(tbl.column("nbrs")).cast(pa.int64()),
        }
    )


def _broadcast_degrees(adj):
    """Step B: ``ray.put`` of the vid-sorted (vid, deg) arrays. Only
    (v, deg) leaves the workers; the adjacency lists never do."""
    import ray

    degs = adj.map_batches(_degree_rows, batch_format="pyarrow")
    dt = pa.concat_tables(
        list(degs.iter_batches(batch_format="pyarrow", batch_size=None))
    ).sort_by("vid")
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


class _OrientShip:
    """Step C on the broadcast degrees: exchange-A rows → rank-space
    owner and edge rows."""

    __name__ = "_OrientShip"

    def __init__(self, deg_ref, P: int):
        self.deg_ref, self.P = deg_ref, P

    def __call__(self, tbl: pa.Table) -> pa.Table:
        import ray

        d = ray.get(self.deg_ref)
        return _ship(*_orient(tbl, d["vid"], d["deg"]), self.P)


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


class _Close:
    """Step D: one ipart group → ``reduce(u, v, w)`` of the triangles
    it closes, corners as vids. With the broadcast ``deg_ref`` the group
    holds global ranks; without it, vids."""

    __name__ = "_Close"

    def __init__(self, reduce, deg_ref=None):
        self.reduce, self.deg_ref = reduce, deg_ref

    def __call__(self, tbl: pa.Table) -> pa.Table:
        if self.deg_ref is None:
            return self.reduce(*_closed_wedges(tbl))
        import ray

        vids = ray.get(self.deg_ref)["vid"]
        return self.reduce(*(vids[c] for c in _closed_wedges(tbl, len(vids))))


# Above this many vertices the degree table is announced through one
# exchange instead of broadcast. 20M vertices ≈ 320 MB of (vid, deg)
# int64 pairs in the object store — read zero-copy by every orient task,
# shipped once per node, not per batch.
BROADCAST_DEGREE_LIMIT = 20_000_000


def _triangle_partials(adj, num_partitions: int, reduce):
    """Steps B–D over exchange-A rows: a Dataset of ``reduce(u, v, w)``
    tables, one per ipart group; together they cover every triangle once.
    ``reduce`` must accept empty arrays."""
    import ray.data as rd

    P = num_partitions
    n = adj.count()
    if n == 0:
        none = np.empty(0, np.int64)
        return rd.from_arrow(reduce(none, none, none))
    if n <= BROADCAST_DEGREE_LIMIT:
        deg_ref = _broadcast_degrees(adj)
        shipped = adj.map_batches(_OrientShip(deg_ref, P), batch_format="pyarrow")
        close = _Close(reduce, deg_ref)
    else:
        send, orient_ship = _announce(P)
        shipped = (
            adj.map_batches(send, batch_format="pyarrow")
            .groupby("apart")
            .map_groups(orient_ship, batch_format="pyarrow")
        )
        close = _Close(reduce)
    return shipped.groupby("ipart").map_groups(close, batch_format="pyarrow")


def _oriented_edges(edges_ds, num_partitions=64):
    """The degree-oriented DAG as (spart, src, dst) edge rows, and the
    (vid, deg) rows — exchange A plus the broadcast orientation. Its
    consumer (cliques' bitset kernels) bounds V far below
    ``BROADCAST_DEGREE_LIMIT``, so there is no announce path."""
    adj = _adjacency(edges_ds, num_partitions)
    degs = adj.map_batches(_degree_rows, batch_format="pyarrow")
    deg_ref = _broadcast_degrees(adj) if adj.count() else None

    def orient(tbl: pa.Table) -> pa.Table:
        import ray

        d = ray.get(deg_ref)
        rv, counts, rx, _ = _orient(tbl, d["vid"], d["deg"])
        src = d["vid"][np.repeat(rv, counts)]
        return pa.table(
            {
                "spart": pa.array(part_of(src, num_partitions), pa.int32()),
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(d["vid"][rx], pa.int64()),
            }
        )

    return adj.map_batches(orient, batch_format="pyarrow"), degs


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
    caller sums one closed-wedge count per ipart group."""
    partials = _triangle_partials(
        _adjacency(edges_ds, num_partitions), num_partitions, _count_rows
    )
    return sum(
        int(_np(b, "t").sum())
        for b in partials.iter_batches(batch_format="pyarrow", batch_size=None)
    )


def clustering_coefficient(edges_ds, num_partitions: int = 64):
    """Per-vertex local clustering coefficient (reference formula
    Σ|N(v)∩N(u)| / (deg·(deg−1)) = 2·tri / (deg·(deg−1))).

    Returns Dataset (vid:int64, coefficient:float64) over ALL vertices
    (0.0 when deg < 2 or no triangles). One builder call feeds both the
    degree and the triangle rows; one exchange sums them per vertex.
    """
    P = num_partitions
    adj = _adjacency(edges_ds, P)

    def keyed(tbl: pa.Table, deg, tri) -> pa.Table:
        return pa.table(
            {
                "gpart": pa.array(part_of(_np(tbl, "vid"), P), pa.int32()),
                "vid": tbl.column("vid"),
                "deg": deg,
                "triangles": tri,
            }
        )

    def deg_rows(tbl: pa.Table) -> pa.Table:
        d = _degree_rows(tbl)
        return keyed(d, d.column("deg"), pa.array(np.zeros(len(d), np.int64)))

    def tri_rows(tbl: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(len(tbl), np.int64))
        return keyed(tbl, zeros, tbl.column("triangles"))

    def finish(tbl: pa.Table) -> pa.Table:
        vid = _np(tbl, "vid")
        order = np.argsort(vid, kind="stable")
        vid = vid[order]
        starts = segment_starts(vid)
        deg = np.add.reduceat(_np(tbl, "deg")[order], starts).astype(np.float64)
        tri = np.add.reduceat(_np(tbl, "triangles")[order], starts).astype(np.float64)
        denom = deg * (deg - 1.0)
        coeff = np.where(denom > 0, 2.0 * tri / np.maximum(denom, 1.0), 0.0)
        return pa.table(
            {
                "vid": pa.array(vid[starts], pa.int64()),
                "coefficient": pa.array(coeff, pa.float64()),
            }
        )

    tris = _triangle_partials(adj, P, _vertex_rows)
    return (
        adj.map_batches(deg_rows, batch_format="pyarrow")
        .union(tris.map_batches(tri_rows, batch_format="pyarrow"))
        .groupby("gpart")
        .map_groups(finish, batch_format="pyarrow")
    )


def triangle_list(edges_ds, num_partitions: int = 64):
    """Enumerate every distinct triangle as a canonical (a < b < c) row
    — the same two-exchange wedge closure as ``total_triangles`` (each
    triangle closes exactly ONE wedge in the orientation DAG, so rows are
    exactly the triangles, no dedup needed). Output size is the triangle
    count itself — stream it to a sink, don't take_all at web scale."""
    return _triangle_partials(
        _adjacency(edges_ds, num_partitions), num_partitions, _triangle_rows
    )


def diamond_count(edges_ds, num_partitions: int = 64) -> int:
    """Total diamonds (two triangles sharing an edge, K4 minus one
    edge, counted per shared edge): Σ_e C(t_e, 2) where t_e is the
    number of triangles containing undirected edge e.

    Built on the same two-exchange wedge closure as ``triangle_list``:
    each ipart group explodes its triangles into their 3 canonical
    (a < b) edges, pre-combined per group, then one hash exchange on the
    edge key and a per-group C(t,2) fold; the caller sums the P folds.
    The exchange is O(#triangle edges), never all-pairs."""
    P = num_partitions

    def edge_rows(u, v, w) -> pa.Table:
        lo = np.concatenate([np.minimum(u, v), np.minimum(u, w), np.minimum(v, w)])
        hi = np.concatenate([np.maximum(u, v), np.maximum(u, w), np.maximum(v, w)])
        lo, hi, t = _pair_sums(lo, hi, np.ones(len(lo), np.int64))
        return pa.table(
            {
                "epart": pa.array(part_of(lo * np.int64(1_000_003) + hi, P), pa.int32()),
                "lo": pa.array(lo, pa.int64()),
                "hi": pa.array(hi, pa.int64()),
                "t": pa.array(t, pa.int64()),
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        _, _, t = _pair_sums(_np(tbl, "lo"), _np(tbl, "hi"), _np(tbl, "t"))
        return pa.table({"d": pa.array([int((t * (t - 1) // 2).sum())], pa.int64())})

    partials = (
        _triangle_partials(_adjacency(edges_ds, P), P, edge_rows)
        .groupby("epart")
        .map_groups(fold, batch_format="pyarrow")
    )
    return sum(
        int(_np(b, "d").sum())
        for b in partials.iter_batches(batch_format="pyarrow", batch_size=None)
    )
