"""Co-citation analysis — "related pages" over a directed link graph.

Two pages are co-cited when a common source links to both; the
co-citation count (number of shared in-link sources) is the classic
related-page / similar-host signal on web graphs (Small 1973; Dean &
Henzinger 1999 — public literature). The reference has no such
operator; it belongs to the link-graph analytics surface the north rule
targets alongside triangles (whose pair-enumeration shape it shares —
``ClusteringCoefficient.scala:24-47`` is the nearest reference anchor).

Shape: one hash-partitioned ``groupby(spart)`` co-locates each source's
out-neighborhood (ONE kernel call per partition, not per source);
pairs are emitted vectorized (``np.triu_indices`` per distinct segment
length over the sorted dst segments) and routed by a 64-bit PAIR HASH
— the hash only
partitions, counting inside each partition is exact over the (id_a,
id_b) columns, so arbitrary int64 ids (hashed url vids) are supported
with no collision risk. A per-partition top-k prune bounds what reaches
the driver to k rows per partition.

Skew: a source with out-degree d emits O(d²) pairs — the same hub
blow-up triangles handles by degree orientation. ``max_out_degree``
caps it: over-cap sources keep their lexically-smallest ``cap`` dsts
(deterministic, documented truncation — set None for exact small-scale
runs and SQL parity).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from signal_collect_ray.algorithms.triangles import _np
from signal_collect_ray.util import pair_hash, part_of


def _pairs_from_partition(max_out_degree, num_partitions):
    """One spart group (MANY sources) → co-citation pair rows. No
    per-source Python: sources are ragged segments of the (src, dst)
    sort; segments sharing a length L emit through ONE
    ``np.triu_indices(L)`` broadcast (distinct segment lengths are few
    hundred at most, each handled with whole-array gathers)."""

    def emit(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "gpart": pa.array([], pa.int32()),
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
            }
        )
        s, d = _np(tbl, "src"), _np(tbl, "dst")
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        # drop duplicate (src, dst) rows (sorted ⇒ adjacent)
        first = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
        s, d = s[first], d[first]
        if len(s) < 2:
            return empty
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        lens = np.diff(np.r_[starts, len(s)])
        if max_out_degree is not None:
            rank = np.arange(len(s)) - np.repeat(starts, lens)
            keep = rank < max_out_degree
            s, d = s[keep], d[keep]
            starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
            lens = np.diff(np.r_[starts, len(s)])
        ia_all, ib_all = [], []
        for L in np.unique(lens):
            if L < 2:
                continue
            segs = starts[lens == L]
            mat = d[segs[:, None] + np.arange(L)]
            ai, bi = np.triu_indices(int(L), k=1)
            ia_all.append(mat[:, ai].ravel())
            ib_all.append(mat[:, bi].ravel())
        if not ia_all:
            return empty
        ia = np.concatenate(ia_all).astype(np.int64)
        ib = np.concatenate(ib_all).astype(np.int64)
        gp = part_of(pair_hash(ia, ib).view(np.int64), num_partitions)
        return pa.table(
            {
                "gpart": pa.array(gp, pa.int32()),
                "id_a": pa.array(ia, pa.int64()),
                "id_b": pa.array(ib, pa.int64()),
            }
        )

    return emit


def _weighted_pairs_from_partition(max_out_degree, num_partitions):
    """Adamic–Adar variant of ``_pairs_from_partition``: every pair a
    source emits carries weight 1/ln(outdeg(source)) — rare co-citing
    sources count more than hub directories (Adamic & Adar 2003,
    'Friends and neighbors on the Web' — public literature). The
    weight uses the TRUE deduplicated out-degree even when
    ``max_out_degree`` truncates emission (documented approximation,
    None = exact)."""

    def emit(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "gpart": pa.array([], pa.int32()),
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "w": pa.array([], pa.float64()),
            }
        )
        s, d = _np(tbl, "src"), _np(tbl, "dst")
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        first = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
        s, d = s[first], d[first]
        if len(s) < 2:
            return empty
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        lens = np.diff(np.r_[starts, len(s)])
        true_lens = lens
        if max_out_degree is not None:
            rank = np.arange(len(s)) - np.repeat(starts, lens)
            keep = rank < max_out_degree
            s, d = s[keep], d[keep]
            starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
            true_lens = true_lens[true_lens > 0]
            lens = np.diff(np.r_[starts, len(s)])
        ia_all, ib_all, w_all = [], [], []
        for L in np.unique(lens):
            if L < 2:
                continue
            seg_mask = lens == L
            segs = starts[seg_mask]
            mat = d[segs[:, None] + np.arange(L)]
            ai, bi = np.triu_indices(int(L), k=1)
            ia_all.append(mat[:, ai].ravel())
            ib_all.append(mat[:, bi].ravel())
            w_all.append(
                np.repeat(1.0 / np.log(true_lens[seg_mask]), len(ai))
            )
        if not ia_all:
            return empty
        ia = np.concatenate(ia_all).astype(np.int64)
        ib = np.concatenate(ib_all).astype(np.int64)
        w = np.concatenate(w_all)
        gp = part_of(pair_hash(ia, ib).view(np.int64), num_partitions)
        return pa.table(
            {
                "gpart": pa.array(gp, pa.int32()),
                "id_a": pa.array(ia, pa.int64()),
                "id_b": pa.array(ib, pa.int64()),
                "w": pa.array(w, pa.float64()),
            }
        )

    return emit


def adamic_adar_top_pairs(
    edges_ds,
    k: int = 20,
    max_out_degree=None,
    num_partitions: int = 64,
):
    """Top-k page pairs by Adamic–Adar score over shared in-link
    sources: AA(a,b) = Σ_{s links both} 1/ln(outdeg(s)) — the classic
    link-prediction / related-page ranking that discounts directory
    hubs. Same two-exchange shape as ``cocitation_top_pairs`` (the
    source's full out-neighborhood is co-located by the ``spart``
    groupby, so the true out-degree — and hence the weight — is exact
    inside the kernel with no degree join); the pair hash routes every
    instance of a pair to one partition, so the per-partition sum and
    top-k prune are exact. Scores round to 6 digits BEFORE the prune so
    the SQL mirror decides every boundary row identically; ties break
    (id_a, id_b) ascending. Returns a pyarrow Table (id_a, id_b, aa)."""

    def sum_and_prune(tbl: pa.Table) -> pa.Table:
        a = _np(tbl, "id_a")
        b = _np(tbl, "id_b")
        w = tbl.column("w").to_numpy(zero_copy_only=False)
        pairs = np.stack([a, b], axis=1)
        u, inv = np.unique(pairs, axis=0, return_inverse=True)
        s = np.zeros(len(u))
        np.add.at(s, inv, w)
        s = np.round(s, 6)
        if len(u) > k:
            order = np.lexsort((u[:, 1], u[:, 0], -s))[:k]
            u, s = u[order], s[order]
        return pa.table(
            {
                "id_a": pa.array(u[:, 0], pa.int64()),
                "id_b": pa.array(u[:, 1], pa.int64()),
                "aa": pa.array(s, pa.float64()),
            }
        )

    def add_spart(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "spart",
            pa.array(part_of(_np(tbl, "src"), num_partitions), pa.int32()),
        )

    pairs = (
        edges_ds.map_batches(add_spart, batch_format="pyarrow")
        .groupby("spart")
        .map_groups(
            _weighted_pairs_from_partition(max_out_degree, num_partitions),
            batch_format="pyarrow",
        )
    )
    top = (
        pairs.groupby("gpart")
        .map_groups(sum_and_prune, batch_format="pyarrow")
        .take_all()
    )
    top.sort(key=lambda r: (-r["aa"], r["id_a"], r["id_b"]))
    top = top[:k]
    return pa.table(
        {
            "id_a": pa.array([r["id_a"] for r in top], pa.int64()),
            "id_b": pa.array([r["id_b"] for r in top], pa.int64()),
            "aa": pa.array([r["aa"] for r in top], pa.float64()),
        }
    )


# Above this many vertices the in-degree table is attached by two
# co-partitioned joins instead of broadcast (same threshold rationale as
# triangles.BROADCAST_DEGREE_LIMIT: 20M (vid, deg) int64 pairs ≈ 320 MB
# ray.put once, zero-copy per task).
BROADCAST_INDEG_LIMIT = 20_000_000


def _in_degrees(edges_ds, num_partitions: int = 64):
    """Distinct in-degree per dst: (vid:int64, deg:int64). Exact under
    duplicate input edges — in-batch pre-dedup, then exact dedup + count
    co-partitioned by hash(dst) (equal (src, dst) rows share the key)."""

    def partial(tbl: pa.Table) -> pa.Table:
        s, d = _np(tbl, "src"), _np(tbl, "dst")
        pairs = np.unique(np.stack([d, s], axis=1), axis=0)
        return pa.table(
            {
                "dpart": pa.array(
                    part_of(pairs[:, 0], num_partitions), pa.int32()
                ),
                "dst": pa.array(pairs[:, 0], pa.int64()),
                "src": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def count(tbl: pa.Table) -> pa.Table:
        d, s = _np(tbl, "dst"), _np(tbl, "src")
        pairs = np.unique(np.stack([d, s], axis=1), axis=0)
        vid, idx = np.unique(pairs[:, 0], return_index=True)
        deg = np.diff(np.r_[idx, len(pairs)])
        return pa.table(
            {
                "vid": pa.array(vid, pa.int64()),
                "deg": pa.array(deg.astype(np.int64), pa.int64()),
            }
        )

    return (
        edges_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("dpart")
        .map_groups(count, batch_format="pyarrow")
    )


def jaccard_top_pairs(
    edges_ds,
    k: int = 20,
    max_out_degree=None,
    num_partitions: int = 64,
):
    """Top-k page pairs by Jaccard similarity of their in-link source
    sets: J(a,b) = |N_in(a) ∩ N_in(b)| / |N_in(a) ∪ N_in(b)| — the
    degree-normalized sibling of co-citation (link prediction baseline,
    Liben-Nowell & Kleinberg 2003 — public literature). Same
    two-exchange pair machinery as ``cocitation_top_pairs`` (the pair
    hash routes every instance of a pair to one partition, so the
    per-partition common-count is exact); the union size comes from the
    distinct in-degrees, broadcast once below ``BROADCAST_INDEG_LIMIT``
    vertices and attached by two co-partitioned joins above it. Scores
    round to 6 digits BEFORE the per-block top-k prune (each unique pair
    exists on exactly one row after the count, so per-block top-k +
    driver merge is exact); ties break (id_a, id_b) ascending. Returns
    a pyarrow Table (id_a, id_b, jac)."""
    import ray

    def count_exact(tbl: pa.Table) -> pa.Table:
        a, b = _np(tbl, "id_a"), _np(tbl, "id_b")
        pairs = np.stack([a, b], axis=1)
        u, c = np.unique(pairs, axis=0, return_counts=True)
        return pa.table(
            {
                "id_a": pa.array(u[:, 0], pa.int64()),
                "id_b": pa.array(u[:, 1], pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    def add_spart(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "spart",
            pa.array(part_of(_np(tbl, "src"), num_partitions), pa.int32()),
        )

    counts = (
        edges_ds.map_batches(add_spart, batch_format="pyarrow")
        .groupby("spart")
        .map_groups(
            _pairs_from_partition(max_out_degree, num_partitions),
            batch_format="pyarrow",
        )
        .groupby("gpart")
        .map_groups(count_exact, batch_format="pyarrow")
    )

    degs = _in_degrees(edges_ds, num_partitions).materialize()
    n_vertices = degs.count()
    if n_vertices <= BROADCAST_INDEG_LIMIT:
        dt = pa.concat_tables(
            list(degs.iter_batches(batch_format="pyarrow", batch_size=None))
        ).sort_by("vid")
        deg_ref = ray.put(
            (
                dt.column("vid").combine_chunks().to_numpy(),
                dt.column("deg").combine_chunks().to_numpy(),
            )
        )

        def score_prune(tbl: pa.Table) -> pa.Table:
            vid, deg = ray.get(deg_ref)
            a, b = _np(tbl, "id_a"), _np(tbl, "id_b")
            n = _np(tbl, "n").astype(np.float64)
            da = deg[np.searchsorted(vid, a)].astype(np.float64)
            db = deg[np.searchsorted(vid, b)].astype(np.float64)
            jac = np.round(n / (da + db - n), 6)
            if len(a) > k:
                order = np.lexsort((b, a, -jac))[:k]
                a, b, jac = a[order], b[order], jac[order]
            return pa.table(
                {
                    "id_a": pa.array(a, pa.int64()),
                    "id_b": pa.array(b, pa.int64()),
                    "jac": pa.array(jac, pa.float64()),
                }
            )

        scored = counts.map_batches(score_prune, batch_format="pyarrow")
    else:
        from signal_collect_ray.functions.joins import _attach

        with_da = _attach(
            counts, "id_a", degs.rename_columns(["vid", "deg_a"]), "vid",
            ["deg_a"], num_partitions,
        )
        with_db = _attach(
            with_da, "id_b", degs.rename_columns(["vid", "deg_b"]), "vid",
            ["deg_b"], num_partitions,
        )

        def score_prune_joined(tbl: pa.Table) -> pa.Table:
            a, b = _np(tbl, "id_a"), _np(tbl, "id_b")
            n = _np(tbl, "n").astype(np.float64)
            da = _np(tbl, "deg_a").astype(np.float64)
            db = _np(tbl, "deg_b").astype(np.float64)
            jac = np.round(n / (da + db - n), 6)
            if len(a) > k:
                order = np.lexsort((b, a, -jac))[:k]
                a, b, jac = a[order], b[order], jac[order]
            return pa.table(
                {
                    "id_a": pa.array(a, pa.int64()),
                    "id_b": pa.array(b, pa.int64()),
                    "jac": pa.array(jac, pa.float64()),
                }
            )

        scored = with_db.map_batches(score_prune_joined, batch_format="pyarrow")

    top = scored.take_all()
    top.sort(key=lambda r: (-r["jac"], r["id_a"], r["id_b"]))
    top = top[:k]
    return pa.table(
        {
            "id_a": pa.array([r["id_a"] for r in top], pa.int64()),
            "id_b": pa.array([r["id_b"] for r in top], pa.int64()),
            "jac": pa.array([r["jac"] for r in top], pa.float64()),
        }
    )


def cocitation_top_pairs(
    edges_ds,
    k: int = 20,
    max_out_degree=None,
    num_partitions: int = 64,
):
    """Top-k page pairs by co-citation count. Returns a pyarrow Table
    (id_a, id_b, n) ordered by (n desc, id_a asc, id_b asc) — the
    deterministic total order a SQL ROW_NUMBER mirror reproduces."""

    def count_and_prune(tbl: pa.Table) -> pa.Table:
        a = _np(tbl, "id_a")
        b = _np(tbl, "id_b")
        pairs = np.stack([a, b], axis=1)
        u, c = np.unique(pairs, axis=0, return_counts=True)
        if len(u) > k:
            order = np.lexsort((u[:, 1], u[:, 0], -c))[:k]
            u, c = u[order], c[order]
        return pa.table(
            {
                "id_a": pa.array(u[:, 0], pa.int64()),
                "id_b": pa.array(u[:, 1], pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    def add_spart(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "spart",
            pa.array(part_of(_np(tbl, "src"), num_partitions), pa.int32()),
        )

    pairs = (
        edges_ds.map_batches(add_spart, batch_format="pyarrow")
        .groupby("spart")
        .map_groups(
            _pairs_from_partition(max_out_degree, num_partitions),
            batch_format="pyarrow",
        )
    )
    top = (
        pairs.groupby("gpart")
        .map_groups(count_and_prune, batch_format="pyarrow")
        .take_all()
    )
    top.sort(key=lambda r: (-r["n"], r["id_a"], r["id_b"]))
    top = top[:k]
    return pa.table(
        {
            "id_a": pa.array([r["id_a"] for r in top], pa.int64()),
            "id_b": pa.array([r["id_b"] for r in top], pa.int64()),
            "n": pa.array([r["n"] for r in top], pa.int64()),
        }
    )
