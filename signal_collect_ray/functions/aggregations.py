"""Aggregation operators — the reference's global query surface.

The reference runs every aggregation as a two-phase worker-local →
coordinator merge (``/root/reference/src/main/scala/com/signalcollect/
interfaces/AggregationOperation.scala:27-59``), which is exactly Ray
Data's partial+final aggregate; each wrapper below names the reference
operator it rebuilds (``AggregationOperations.scala``).

All functions take a Dataset with a ``state`` column (the engine's
vertex-state checkpoint, ``ExecutionInformation.final_state_ds()``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np
import pyarrow as pa


def sum_of_states(state_ds) -> float:
    """SumOfStates[N] (AggregationOperations.scala:66-75)."""
    from ray.data.aggregate import Sum

    row = state_ds.aggregate(Sum("state", alias_name="s"))
    return float(row["s"]) if row and row["s"] is not None else 0.0


def product_of_states(state_ds) -> float:
    """ProductOfStates[N] (AggregationOperations.scala:80-89) — partial
    product per block, final product on the driver (sum of logs is not
    used to preserve signs/zeros exactly)."""

    def partial(tbl: pa.Table) -> pa.Table:
        p = float(np.prod(tbl.column("state").to_numpy(zero_copy_only=False)))
        return pa.table({"p": pa.array([p], pa.float64())})

    parts = state_ds.map_batches(partial, batch_format="pyarrow").take_all()
    out = 1.0
    for r in parts:
        out *= r["p"]
    return out


def count_vertices(state_ds, predicate: Optional[Callable] = None) -> int:
    """CountVertices[T] (AggregationOperations.scala:113-132). The
    reference filters by runtime vertex type; here by an optional
    vectorized predicate over the state table."""
    if predicate is None:
        return state_ds.count()

    def partial(tbl: pa.Table) -> pa.Table:
        mask = np.asarray(predicate(tbl), dtype=bool)
        return pa.table({"c": pa.array([int(mask.sum())], pa.int64())})

    parts = state_ds.map_batches(partial, batch_format="pyarrow").take_all()
    return int(sum(r["c"] for r in parts))


def sample_vertex_ids(state_ds, n: int) -> list:
    """SampleVertexIds (AggregationOperations.scala:94-106) — first-n."""
    return [r["vid"] for r in state_ds.select_columns(["vid"]).limit(n).take_all()]


def top_k(state_ds, k: int, descending: bool = True):
    """TopKFinder(k) (AggregationOperations.scala:193-236) — exact top-k
    by state. Per-block partial top-k before the global sort bounds the
    shuffle to k rows per block."""

    def partial(tbl: pa.Table) -> pa.Table:
        s = tbl.column("state").to_numpy(zero_copy_only=False)
        if len(s) <= k:
            return tbl
        if descending:
            idx = np.argpartition(-s, k - 1)[:k]
        else:
            idx = np.argpartition(s, k - 1)[:k]
        return tbl.take(pa.array(np.sort(idx), pa.int64()))

    pruned = state_ds.map_batches(partial, batch_format="pyarrow")
    return pruned.sort("state", descending=descending).limit(k)


class _GroupTopK:
    """Keep the top-k rows per group under a total order (order_col
    desc/asc, then id_col asc) — used both as the per-block combiner and
    as the per-group finalizer, so the pruned union provably contains
    the global per-group top-k."""

    __name__ = "_GroupTopK"

    def __init__(self, group_col, order_col, id_col, k, descending):
        self.group_col, self.order_col, self.id_col = group_col, order_col, id_col
        self.k, self.descending = k, descending

    def __call__(self, tbl: pa.Table) -> pa.Table:
        if tbl.num_rows <= self.k:
            return tbl
        v = tbl.column(self.order_col).to_numpy(zero_copy_only=False)
        ids = tbl.column(self.id_col).to_numpy(zero_copy_only=False)
        g = tbl.column(self.group_col).to_numpy(zero_copy_only=False)
        if ids.dtype == object:
            # string tie-break: factorize — np.unique returns lexically
            # sorted uniques, so the codes preserve the string order
            _, ids = np.unique(ids.astype(str), return_inverse=True)
        _, gcode = np.unique(g.astype(str) if g.dtype == object else g,
                             return_inverse=True)
        # lexsort: last key is primary → group, then value, then id
        order = np.lexsort((ids, -v if self.descending else v, gcode))
        gsorted = gcode[order]
        starts = np.flatnonzero(np.r_[True, gsorted[1:] != gsorted[:-1]])
        rank = np.arange(len(order)) - np.repeat(
            starts, np.diff(np.r_[starts, len(order)])
        )
        keep = order[rank < self.k]
        return tbl.take(pa.array(np.sort(keep), pa.int64()))


def grouped_top_k(
    ds,
    group_col: str,
    order_col: str,
    id_col: str,
    k: int,
    descending: bool = True,
):
    """Exact top-k rows per group (the per-language / per-host / per-
    bucket selection every curation pipeline needs). Two stages: a
    stateless per-block partial top-k (bounds the shuffle to k rows per
    group per block), then one groupby(group_col) finalizer. Ties break
    by id_col ascending, so results are deterministic and exactly
    mirror a SQL ROW_NUMBER() window."""
    kern = _GroupTopK(group_col, order_col, id_col, k, descending)
    pruned = ds.map_batches(kern, batch_format="pyarrow")
    return pruned.groupby(group_col).map_groups(kern, batch_format="pyarrow")


def exact_quantiles_int(ds, col: str, qs):
    """EXACT quantiles of an integer-valued column without a global
    sort: each block reduces to a (value → count) histogram (map_batches
    combiner), histograms merge on the driver (vocabulary = distinct
    values, tiny for bounded metrics like word counts), and the q-th
    quantile is the order statistic at rank ceil(q·n) over the merged
    cdf. At 100 TB this moves only per-block histograms — bytes per
    distinct value — instead of shuffling every row to sort.

    Returns a list of (q, value) in the order given."""

    def hist(tbl: pa.Table) -> pa.Table:
        v = tbl.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(v, return_counts=True)
        return pa.table(
            {"value": pa.array(u, pa.int64()), "cnt": pa.array(c, pa.int64())}
        )

    parts = ds.map_batches(hist, batch_format="pyarrow").take_all()
    agg: dict = {}
    for r in parts:
        agg[r["value"]] = agg.get(r["value"], 0) + r["cnt"]
    values = np.array(sorted(agg), dtype=np.int64)
    counts = np.array([agg[v] for v in values], dtype=np.int64)
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    out = []
    for q in qs:
        if n == 0:
            out.append((q, None))
            continue
        rank = max(int(np.ceil(q * n)), 1)
        out.append((q, int(values[np.searchsorted(cum, rank)])))
    return out


def grouped_quantiles_int(ds, group_col: str, col: str, qs):
    """Per-group EXACT quantiles of an integer column — the grouped
    sibling of exact_quantiles_int. Per block: one (group, value) →
    count histogram (np.unique over a composite view); one
    groupby(group) exchange merges histograms and reads the order
    statistics off the cumulative counts. Shuffle volume is
    O(distinct (group, value) pairs per block), never O(rows).

    Returns a Dataset of (group_col, q, value) rows."""
    qs = list(qs)

    def hist(tbl: pa.Table) -> pa.Table:
        g = tbl.column(group_col).to_numpy(zero_copy_only=False)
        v = tbl.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        ug, ginv = np.unique(
            g.astype(str) if g.dtype == object else g, return_inverse=True
        )
        out_g, out_v, out_c = [], [], []
        # per-block distinct groups are few (languages, labels) — the
        # value histogram inside each stays vectorized
        for i, gu in enumerate(ug):
            u, c = np.unique(v[ginv == i], return_counts=True)
            out_g.extend([gu] * len(u))
            out_v.append(u)
            out_c.append(c)
        return pa.table(
            {
                group_col: pa.array(out_g),
                "value": pa.array(
                    np.concatenate(out_v) if out_v else np.array([], np.int64),
                    pa.int64(),
                ),
                "cnt": pa.array(
                    np.concatenate(out_c) if out_c else np.array([], np.int64),
                    pa.int64(),
                ),
            }
        )

    class _GroupQuantiles:
        __name__ = "_GroupQuantiles"

        def __call__(self, tbl: pa.Table) -> pa.Table:
            v = tbl.column("value").to_numpy(zero_copy_only=False)
            c = tbl.column("cnt").to_numpy(zero_copy_only=False)
            gval = tbl.column(group_col)[0].as_py()
            order = np.argsort(v, kind="stable")
            vv, cc = v[order], c[order]
            # merge duplicate values from different blocks
            uu, starts = np.unique(vv, return_index=True)
            sums = np.add.reduceat(cc, starts)
            cum = np.cumsum(sums)
            n = int(cum[-1])
            out_v = []
            for q in qs:
                rank = max(int(np.ceil(q * n)), 1)
                out_v.append(int(uu[np.searchsorted(cum, rank)]))
            return pa.table(
                {
                    group_col: pa.array([gval] * len(qs)),
                    "q": pa.array(qs, pa.float64()),
                    "value": pa.array(out_v, pa.int64()),
                }
            )

    return (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(_GroupQuantiles(), batch_format="pyarrow")
    )


def id_state_map(state_ds) -> dict:
    """IdStateMapAggregator (AggregationOperations.scala:55-61) —
    materializes id→state on the driver; small graphs/tests only (the
    reference carries the same caveat)."""
    return {
        r["vid"]: r["state"]
        for r in state_ds.select_columns(["vid", "state"]).take_all()
    }


def map_reduce(
    state_ds,
    map_fn: Callable[[pa.Table], np.ndarray],
    reduce_fn: Callable[[np.ndarray], Any],
    neutral: Any,
):
    """Graph.mapReduce (Graph.scala:168-188): extract per-vertex values,
    reduce associatively — partial reduce per block, final on driver."""

    def partial(tbl: pa.Table) -> pa.Table:
        vals = np.asarray(map_fn(tbl))
        if len(vals) == 0:
            return pa.table({"v": pa.array([neutral], pa.float64())})
        return pa.table({"v": pa.array([float(reduce_fn(vals))], pa.float64())})

    parts = state_ds.map_batches(partial, batch_format="pyarrow").take_all()
    acc = np.array([r["v"] for r in parts] + [neutral])
    return reduce_fn(acc)


def foreach_vertex(state_ds, fn: Callable[[pa.Table], pa.Table]):
    """Graph.foreachVertex (Graph.scala:126-144) — batchwise transform
    over the vertex table."""
    return state_ds.map_batches(fn, batch_format="pyarrow")


def for_vertex_with_id(state_ds, vid: int) -> Optional[dict]:
    """Graph.forVertexWithId (Graph.scala:109-124) — point lookup."""
    import pyarrow.compute as pc  # noqa: F401

    def flt(tbl: pa.Table) -> pa.Table:
        v = tbl.column("vid").to_numpy(zero_copy_only=False)
        return tbl.take(pa.array(np.flatnonzero(v == vid), pa.int64()))

    rows = state_ds.map_batches(flt, batch_format="pyarrow").take(1)
    return rows[0] if rows else None


def multi_aggregate(state_ds, *aggs):
    """MultiAggregator (AggregationOperations.scala:35-48) — several
    aggregations in one pass via Ray Data multi-agg."""
    return state_ds.aggregate(*aggs)


def top_activity(info, k: int = 5) -> pa.Table:
    """TopActivityAggregator / Timeable rebuild (reference
    ``Timeable.scala:7-66``, ``AggregationOperations`` top-k by
    instrumented per-vertex signal/collect time): the k busiest
    PARTITIONS by cumulative phase wall time across the run's supersteps.

    Granularity deviation, documented: the vectorized engine fuses a
    partition's vertices into one kernel, so time is measured per
    partition per phase (both synchronous executors attribute a worker's
    phase wall to its partitions by vertex count). Returns (part,
    signal_s, collect_s, total_s) descending.
    """
    sig: dict = {}
    col: dict = {}
    for m in getattr(info, "per_step", info):
        for pr in m.get("parts", ()):
            p = int(pr["part"])
            sig[p] = sig.get(p, 0.0) + float(pr.get("signal_s", 0.0))
            col[p] = col.get(p, 0.0) + float(pr.get("collect_s", 0.0))
    parts = sorted(sig, key=lambda p: -(sig[p] + col[p]))[:k]
    return pa.table(
        {
            "part": pa.array(parts, pa.int32()),
            "signal_s": pa.array([sig[p] for p in parts], pa.float64()),
            "collect_s": pa.array([col[p] for p in parts], pa.float64()),
            "total_s": pa.array(
                [sig[p] + col[p] for p in parts], pa.float64()
            ),
        }
    )


def rollup_aggregate(ds, keys, value_col):
    """``GROUP BY ROLLUP(keys...)`` with COUNT(*) + SUM(value),
    Ray-Data-first: the raw data is aggregated ONCE at the finest level
    (a per-block pandas partial pre-agg bounds the shuffle to distinct
    key combinations per block); every coarser level re-aggregates the
    PREVIOUS level's already-tiny result, so the full rollup cube costs
    one pass over the data plus len(keys) aggregations over aggregates.
    Rolled-up key columns are NULL (the SQL ROLLUP convention — as in
    SQL, a NULL data key at the finest level is indistinguishable from
    a rollup marker, so use non-null keys). Sums round to 6 digits
    (float-mirror convention). Returns keys + (n, sum_val)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    schema = ds.schema()
    key_types = {
        n: schema.types[i] for i, n in enumerate(schema.names) if n in keys
    }

    def partial(tbl: pa.Table) -> pa.Table:
        df = tbl.select(list(keys) + [value_col]).to_pandas()
        g = (
            df.groupby(list(keys), sort=False, dropna=False)[value_col]
            .agg(["size", "sum"])
            .reset_index()
        )
        out = pa.table(
            {
                **{k: pa.array(g[k]).cast(key_types[k]) for k in keys},
                "cnt": pa.array(g["size"].to_numpy(np.int64), pa.int64()),
                "sv": pa.array(g["sum"].to_numpy(np.float64), pa.float64()),
            }
        )
        return out

    def merge(level_keys):
        """one groupby over an (already aggregated) level"""

        def to_level(src_ds):
            if level_keys:
                agg = src_ds.groupby(list(level_keys)).aggregate(
                    Sum("cnt", alias_name="cnt2"), Sum("sv", alias_name="sv2")
                )
            else:

                def tag(tbl: pa.Table) -> pa.Table:
                    return tbl.append_column(
                        "g", pa.array(np.zeros(tbl.num_rows, np.int64))
                    )

                agg = (
                    src_ds.map_batches(tag, batch_format="pyarrow")
                    .groupby("g")
                    .aggregate(
                        Sum("cnt", alias_name="cnt2"),
                        Sum("sv", alias_name="sv2"),
                    )
                )

            def shape(tbl: pa.Table) -> pa.Table:
                n = tbl.num_rows
                cols = {}
                for k in keys:
                    if k in level_keys:
                        cols[k] = tbl.column(k)
                    else:
                        cols[k] = pa.nulls(n, key_types[k])
                cols["cnt"] = tbl.column("cnt2")
                cols["sv"] = tbl.column("sv2")
                return pa.table(cols)

            return agg.map_batches(shape, batch_format="pyarrow")

        return to_level

    finest_partials = ds.map_batches(partial, batch_format="pyarrow")
    levels = [merge(keys)(finest_partials).materialize()]
    for i in range(len(keys) - 1, -1, -1):
        levels.append(merge(keys[:i])(levels[-1]).materialize())

    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)

    def finish(tbl: pa.Table) -> pa.Table:
        sv = np.round(tbl.column("sv").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                **{k: tbl.column(k) for k in keys},
                "n": tbl.column("cnt"),
                "sum_val": pa.array(sv, pa.float64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def grouping_sets_aggregate(ds, keys, value_col, sets):
    """``GROUP BY GROUPING SETS(...)`` with COUNT(*) + SUM(value),
    lattice-derived: the raw data is aggregated ONCE at the full key
    level (per-block pandas partial pre-agg bounds the shuffle to
    distinct key combinations per block); every requested grouping set
    then re-aggregates its smallest ALREADY-COMPUTED superset, so
    coarse cells are aggregates of aggregates and never touch raw rows
    again — the CUBE over a 10^12-row table costs one data pass plus
    tiny exchanges over per-level results. Keys absent from a grouping
    set come back NULL (the SQL convention — use non-null data keys).
    Returns keys + (n, sum_val); sums round to 6 (float-mirror
    convention)."""
    from ray.data.aggregate import Sum

    keys = list(keys)
    # normalize each set to the canonical key order, dedupe, keep order
    norm = []
    for s in sets:
        t = tuple(k for k in keys if k in set(s))
        if t not in norm:
            norm.append(t)
    schema = ds.schema()
    key_types = {
        n: schema.types[i] for i, n in enumerate(schema.names) if n in keys
    }

    def partial(tbl: pa.Table) -> pa.Table:
        df = tbl.select(keys + [value_col]).to_pandas()
        g = (
            df.groupby(keys, sort=False, dropna=False)[value_col]
            .agg(["size", "sum"])
            .reset_index()
        )
        return pa.table(
            {
                **{k: pa.array(g[k]).cast(key_types[k]) for k in keys},
                "cnt": pa.array(g["size"].to_numpy(np.int64), pa.int64()),
                "sv": pa.array(g["sum"].to_numpy(np.float64), pa.float64()),
            }
        )

    def agg_level(src, level_keys):
        """aggregate an already-partial table down to one grouping set"""
        if level_keys:
            agg = src.groupby(list(level_keys)).aggregate(
                Sum("cnt", alias_name="cnt2"), Sum("sv", alias_name="sv2")
            )
        else:

            def tag(tbl: pa.Table) -> pa.Table:
                return tbl.append_column(
                    "g", pa.array(np.zeros(tbl.num_rows, np.int64))
                )

            agg = (
                src.map_batches(tag, batch_format="pyarrow")
                .groupby("g")
                .aggregate(
                    Sum("cnt", alias_name="cnt2"), Sum("sv", alias_name="sv2")
                )
            )

        def shape(tbl: pa.Table) -> pa.Table:
            n = tbl.num_rows
            cols = {}
            for k in keys:
                if k in level_keys:
                    cols[k] = tbl.column(k)
                else:
                    cols[k] = pa.nulls(n, key_types[k])
            cols["cnt"] = tbl.column("cnt2")
            cols["sv"] = tbl.column("sv2")
            return pa.table(cols)

        return agg.map_batches(shape, batch_format="pyarrow")

    finest = tuple(keys)
    finest_partials = ds.map_batches(partial, batch_format="pyarrow")
    computed = {finest: agg_level(finest_partials, finest).materialize()}
    for s in sorted(set(norm) - {finest}, key=lambda t: (-len(t), t)):
        parent = min(
            (p for p in computed if set(s) <= set(p)),
            key=lambda p: (len(p), p),
        )
        computed[s] = agg_level(computed[parent], s).materialize()

    out = None
    for s in norm:
        out = computed[s] if out is None else out.union(computed[s])

    def finish(tbl: pa.Table) -> pa.Table:
        sv = np.round(tbl.column("sv").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                **{k: tbl.column(k) for k in keys},
                "n": tbl.column("cnt"),
                "sum_val": pa.array(sv, pa.float64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def cube_aggregate(ds, keys, value_col):
    """``GROUP BY CUBE(keys...)`` — all 2^k grouping sets, derived from
    the single finest aggregation via :func:`grouping_sets_aggregate`'s
    lattice (each level re-aggregates its smallest computed superset)."""
    from itertools import combinations

    keys = list(keys)
    sets = [
        combo
        for r in range(len(keys), -1, -1)
        for combo in combinations(keys, r)
    ]
    return grouping_sets_aggregate(ds, keys, value_col, sets)


def profile_columns(ds, cols):
    """Data-profiling sweep over a table — per column: row count, null
    count, exact distinct count, and (numeric columns) min/max. The
    schema-quality pass every ingestion pipeline runs before training
    jobs touch a new crawl drop.

    Scale shape: ONE vectorized ``map_batches`` pass emits (a) tiny
    per-block stat partials folded on the driver and (b) per-block
    DISTINCT (col, value) rows — so the only exchange is a dedup
    ``groupby`` over distinct values (the exact-distinct lower bound;
    the HLL ``approx_distinct`` in sketches.py is the sub-exchange
    alternative at 10^12 rows). Numeric values travel in a float64
    column, strings in a string column (one is null), keeping the
    dedup key typed without per-column passes.

    Returns a pyarrow Table (column, n_rows, n_nulls, n_distinct,
    min_val, max_val) — min/max null for non-numeric columns."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    cols = list(cols)

    def partial(tbl: pa.Table) -> pa.Table:
        out_col, out_num, out_str = [], [], []
        stats = []
        for ci, c in enumerate(cols):
            arr = tbl.column(c).combine_chunks()
            n = len(arr)
            n_null = arr.null_count
            is_num = pa.types.is_integer(arr.type) or pa.types.is_floating(
                arr.type
            )
            if is_num:
                v = arr.drop_null().to_numpy(zero_copy_only=False).astype(
                    np.float64
                )
                u = np.unique(v)
                out_col.extend([ci] * len(u))
                out_num.extend(u.tolist())
                # sentinel "" (never null): Ray's groupby does not merge
                # null keys across partitions
                out_str.extend([""] * len(u))
                mn = float(u[0]) if len(u) else np.nan
                mx = float(u[-1]) if len(u) else np.nan
            else:
                u = pc.unique(arr.drop_null().cast(pa.string())).to_pylist()
                out_col.extend([ci] * len(u))
                out_num.extend([0.0] * len(u))  # sentinel, see above
                out_str.extend(u)
                mn = mx = np.nan
            stats.append((ci, n, n_null, mn, mx))
        t1 = pa.table(
            {
                "kind": pa.array(["v"] * len(out_col), pa.string()),
                "ci": pa.array(out_col, pa.int32()),
                "vn": pa.array(out_num, pa.float64()),
                "vs": pa.array(out_str, pa.string()),
                "n": pa.array([0] * len(out_col), pa.int64()),
                "nn": pa.array([0] * len(out_col), pa.int64()),
                "mn": pa.array([np.nan] * len(out_col), pa.float64()),
                "mx": pa.array([np.nan] * len(out_col), pa.float64()),
            }
        )
        t2 = pa.table(
            {
                "kind": pa.array(["s"] * len(stats), pa.string()),
                "ci": pa.array([s[0] for s in stats], pa.int32()),
                "vn": pa.array([np.nan] * len(stats), pa.float64()),
                "vs": pa.array([None] * len(stats), pa.string()),
                "n": pa.array([s[1] for s in stats], pa.int64()),
                "nn": pa.array([s[2] for s in stats], pa.int64()),
                "mn": pa.array([s[3] for s in stats], pa.float64()),
                "mx": pa.array([s[4] for s in stats], pa.float64()),
            }
        )
        return pa.concat_tables([t1, t2])

    mixed = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow"
    ).materialize()

    # distinct counts: dedup the value rows, count per column
    distinct = (
        mixed.filter(expr="kind == 'v'")
        .groupby(["ci", "vn", "vs"])
        .aggregate(Count(alias_name="_c"))
        .groupby("ci")
        .aggregate(Count(alias_name="n_distinct"))
        .take_all()
    )
    nd = {r["ci"]: r["n_distinct"] for r in distinct}

    # stat partials: tiny, fold on the driver
    n = np.zeros(len(cols), dtype=np.int64)
    nn = np.zeros(len(cols), dtype=np.int64)
    mn = np.full(len(cols), np.nan)
    mx = np.full(len(cols), np.nan)
    for b in mixed.filter(expr="kind == 's'").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for r in b.to_pylist():
            ci = r["ci"]
            n[ci] += r["n"]
            nn[ci] += r["nn"]
            if r["mn"] is not None and not np.isnan(r["mn"]):
                mn[ci] = r["mn"] if np.isnan(mn[ci]) else min(mn[ci], r["mn"])
                mx[ci] = r["mx"] if np.isnan(mx[ci]) else max(mx[ci], r["mx"])
    return pa.table(
        {
            "column": pa.array(cols, pa.string()),
            "n_rows": pa.array(n, pa.int64()),
            "n_nulls": pa.array(nn, pa.int64()),
            "n_distinct": pa.array(
                [int(nd.get(i, 0)) for i in range(len(cols))], pa.int64()
            ),
            "min_val": pa.array(
                [None if np.isnan(v) else v for v in mn], pa.float64()
            ),
            "max_val": pa.array(
                [None if np.isnan(v) else v for v in mx], pa.float64()
            ),
        }
    )


def functional_dependency(ds, lhs: str, rhs: str):
    """Functional-dependency check lhs → rhs (database dependency
    discovery, public literature): does every lhs value map to exactly
    one rhs value? The data-quality probe behind key-candidate
    detection and denormalization audits.

    Scale shape: per-block DISTINCT (lhs, rhs) projection (Arrow hash
    group-by), ONE dedup ``groupby`` over distinct pairs, then a
    per-lhs distinct-rhs count folded to three numbers. Nothing
    driver-side scales with rows.

    Returns a one-row pyarrow Table (n_lhs, n_violating_lhs, holds)."""
    from ray.data.aggregate import Count

    def pairs(tbl: pa.Table) -> pa.Table:
        # null lhs/rhs rows are excluded (nulls would also defeat the
        # distributed groupby: Ray does not merge null keys across
        # partitions — same caveat as profile_columns)
        d = tbl.select([lhs, rhs]).drop_null().combine_chunks().group_by(
            [lhs, rhs]
        ).aggregate([])
        return d.rename_columns(["l", "r"])

    per_lhs = (
        ds.select_columns([lhs, rhs])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["l", "r"])
        .aggregate(Count(alias_name="_c"))
        .groupby("l")
        .aggregate(Count(alias_name="n_rhs"))
    )

    def fold(tbl: pa.Table) -> pa.Table:
        n_rhs = tbl.column("n_rhs").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_lhs": pa.array([len(n_rhs)], pa.int64()),
                "n_violating_lhs": pa.array(
                    [int((n_rhs > 1).sum())], pa.int64()
                ),
            }
        )

    rows = per_lhs.map_batches(fold, batch_format="pyarrow").take_all()
    n_lhs = sum(r["n_lhs"] for r in rows)
    n_bad = sum(r["n_violating_lhs"] for r in rows)
    return pa.table(
        {
            "n_lhs": pa.array([n_lhs], pa.int64()),
            "n_violating_lhs": pa.array([n_bad], pa.int64()),
            "holds": pa.array([n_bad == 0], pa.bool_()),
        }
    )


def exact_quantiles_cont(ds, col: str, qs, scale: int = 100):
    """EXACT linearly-interpolated quantiles (SQL ``quantile_cont`` /
    numpy 'linear') of a fixed-point-scalable numeric column, without a
    global sort: values scale to int64 (``scale`` = 100 for 2-decimal
    money columns), per-block counting histograms merge on the driver
    (the same mergeable shape as ``exact_quantiles_int``), and each
    quantile interpolates between the order statistics at
    floor/ceil of rank = q·(n−1) (0-based — the quantile_cont
    convention). Returns [(q, value)] with values unscaled and rounded
    to 6."""

    def hist(tbl: pa.Table) -> pa.Table:
        v = tbl.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        vi = np.round(v * scale).astype(np.int64)
        u, c = np.unique(vi, return_counts=True)
        return pa.table(
            {"value": pa.array(u, pa.int64()), "cnt": pa.array(c, pa.int64())}
        )

    parts = ds.select_columns([col]).map_batches(
        hist, batch_format="pyarrow"
    ).take_all()
    agg: dict = {}
    for r in parts:
        agg[r["value"]] = agg.get(r["value"], 0) + r["cnt"]
    values = np.array(sorted(agg), dtype=np.int64)
    counts = np.array([agg[v] for v in values], dtype=np.int64)
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    out = []
    for q in qs:
        if n == 0:
            out.append((q, None))
            continue
        rank = q * (n - 1)  # 0-based fractional rank
        lo_i = int(np.floor(rank))
        hi_i = min(lo_i + 1, n - 1)
        frac = rank - lo_i
        v_lo = values[np.searchsorted(cum, lo_i + 1)] / scale
        v_hi = values[np.searchsorted(cum, hi_i + 1)] / scale
        out.append((q, round(v_lo + frac * (v_hi - v_lo), 6)))
    return out
