"""Temporal joins Ray Data lacks natively.

``asof_join``: for each left row, attach the right row with the same
``by`` key and the greatest ``on`` value ≤ the left's (backward as-of —
the attribution / point-in-time-feature join every event pipeline
needs). Built from primitives the engine already trusts at scale:

* ONE hash exchange — both sides are tagged and unioned, then a single
  ``groupby(by)`` co-partitions each key's rows (the same shape as
  ``dedup.drop_ids``'s anti-join; no broadcast, no driver state),
* a fully vectorized per-key merge kernel (sort the right side once,
  ``np.searchsorted`` every left timestamp into it).

Skew bound: the hottest single ``by`` key's row count (both sides) must
fit one task — inherent to any per-key as-of; salt upstream if a key is
truly degenerate. Ties on ``on`` within a key are resolved to the last
row in sort order; the driver-facing query avoids ties entirely (the
events table has microsecond timestamps).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from signal_collect_ray.util import part_of, pin_schema

_SIDE = "__asof_side"


class _AsofMerge:
    """One ``by`` key's co-partitioned rows → left rows + as-of values."""

    __name__ = "_AsofMerge"

    def __init__(self, on: str, left_cols: list, value_cols: list, suffix: str):
        self.on = on
        self.left_cols = left_cols
        self.value_cols = value_cols
        self.suffix = suffix

    def __call__(self, tbl: pa.Table) -> pa.Table:
        side = tbl.column(_SIDE).to_numpy(zero_copy_only=False)
        on_vals = tbl.column(self.on).to_numpy(zero_copy_only=False)
        left_mask = side == 0
        left = tbl.filter(pa.array(left_mask)).select(self.left_cols)
        out_cols = {c: left.column(c) for c in self.left_cols}
        r_on = on_vals[~left_mask]
        order = np.argsort(r_on, kind="stable")
        r_on = r_on[order]
        l_on = on_vals[left_mask]
        # greatest right.on <= left.on; -1 = no match (stays null)
        idx = np.searchsorted(r_on, l_on, side="right") - 1
        ok = idx >= 0
        right = tbl.filter(pa.array(~left_mask))
        for c in self.value_cols:
            rv = right.column(c).to_numpy(zero_copy_only=False)[order]
            if len(rv):
                vals = np.where(ok, rv[np.maximum(idx, 0)], np.nan)
            else:
                # a key with left rows but NO right rows: every left row
                # is unmatched (gathering from the empty array would
                # IndexError — np.where evaluates its branches eagerly)
                vals = np.full(len(l_on), np.nan)
            out_cols[f"{c}{self.suffix}"] = pa.array(
                vals, pa.float64(), mask=~ok
            )
        return pa.table(out_cols)


def asof_join(
    left_ds,
    right_ds,
    on: str = "ts_us",
    by: str = "user_id",
    value_cols: Sequence[str] = ("value",),
    suffix: str = "_asof",
):
    """Backward as-of join (see module docstring). ``on`` must be a
    numeric column on both sides (epoch microseconds for timestamps —
    cast upstream so the output hashes identically to a SQL oracle);
    ``value_cols`` are right-side float columns to attach, nullable
    where a left row has no prior right row."""
    value_cols = list(value_cols)
    left_schema = left_ds.schema()
    left_cols = [n for n in left_schema.names]
    for c in value_cols:
        if c in left_cols:
            raise ValueError(
                f"value column {c!r} also exists on the left side — the "
                "tagged union would create duplicate-named columns; drop "
                "or rename it on one side first"
            )
        out_name = f"{c}{suffix}"
        if out_name in left_cols:
            raise ValueError(f"output column {out_name!r} collides with left")

    def tag_left(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        out = tbl.append_column(_SIDE, pa.array(np.zeros(n, np.int8)))
        for c in value_cols:
            out = out.append_column(c, pa.nulls(n, pa.float64()))
        return out

    def tag_right(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        cols = {by: tbl.column(by), on: tbl.column(on)}
        for c in left_cols:
            if c not in cols:
                f = left_schema.base_schema.field(c)
                cols[c] = pa.nulls(n, f.type)
        out = pa.table(cols).append_column(
            _SIDE, pa.array(np.ones(n, np.int8))
        )
        for c in value_cols:
            out = out.append_column(c, tbl.column(c).cast(pa.float64()))
        # column order must match tag_left for the union
        return out.select(left_cols + [_SIDE] + value_cols)

    lt = left_ds.map_batches(tag_left, batch_format="pyarrow")
    rt = right_ds.select_columns(
        [by, on] + [c for c in value_cols]
    ).map_batches(tag_right, batch_format="pyarrow")
    merged = lt.union(rt).groupby(by).map_groups(
        _AsofMerge(on, left_cols, value_cols, suffix),
        batch_format="pyarrow",
    )
    out_schema = pa.schema(
        [left_schema.base_schema.field(c) for c in left_cols]
        + [pa.field(f"{c}{suffix}", pa.float64()) for c in value_cols]
    )
    return pin_schema(merged, out_schema)


_BROADCAST_JOIN_LIMIT = 256 << 20  # bytes; dimension tables only


def broadcast_join(
    left_ds,
    right_ds,
    on: str,
    how: str = "inner",
    max_broadcast_bytes: int = _BROADCAST_JOIN_LIMIT,
):
    """Broadcast hash join — the star-schema (fact ⨝ dimension) join:
    the small right side is materialized ONCE, ``ray.put`` into the
    object store, and every left batch resolves it with a vectorized
    sorted-array ``searchsorted`` lookup. The fact side streams: no
    shuffle, no driver-side row loop, join cost is O(batch · log |dim|).

    Right ``on`` keys must be UNIQUE (dimension semantics — raises
    otherwise, so a fan-out join can't silently duplicate fact rows);
    the right side must fit ``max_broadcast_bytes`` (raises with a
    pointer to the tagged-union co-partition shape used by
    ``asof_join``/``dedup.drop_ids`` for big-big joins). ``how`` is
    ``inner`` or ``left`` (misses null-fill the right columns)."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    right = pa.concat_tables(
        right_ds.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    if right.nbytes > max_broadcast_bytes:
        raise ValueError(
            f"right side is {right.nbytes} bytes > cap {max_broadcast_bytes}; "
            "use a co-partitioned groupby join (asof_join's tagged-union "
            "shape) for big-big joins"
        )
    keys = right.column(on).to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if len(keys) > 1 and (keys[1:] == keys[:-1]).any():
        raise ValueError(f"right side has duplicate join keys on {on!r}")
    right = right.take(pa.array(order, pa.int64()))
    payload_cols = [c for c in right.column_names if c != on]
    overlap = set(payload_cols) & set(left_ds.schema().names)
    if overlap:
        raise ValueError(
            f"column name overlap {sorted(overlap)}; rename first"
        )
    ref = ray.put((keys, right.select(payload_cols)))

    def join(tbl: pa.Table) -> pa.Table:
        rkeys, rtbl = ray.get(ref)
        lk = tbl.column(on).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(rkeys, lk)
        pos_c = np.minimum(pos, len(rkeys) - 1) if len(rkeys) else pos
        hit = (
            (pos < len(rkeys)) & (rkeys[pos_c] == lk)
            if len(rkeys)
            else np.zeros(len(lk), dtype=bool)
        )
        if how == "inner":
            sel = np.flatnonzero(hit)
            out = tbl.take(pa.array(sel, pa.int64()))
            ridx = pa.array(pos_c[sel], pa.int64())
        else:
            out = tbl
            ridx = pa.array(
                np.where(hit, pos_c, -1), pa.int64(), mask=~hit
            )
        for c in rtbl.column_names:
            out = out.append_column(c, rtbl.column(c).take(ridx))
        return out

    return left_ds.map_batches(join, batch_format="pyarrow")


def capped_broadcast_join(
    left_ds,
    right_ds,
    on: str,
    how: str = "inner",
    max_broadcast_bytes: int = _BROADCAST_JOIN_LIMIT,
    num_partitions: int = 64,
):
    """The 100-TB lookup idiom (same shape as ``dedup.drop_ids``):
    broadcast the right side when it fits the byte cap, otherwise fall
    back to the single-exchange co-partitioned ``hash_join``. The size
    probe is ``Dataset.size_bytes()`` on the materialized right —
    block metadata only; nothing is pulled to the driver to decide,
    and above the cap nothing is ever pulled at all."""
    right_mat = right_ds.materialize()
    size = right_mat.size_bytes() or 0
    if size <= max_broadcast_bytes:
        return broadcast_join(
            left_ds, right_mat, on, how=how,
            max_broadcast_bytes=max(max_broadcast_bytes, size + 1),
        )
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"how must be inner|left|semi|anti, got {how!r}")
    # scale the exchange width to the right side: full fan-out for a
    # genuinely big lookup table, a handful of partitions when the
    # fallback was forced on tiny data (tests / cap=0 A/B runs) — a
    # 64-way shuffle of a 10 KB table is pure scheduling overhead
    parts = min(num_partitions, max(8, size // (8 << 20) + 1))
    return hash_join(left_ds, right_mat, on, how=how, num_partitions=parts)


_HJ_SIDE = "__hj_side"
_HJ_GPART = "__hj_gpart"


def _key_hashes(k: np.ndarray) -> np.ndarray:
    """int64 partition hashes for a join-key array — numeric keys pass
    through; string/object keys get a per-value blake2b (the same hash
    family dedup uses), so hash_join works on string keys too (the
    merge kernel's sort/searchsorted compares the actual values)."""
    if k.dtype == object or k.dtype.kind in "US":
        from signal_collect_ray.functions.dedup import _hash64

        return np.fromiter(
            (_hash64(str(x)) for x in k), dtype=np.int64, count=len(k)
        )
    return k.astype(np.int64)


class _HashJoinMerge:
    """One hash partition's tagged rows → joined rows. Vectorized:
    right rows sort by key once, every left key resolves with one
    ``searchsorted`` — no per-key Python."""

    __name__ = "_HashJoinMerge"

    def __init__(self, on, how, left_cols, right_cols):
        self.on, self.how = on, how
        self.left_cols, self.right_cols = left_cols, right_cols

    def __call__(self, tbl: pa.Table) -> pa.Table:
        side = tbl.column(_HJ_SIDE).to_numpy(zero_copy_only=False)
        keys = tbl.column(self.on).to_numpy(zero_copy_only=False)
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        rk = keys[ri]
        order = np.argsort(rk, kind="stable")
        rk = rk[order]
        # semi/anti only test key EXISTENCE — right dups are harmless
        if (
            self.how in ("inner", "left")
            and len(rk) > 1
            and (rk[1:] == rk[:-1]).any()
        ):
            raise ValueError(
                f"hash_join right side has duplicate keys on {self.on!r}"
            )
        lk = keys[li]
        pos = np.searchsorted(rk, lk)
        pos_c = np.minimum(pos, max(len(rk) - 1, 0))
        hit = (
            (pos < len(rk)) & (rk[pos_c] == lk)
            if len(rk)
            else np.zeros(len(lk), dtype=bool)
        )
        if self.how in ("semi", "anti"):
            sel = li[hit] if self.how == "semi" else li[~hit]
            lsel = pa.array(sel, pa.int64())
            cols = {self.on: tbl.column(self.on).take(lsel)}
            for c in self.left_cols:
                cols[c] = tbl.column(c).take(lsel)
            return pa.table(cols)
        if self.how == "inner":
            sel = li[hit]
            ridx = ri[order[pos_c[hit]]]
            rmask = None
        else:  # left
            sel = li
            ridx = np.where(hit, ri[order[pos_c]] if len(rk) else 0, 0)
            rmask = ~hit
        lsel = pa.array(sel, pa.int64())
        rsel = pa.array(ridx, pa.int64(), mask=rmask) if len(sel) else pa.array(
            [], pa.int64()
        )
        cols = {self.on: tbl.column(self.on).take(lsel)}
        for c in self.left_cols:
            cols[c] = tbl.column(c).take(lsel)
        for c in self.right_cols:
            cols[c] = tbl.column(c).take(rsel)
        return pa.table(cols)


def hash_join(
    left_ds,
    right_ds,
    on: str,
    how: str = "inner",
    num_partitions: int = 64,
):
    """Big-big equi-join without a broadcast: tag both sides, union,
    hash-partition on the key, and merge each partition with one
    vectorized kernel — the SAME single-exchange tagged-union shape as
    ``asof_join`` and ``dedup.drop_ids``, so no side needs to fit in
    memory; only one hash partition's rows co-reside per task.

    Right keys must be unique for inner/left (dimension/entity side —
    enforced, so a many-to-many can't silently explode the output);
    ``semi``/``anti`` only test key existence (dups allowed) and return
    left columns only. Keys may be numeric (partitioned directly) or
    strings (partitioned by a per-value blake2b; the merge compares the
    actual values, so hashing never affects correctness). Skew bound:
    the hottest partition's rows must fit one task; raise
    ``num_partitions`` for bigger inputs."""
    import ray  # noqa: F401  (parity with broadcast_join's env expectations)

    from signal_collect_ray.util import part_of

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"how must be inner|left|semi|anti, got {how!r}")
    l_schema = left_ds.schema()
    r_schema = right_ds.schema()
    left_cols = [n for n in l_schema.names if n != on]
    right_cols = [n for n in r_schema.names if n != on]
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"column name overlap {sorted(overlap)}; rename first")
    reserved = {_HJ_GPART, _HJ_SIDE} & set(l_schema.names + r_schema.names)
    if reserved:
        raise ValueError(
            f"columns {sorted(reserved)} are reserved by hash_join's "
            "internal exchange; rename them first"
        )
    l_types = {n: t for n, t in zip(l_schema.names, l_schema.types)}
    r_types = {n: t for n, t in zip(r_schema.names, r_schema.types)}

    all_types = {**l_types, **r_types}

    def tag(side: int, own_cols):
        own = set(own_cols)

        def fn(tbl: pa.Table) -> pa.Table:
            n = tbl.num_rows
            k = tbl.column(on).to_numpy(zero_copy_only=False)
            cols = {
                _HJ_GPART: pa.array(
                    part_of(_key_hashes(k), num_partitions), pa.int32()
                ),
                _HJ_SIDE: pa.array(np.full(n, side, np.int8), pa.int8()),
                on: tbl.column(on),
            }
            # FIXED column order on both sides — union requires it
            for c in left_cols + right_cols:
                cols[c] = (
                    tbl.column(c) if c in own else pa.nulls(n, all_types[c])
                )
            return pa.table(cols)

        return fn

    lt = left_ds.map_batches(tag(0, left_cols), batch_format="pyarrow")
    rt = right_ds.map_batches(tag(1, right_cols), batch_format="pyarrow")
    merged = lt.union(rt).groupby(_HJ_GPART).map_groups(
        _HashJoinMerge(on, how, left_cols, right_cols),
        batch_format="pyarrow",
    )
    return merged


_IJ_SIDE = "__ij_side"


class _IntervalMerge:
    """One ``by`` key's co-partitioned rows → left rows + the covering
    interval's payload. Intervals must be non-overlapping per key
    (validated), so one sort + one searchsorted resolves every event."""

    __name__ = "_IntervalMerge"

    def __init__(self, time_col, start_col, end_col, left_cols, value_cols, how):
        self.time_col, self.start_col, self.end_col = time_col, start_col, end_col
        self.left_cols, self.value_cols, self.how = left_cols, value_cols, how

    def __call__(self, tbl: pa.Table) -> pa.Table:
        side = tbl.column(_IJ_SIDE).to_numpy(zero_copy_only=False)
        lmask = side == 0
        left = tbl.filter(pa.array(lmask))
        right = tbl.filter(pa.array(~lmask))
        rs = right.column(self.start_col).to_numpy(zero_copy_only=False)
        order = np.argsort(rs, kind="stable")
        right = right.take(pa.array(order, pa.int64()))
        rs = rs[order]
        re_ = right.column(self.end_col).to_numpy(zero_copy_only=False)
        if len(rs) > 1 and (rs[1:] <= re_[:-1]).any():
            raise ValueError(
                "interval_join requires non-overlapping intervals per key "
                "(found overlap within one by-group)"
            )
        t = left.column(self.time_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(rs, t, side="right") - 1
        pos_c = np.maximum(pos, 0)
        hit = (
            (pos >= 0) & (t <= re_[pos_c])
            if len(rs)
            else np.zeros(len(t), dtype=bool)
        )
        if self.how == "inner":
            lsel = pa.array(np.flatnonzero(hit), pa.int64())
            rsel = pa.array(pos_c[hit], pa.int64())
        else:  # left
            lsel = pa.array(np.arange(len(t)), pa.int64())
            rsel = pa.array(pos_c, pa.int64(), mask=~hit)
        cols = {c: left.column(c).take(lsel) for c in self.left_cols}
        for c in self.value_cols:
            cols[c] = right.column(c).take(rsel)
        return pa.table(cols)


def interval_join(
    left_ds,
    right_ds,
    by: str,
    time_col: str,
    start_col: str,
    end_col: str,
    value_cols: Sequence[str] = (),
    how: str = "inner",
):
    """Range / interval join: attach to each left event the right-side
    interval (same ``by`` key) whose [start, end] contains the event's
    time — session assignment, validity-window features, shift/price
    ranges. Same single-exchange tagged-union shape as ``asof_join``;
    per key one sort + one ``searchsorted`` (intervals must be
    NON-OVERLAPPING per key — enforced; overlapping ranges need the
    per-event fan-out of a different operator and usually a different
    question). ``how``: inner drops uncovered events; left null-fills."""
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    value_cols = list(value_cols)
    left_schema = left_ds.schema()
    left_cols = list(left_schema.names)
    r_schema = right_ds.schema()
    r_types = {n: t for n, t in zip(r_schema.names, r_schema.types)}
    attach = [start_col, end_col] + [c for c in value_cols]
    clash = set(attach) & set(left_cols)
    if clash:
        raise ValueError(f"right columns {sorted(clash)} exist on the left")

    def tag_left(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        out = tbl.append_column(_IJ_SIDE, pa.array(np.zeros(n, np.int8)))
        for c in attach:
            out = out.append_column(c, pa.nulls(n, r_types[c]))
        return out.select(left_cols + [_IJ_SIDE] + attach)

    def tag_right(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        cols = {by: tbl.column(by)}
        for c in left_cols:
            if c not in cols:
                cols[c] = pa.nulls(n, left_schema.base_schema.field(c).type)
        out = pa.table(cols).append_column(
            _IJ_SIDE, pa.array(np.ones(n, np.int8))
        )
        for c in attach:
            out = out.append_column(c, tbl.column(c))
        return out.select(left_cols + [_IJ_SIDE] + attach)

    lt = left_ds.map_batches(tag_left, batch_format="pyarrow")
    rt = right_ds.select_columns([by] + attach).map_batches(
        tag_right, batch_format="pyarrow"
    )
    merged = lt.union(rt).groupby(by).map_groups(
        _IntervalMerge(time_col, start_col, end_col, left_cols,
                       [start_col, end_col] + value_cols, how),
        batch_format="pyarrow",
    )
    return merged


def _np(tbl: pa.Table, col: str) -> np.ndarray:
    return tbl.column(col).combine_chunks().to_numpy(zero_copy_only=False)


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
