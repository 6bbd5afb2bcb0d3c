"""Single-source shortest paths.

Reference: ``examples/Sssp.scala:32-79`` — ``Location`` is a
DataFlowVertex with state ``Option[Int]`` (unknown = None) and ``Path``
an OptionalSignalEdge: signal = dist + weight when known, collect = min
(delta/on-delivery fold, ``DataFlowVertex.scala:47-54``). Min is
associative+commutative ⇒ combiner-safe. Unknown distance is encoded as
+inf; only vertices whose distance improved signal next round.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from signal_collect_ray.algorithm import Algorithm, StateDict
from signal_collect_ray.util import segment_min, segment_starts


class SSSP(Algorithm):
    name = "sssp"
    state_pa_type = pa.float64()
    signal_fields = [("val", pa.float64())]
    dense_agg = "min"
    dense_identity = np.inf
    dense_dtype = np.float64

    def __init__(self, source_vid: int):
        self.source = int(source_vid)

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        n = len(vid)
        state = np.full(n, np.inf)
        is_src = vid == self.source
        state[is_src] = 0.0
        return {
            "state": state,
            "last": state.copy(),
            "active": is_src.copy(),
            "residual": is_src.astype(np.float64),
        }

    def src_values(self, sub: StateDict) -> StateDict:
        return {"dist": sub["state"]}

    def edge_values(self, expanded: StateDict, weight) -> StateDict:
        return {"val": expanded["dist"] + weight}

    def combine(self, dst, values):
        d, v = segment_min(dst, values["val"])
        return d, {"val": v}

    def collect(self, prev, dst, sig, signal_threshold) -> StateDict:
        state = prev["state"].copy()
        if len(dst):
            idx = self._align(prev["vid"], dst)
            state[idx] = np.minimum(state[idx], sig["val"])
        changed = state < prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }

    def collect_dense(self, prev, inc, signal_threshold):
        state = np.minimum(prev["state"], inc)
        changed = state < prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }


class MultiSourceBFS(SSSP):
    """Unweighted BFS from a SOURCE SET: dist(v) = min hops from any
    source (finite ⇔ reachable). The reachability primitive of the
    Broder et al. (2000) bow-tie decomposition — run once forward from
    the core SCC and once on the reversed graph. Identical monotone
    min-fold to SSSP (dense min fast path, frontier-only signaling);
    only ``init`` seeds a set instead of a single vid."""

    name = "msbfs"

    def __init__(self, sources):
        self.sources = np.asarray(
            sorted(set(int(s) for s in sources)), np.int64
        )

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        n = len(vid)
        state = np.full(n, np.inf)
        is_src = np.isin(vid, self.sources)
        state[is_src] = 0.0
        return {
            "state": state,
            "last": state.copy(),
            "active": is_src.copy(),
            "residual": is_src.astype(np.float64),
        }


# Above this many vertices the distance map is attached by two
# co-partitioned joins instead of broadcast (same rationale as
# triangles.BROADCAST_DEGREE_LIMIT).
BROADCAST_DIST_LIMIT = 20_000_000


def shortest_path_tree(edges_ds, state_table, num_partitions: int = 32):
    """Shortest-path-tree parents from a converged unweighted SSSP
    state: ``parent(v) = min { u : (u,v) ∈ E, dist(u) + 1 = dist(v) }``
    — the deterministic predecessor extraction (reference's Path edges
    carry the route implicitly; this materializes it). One streaming
    pass over the edges with the (vid, dist) arrays broadcast
    (``ray.put`` once, two searchsorted lookups per batch) below
    ``BROADCAST_DIST_LIMIT`` vertices, else two co-partitioned hash
    joins (``functions.joins._attach``); per-batch segment-min pre-combine,
    one hash exchange, exact min per vertex. Source and unreachable
    vertices emit no row. Returns a Dataset (vid, parent)."""
    import ray
    import ray.data as rd

    from signal_collect_ray.algorithms.triangles import _np
    from signal_collect_ray.functions.joins import _attach
    from signal_collect_ray.util import part_of, segment_min

    vids = state_table.column("vid").to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    dist = state_table.column("state").to_numpy(zero_copy_only=False).astype(
        np.float64
    )
    order = np.argsort(vids, kind="stable")
    vs, dv = vids[order], dist[order]

    def emit(s, d, ds_, dd):
        ok = np.isfinite(ds_) & np.isfinite(dd) & (dd == ds_ + 1.0)
        v, p = d[ok], s[ok]
        v, p = segment_min(v, p)
        return pa.table(
            {
                "gpart": pa.array(part_of(v, num_partitions), pa.int32()),
                "vid": pa.array(v, pa.int64()),
                "parent": pa.array(p.astype(np.int64), pa.int64()),
            }
        )

    if len(vs) <= BROADCAST_DIST_LIMIT:
        ref = ray.put((vs, dv))

        class _Cand:
            __name__ = "_Cand"

            def __init__(self, ref):
                self.ref = ref
                self._m = None

            def _lookup(self, ids):
                if self._m is None:
                    import ray as _r

                    self._m = _r.get(self.ref)
                mv, md = self._m
                pos = np.searchsorted(mv, ids)
                pos_c = np.minimum(pos, len(mv) - 1)
                hit = (pos < len(mv)) & (mv[pos_c] == ids)
                out = np.full(len(ids), np.inf)
                out[hit] = md[pos_c[hit]]
                return out

            def __call__(self, tbl: pa.Table) -> pa.Table:
                s, d = _np(tbl, "src"), _np(tbl, "dst")
                return emit(s, d, self._lookup(s), self._lookup(d))

        cand = edges_ds.select_columns(["src", "dst"]).map_batches(
            _Cand(ref), batch_format="pyarrow"
        )
    else:
        dist_ds = rd.from_arrow(
            pa.table(
                {
                    "vid": pa.array(vs, pa.int64()),
                    "d": pa.array(dv, pa.float64()),
                }
            )
        )
        with_s = _attach(
            edges_ds.select_columns(["src", "dst"]),
            "src",
            dist_ds.rename_columns(["vid", "d_src"]),
            "vid",
            ["d_src"],
            num_partitions,
        )
        with_d = _attach(
            with_s, "dst", dist_ds.rename_columns(["vid", "d_dst"]), "vid",
            ["d_dst"], num_partitions,
        )

        def kernel(tbl: pa.Table) -> pa.Table:
            return emit(
                _np(tbl, "src"), _np(tbl, "dst"),
                tbl.column("d_src").to_numpy(zero_copy_only=False),
                tbl.column("d_dst").to_numpy(zero_copy_only=False),
            )

        cand = with_d.map_batches(kernel, batch_format="pyarrow")

    def final(tbl: pa.Table) -> pa.Table:
        v, p = segment_min(_np(tbl, "vid"), _np(tbl, "parent"))
        return pa.table(
            {
                "vid": pa.array(v, pa.int64()),
                "parent": pa.array(p.astype(np.int64), pa.int64()),
            }
        )

    return cand.groupby("gpart").map_groups(final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Landmark BFS — k sources in ONE pass via byte-packed lane state
# ---------------------------------------------------------------------------

_LANE_INF = 255  # unreachable sentinel per 8-bit lane


def _lanes(packed: np.ndarray) -> np.ndarray:
    """View a packed int64 lane vector as an (n, 8) uint8 matrix
    (little-endian lane j = byte j; internal layout only — outputs
    unpack explicitly, so endianness never crosses the wire)."""
    return packed.view(np.uint8).reshape(len(packed), 8)


def _pack(lanes: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(lanes).view(np.int64).ravel()


class LandmarkBFS(Algorithm):
    """Unweighted BFS from up to 8 landmark sources SIMULTANEOUSLY —
    the landmark-labeling / distance-sketch idiom (Das Sarma et al.
    2010, public literature): at web scale one pass over the edges per
    superstep serves all landmarks at once instead of k sequential SSSP
    runs, so the superstep barrier cost is paid once.

    State is one int64 packing 8 uint8 distance lanes (255 = not yet
    reached); signal = per-lane saturating dist+1; fold = BYTEWISE min
    — not an int64 scalar min, so this runs the engine's sparse combine
    path (``dense_agg=None``). Per-lane min is monotone ⇒ fresh-only
    frontier signaling is exact, and the combiner is idempotent under
    re-application. Reference anchor: the SSSP pattern
    (``examples/Sssp.scala:32-79``) widened to a vector lane state.
    """

    name = "landmark_bfs"
    state_pa_type = pa.int64()
    signal_fields = [("val", pa.int64())]
    dense_agg = None

    def __init__(self, landmarks):
        self.landmarks = [int(x) for x in landmarks]
        if len(self.landmarks) > 8:
            raise ValueError("at most 8 landmark lanes per packed int64")

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        n = len(vid)
        lanes = np.full((n, 8), _LANE_INF, dtype=np.uint8)
        for lane, s in enumerate(self.landmarks):
            lanes[vid == s, lane] = 0
        state = _pack(lanes)
        is_src = np.isin(vid, np.asarray(self.landmarks, np.int64))
        return {
            "state": state,
            "last": state.copy(),
            "active": is_src.copy(),
            "residual": is_src.astype(np.float64),
        }

    def src_values(self, sub: StateDict) -> StateDict:
        return {"val": sub["state"]}

    def edge_values(self, expanded: StateDict, weight) -> StateDict:
        lanes = _lanes(expanded["val"].astype(np.int64, copy=True))
        inc = np.minimum(lanes, _LANE_INF - 1) + 1  # saturating +1 hop
        return {"val": _pack(inc)}

    @staticmethod
    def _byte_min_by_dst(dst, packed):
        order = np.argsort(dst, kind="stable")
        d, v = dst[order], packed[order]
        starts = segment_starts(d)
        if len(starts) == 0:
            return d[:0], packed[:0]
        lanes = _lanes(v.astype(np.int64, copy=True))
        agg = np.minimum.reduceat(lanes, starts, axis=0)
        return d[starts], _pack(agg)

    def combine(self, dst, values):
        d, v = self._byte_min_by_dst(dst, values["val"])
        return d, {"val": v}

    def collect(self, prev, dst, sig, signal_threshold) -> StateDict:
        state = prev["state"].copy()
        if len(dst):
            d, v = self._byte_min_by_dst(dst, sig["val"])
            idx = self._align(prev["vid"], d)
            merged = np.minimum(_lanes(state[idx].copy()), _lanes(v.copy()))
            state[idx] = _pack(merged)
        changed = state != prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }


def unpack_landmark_table(state_table: pa.Table, landmarks) -> pa.Table:
    """(vid, packed state) → (vid, d<l0>, d<l1>, …) with NULL for
    unreachable lanes — the driver-facing distance-label table. Lanes
    are float64 to schema-match the SQL BFS oracle's DOUBLE dist."""
    vid = state_table.column("vid").to_numpy(zero_copy_only=False)
    packed = state_table.column("state").to_numpy(zero_copy_only=False)
    lanes = _lanes(packed.astype(np.int64, copy=True))
    cols = {"vid": pa.array(vid, pa.int64())}
    for lane, s in enumerate(int(x) for x in landmarks):
        d = lanes[:, lane].astype(np.float64)
        cols[f"d{s}"] = pa.array(d, pa.float64(), mask=(d >= _LANE_INF))
    return pa.table(cols)


class SPCount(Algorithm):
    """Single-source shortest-path COUNTING (the σ of Brandes 2001
    betweenness): state = (BFS level, number of distinct shortest
    paths from the source). Level-synchronous BSP makes σ exact in one
    pass — every vertex at level L receives ALL its σ contributions in
    superstep L (its level-L−1 in-neighbors settled together at
    superstep L−1), so (dist, σ) finalizes once and never changes:
    monotone, and a fixed round unroll matches the engine wherever
    either converges.

    Two-field signal (d, s) with a custom min/conditional-sum combiner
    (σ sums only over senders achieving the minimum d), so the sparse
    exchange path is used; pure int64 end to end — bit-exact against
    the unrolled SQL mirror. Packing: state = dist (sentinel 2^62 =
    unreached), last = σ."""

    name = "spcount"
    state_pa_type = pa.int64()
    signal_fields = [("d", pa.int64()), ("s", pa.int64())]
    dense_agg = None

    INF = np.int64(1) << np.int64(62)

    def __init__(self, source_vid: int):
        self.source = int(source_vid)

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        n = len(vid)
        dist = np.full(n, self.INF, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.int64)
        is_src = vid == self.source
        dist[is_src] = 0
        sigma[is_src] = 1
        return {
            "state": dist,
            "last": sigma,
            "active": is_src.copy(),
            "residual": is_src.astype(np.float64),
        }

    def src_values(self, sub: StateDict) -> StateDict:
        return {"d": sub["state"] + 1, "s": sub["last"]}

    def edge_values(self, expanded: StateDict, weight) -> StateDict:
        return {"d": expanded["d"], "s": expanded["s"]}

    def combine(self, dst, values):
        d = np.asarray(values["d"], dtype=np.int64)
        s = np.asarray(values["s"], dtype=np.int64)
        order = np.lexsort((d, dst))
        dst_s, d_s, s_s = dst[order], d[order], s[order]
        starts = segment_starts(dst_s)
        counts = np.diff(np.append(starts, len(dst_s)))
        mins = d_s[starts]
        mask = d_s == np.repeat(mins, counts)
        sums = np.add.reduceat(np.where(mask, s_s, 0), starts)
        return dst_s[starts], {"d": mins, "s": sums.astype(np.int64)}

    def collect(self, prev, dst, sig, signal_threshold) -> StateDict:
        dist = prev["state"].copy()
        sigma = prev["last"].copy()
        changed = np.zeros(len(dist), dtype=bool)
        if len(dst):
            idx = self._align(prev["vid"], dst)
            better = sig["d"] < dist[idx]
            dist[idx[better]] = sig["d"][better]
            sigma[idx[better]] = sig["s"][better]
            changed[idx[better]] = True
        return {
            "state": dist,
            "last": sigma,
            "active": changed,
            "residual": changed.astype(np.float64),
        }


class EarliestArrival(SSSP):
    """Time-respecting (temporal) reachability: edges carry a TIMESTAMP
    as their weight, and an edge (u, v, t) extends a journey only if it
    departs no earlier than u's arrival — arr(v) = min over such edges
    of t (Wu et al. 2014 temporal-path semantics, public literature).
    The min-fold is monotone (lowering arr(u) only grows the usable
    edge set), so the frontier-only delta engine converges to the exact
    earliest-arrival fixpoint and a fixed round unroll matches the SQL
    mirror round for round. Timestamps are integer microseconds held in
    float64 (< 2^53 ⇒ exact); the source starts at arrival ``t0``."""

    name = "earliest_arrival"

    def __init__(self, source_vid: int, t0: float = 0.0):
        super().__init__(source_vid)
        self.t0 = float(t0)

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        st = super().init(vid, out_degree, sum_out_weight)
        st["state"][vid == self.source] = self.t0
        st["last"] = st["state"].copy()
        return st

    def edge_values(self, expanded: StateDict, weight) -> StateDict:
        # usable only when the edge departs at/after the src's arrival
        return {"val": np.where(weight >= expanded["dist"], weight, np.inf)}


class LatestDeparture(Algorithm):
    """Reverse temporal reachability: the LATEST time one can leave
    vertex v and still reach the TARGET by the deadline (Wu et al.
    2014 latest-departure paths). Runs on the REVERSED timestamped
    graph with a max-fold: dep(v) = max over original edges (v, u, t)
    with t ≤ dep(u) of t, target initialized to the deadline. Monotone
    (raising dep(u) only grows the usable edge set), frontier-only;
    integer-microsecond floats exact under 2^53. Feed edges REVERSED
    (dst→src) so the CSR signal direction follows the propagation."""

    name = "latest_departure"
    state_pa_type = pa.float64()
    signal_fields = [("val", pa.float64())]
    dense_agg = "max"
    dense_identity = -np.inf
    dense_dtype = np.float64

    def __init__(self, target_vid: int, deadline: float):
        self.target = int(target_vid)
        self.deadline = float(deadline)

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        n = len(vid)
        state = np.full(n, -np.inf)
        is_t = vid == self.target
        state[is_t] = self.deadline
        return {
            "state": state,
            "last": state.copy(),
            "active": is_t.copy(),
            "residual": is_t.astype(np.float64),
        }

    def src_values(self, sub: StateDict) -> StateDict:
        return {"dep": sub["state"]}

    def edge_values(self, expanded: StateDict, weight) -> StateDict:
        # reversed edge (u → v) with original departure time t = weight:
        # usable when it arrives (t) no later than u's departure bound
        return {"val": np.where(weight <= expanded["dep"], weight, -np.inf)}

    def combine(self, dst, values):
        order = np.lexsort((values["val"], dst))
        d = dst[order]
        v = values["val"][order]
        starts = segment_starts(d)
        ends = np.append(starts[1:], len(d)) - 1
        return d[starts], {"val": v[ends]}

    def collect(self, prev, dst, sig, signal_threshold) -> StateDict:
        state = prev["state"].copy()
        if len(dst):
            idx = self._align(prev["vid"], dst)
            state[idx] = np.maximum(state[idx], sig["val"])
        changed = state > prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }

    def collect_dense(self, prev, inc, signal_threshold):
        state = np.maximum(prev["state"], inc)
        changed = state > prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }


class WidestPath(Algorithm):
    """Widest (maximum-bottleneck) path from a source over weighted
    edges — the (max, min) semiring sibling of SSSP's (min, +):
    cap(v) = max over in-edges (u, v, w) of min(cap(u), w), source
    capacity +inf. The classic network-capacity / best-route-quality
    primitive; monotone non-decreasing, frontier-only delta engine with
    the dense max fast path. Integer-valued weights stay exact in
    float64, so the unrolled SQL mirror is bit-exact."""

    name = "widest_path"
    state_pa_type = pa.float64()
    signal_fields = [("val", pa.float64())]
    dense_agg = "max"
    dense_identity = -np.inf
    dense_dtype = np.float64

    def __init__(self, source_vid: int):
        self.source = int(source_vid)

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        n = len(vid)
        state = np.full(n, -np.inf)
        is_src = vid == self.source
        state[is_src] = np.inf
        return {
            "state": state,
            "last": state.copy(),
            "active": is_src.copy(),
            "residual": is_src.astype(np.float64),
        }

    def src_values(self, sub: StateDict) -> StateDict:
        return {"cap": sub["state"]}

    def edge_values(self, expanded: StateDict, weight) -> StateDict:
        return {"val": np.minimum(expanded["cap"], weight)}

    def combine(self, dst, values):
        order = np.lexsort((values["val"], dst))
        d, v = dst[order], values["val"][order]
        starts = segment_starts(d)
        ends = np.append(starts[1:], len(d)) - 1
        return d[starts], {"val": v[ends]}

    def collect(self, prev, dst, sig, signal_threshold) -> StateDict:
        state = prev["state"].copy()
        if len(dst):
            idx = self._align(prev["vid"], dst)
            state[idx] = np.maximum(state[idx], sig["val"])
        changed = state > prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }

    def collect_dense(self, prev, inc, signal_threshold):
        state = np.maximum(prev["state"], inc)
        changed = state > prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }
