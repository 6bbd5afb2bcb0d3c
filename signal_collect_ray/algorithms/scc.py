"""Strongly connected components — forward-backward coloring
(Fleischer/Hendrickson/Pinar 2000; Orzan 2004 — public literature): the
classic web-graph bowtie analysis the reference's vertex-centric model
is built for, realized as a driver loop over two of THIS engine's
min-label propagations per round:

1. **Color** (forward): propagate the maximum vid along edges to
   convergence — ``color(v)`` = max vid among v's ancestors ∪ v.
   Implemented as ConnectedComponents' min fold over NEGATED ids on the
   directed graph (same combiner, same dense path).
2. **Mark** (backward, color-restricted): a pivot is a vertex that is
   its own color; ``SCC(pivot)`` = vertices that can reach their pivot
   through SAME-COLOR edges. Implemented as a 0/1 min fold seeded at
   the pivots over the REVERSED color-filtered subgraph.
3. Remove every marked vertex (each belongs to exactly one finished
   SCC, labeled by its min member vid), keep edges between unmarked
   vertices, repeat. Vertices that drop out of the surviving edge set
   are singleton SCCs by construction.

Web graphs finish in a handful of outer rounds (the giant SCC falls in
round one).

**Scale shape (everything co-partitioned, nothing O(E) or O(V) on the
driver):** ``Graph.build`` writes edge shards partitioned by
``part_of(src)`` and vertex shards by ``part_of(vid)``; the engine
writes its final state the same way (``part-{p:05d}.parquet`` keyed by
the SAME mapper). Every per-round step is therefore either a
shard-local task (src-side color/mark lookup, pivot scan, unmarked
vertex diff — part p of one table joins part p of the other inside ONE
worker task via searchsorted) or a single hash exchange on the dst
partition (dst-side color/mark lookup via ``groupby("dpart")``).
Surviving edges are written as partitioned parquet per round
(resumable; the next round's graph build streams them back). The
driver holds only the pivot array (one entry per SCC found that
round), the per-color min-vid fold (same cardinality), and per-round
counters.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from signal_collect_ray.algorithms.components import ConnectedComponents
from signal_collect_ray.config import EngineConfig
from signal_collect_ray.engine_resident import ResidentEngine
from signal_collect_ray.graph import Graph
from signal_collect_ray.util import isin_sorted, part_of


class _MaxColor(ConnectedComponents):
    """Max-ancestor-vid propagation = CC's min fold over negated ids.
    The negated label is the id of the largest-id ancestor seen so far,
    so it is the gather pointer (the CC exactness argument, mirrored)."""

    name = "scc_color"

    def pointer(self, shard):
        return -shard["state"]

    def init(self, vid, out_degree, sum_out_weight):
        n = len(vid)
        s = -vid.astype(np.int64)
        return {
            "state": s.copy(),
            "last": s.copy(),
            "active": np.ones(n, dtype=bool),
            "residual": np.ones(n),
        }


class _BackMark(ConnectedComponents):
    """0/1 reachability-to-pivot fold (0 = marked, min-combine)."""

    name = "scc_mark"

    def __init__(self, pivots_sorted: np.ndarray):
        self.pivots = pivots_sorted

    def pointer(self, shard):
        # 0/1 marks are not vertex ids: no gather
        return None

    def init(self, vid, out_degree, sum_out_weight):
        n = len(vid)
        hit, _ = isin_sorted(self.pivots, vid.astype(np.int64))
        s = np.where(hit, 0, 1).astype(np.int64)
        return {
            "state": s.copy(),
            "last": s.copy(),
            "active": np.ones(n, dtype=bool),
            "residual": np.ones(n),
        }


# Reach propagation needs O(diameter) supersteps and the engine stops
# at quiescence (empty frontier), so this cap is a runaway guard, NOT
# an expected bound: the old 500-cap silently truncated the forward /
# backward reach sets on >500-diameter graphs — a 520-cycle (one SCC)
# came back as 520 singletons. Pinned in tests/test_scc.py.
_REACH_MAX_SUPERSTEPS = 65536


def _run(graph, algo, run_dir, num_partitions):
    eng = ResidentEngine(
        EngineConfig(
            num_partitions=num_partitions, eps=0.0,
            max_supersteps=_REACH_MAX_SUPERSTEPS,
        ),
        num_workers=2,
    )
    return eng.run(graph, algo, run_dir=run_dir, resume=False,
                   checkpoint_interval=_REACH_MAX_SUPERSTEPS + 1)


def _np_col(tbl: pa.Table, col: str) -> np.ndarray:
    return tbl.column(col).to_numpy(zero_copy_only=False)


def _state_shard(state_dir: str, p: int):
    """(sorted vid, state) of one engine state shard, or None."""
    path = os.path.join(state_dir, f"part-{p:05d}.parquet")
    if not os.path.exists(path):
        return None
    t = pq.read_table(path, columns=["vid", "state"])
    vid = _np_col(t, "vid").astype(np.int64)
    st = _np_col(t, "state").astype(np.int64)
    order = np.argsort(vid, kind="stable")
    return vid[order], st[order]


def _parts_ds(parts):
    import ray.data as rd

    return rd.from_items([{"p": int(p)} for p in parts])


_COUNT_SCHEMA = pa.schema([("p", pa.int64()), ("n", pa.int64())])


class _PivotScan:
    """Per-part: vids that are their own color (vid == -state)."""

    __name__ = "_PivotScan"

    def __init__(self, state_dir: str):
        self.state_dir = state_dir

    def __call__(self, tbl: pa.Table) -> pa.Table:
        out = []
        for p in _np_col(tbl, "p"):
            sh = _state_shard(self.state_dir, int(p))
            if sh is not None:
                vid, st = sh
                out.append(vid[vid == -st])
        piv = np.concatenate(out) if out else np.empty(0, np.int64)
        return pa.table({"vid": pa.array(piv, pa.int64())})


class _SrcColor:
    """Shard-local: annotate edge shard p with the src color and the
    dst partition (the only per-round hash-exchange key)."""

    __name__ = "_SrcColor"

    def __init__(self, edges_dir: str, state_dir: str, P: int):
        self.edges_dir = edges_dir
        self.state_dir = state_dir
        self.P = P

    def __call__(self, tbl: pa.Table) -> pa.Table:
        outs = []
        for p in _np_col(tbl, "p"):
            path = os.path.join(self.edges_dir, f"part-{int(p):05d}.parquet")
            if not os.path.exists(path):
                continue
            sh = _state_shard(self.state_dir, int(p))
            if sh is None:
                continue
            et = pq.read_table(path, columns=["src", "dst"])
            src = _np_col(et, "src").astype(np.int64)
            dst = _np_col(et, "dst").astype(np.int64)
            svid, sst = sh
            csrc = -sst[np.searchsorted(svid, src)]
            outs.append(
                pa.table(
                    {
                        "src": pa.array(src, pa.int64()),
                        "dst": pa.array(dst, pa.int64()),
                        "csrc": pa.array(csrc, pa.int64()),
                        "dpart": pa.array(
                            part_of(dst, self.P).astype(np.int64), pa.int64()
                        ),
                    }
                )
            )
        if not outs:
            return pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "dst": pa.array([], pa.int64()),
                    "csrc": pa.array([], pa.int64()),
                    "dpart": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(outs)


class _RevSameColorWriter:
    """dst-part group: keep same-color edges, write them REVERSED as a
    shard of the backward graph's input; returns one count row."""

    __name__ = "_RevSameColorWriter"

    def __init__(self, state_dir: str, out_dir: str):
        self.state_dir = state_dir
        self.out_dir = out_dir

    def __call__(self, tbl: pa.Table) -> pa.Table:
        p = int(_np_col(tbl, "dpart")[0])
        sh = _state_shard(self.state_dir, p)
        src = _np_col(tbl, "src").astype(np.int64)
        dst = _np_col(tbl, "dst").astype(np.int64)
        csrc = _np_col(tbl, "csrc").astype(np.int64)
        if sh is None:
            keep = np.zeros(len(src), dtype=bool)
        else:
            svid, sst = sh
            cdst = -sst[np.searchsorted(svid, dst)]
            keep = csrc == cdst
        n = int(keep.sum())
        if n:
            pq.write_table(
                pa.table(
                    {
                        "src": pa.array(dst[keep], pa.int64()),
                        "dst": pa.array(src[keep], pa.int64()),
                    }
                ),
                os.path.join(self.out_dir, f"part-{p:05d}.parquet"),
            )
        return pa.table({"p": [p], "n": [n]}, schema=_COUNT_SCHEMA)


class _MarkedWriter:
    """Per-part: marked = pivots ∪ {state2 == 0}; writes
    (vid, color) of the marked set and the surviving (unmarked) vertex
    shard; returns (part, n_marked, n_unmarked)."""

    __name__ = "_MarkedWriter"

    def __init__(self, state1_dir: str, state2_dir, pivots: np.ndarray,
                 marked_dir: str, verts_dir: str):
        self.state1_dir = state1_dir
        self.state2_dir = state2_dir  # None when no same-color edges
        self.pivots = pivots  # sorted
        self.marked_dir = marked_dir
        self.verts_dir = verts_dir

    def __call__(self, tbl: pa.Table) -> pa.Table:
        rows_p, rows_m, rows_u = [], [], []
        for p in _np_col(tbl, "p"):
            p = int(p)
            sh1 = _state_shard(self.state1_dir, p)
            if sh1 is None:
                continue
            vid1, st1 = sh1
            hit, _ = isin_sorted(vid1, self.pivots)
            marked = [self.pivots[hit]]
            if self.state2_dir is not None:
                sh2 = _state_shard(self.state2_dir, p)
                if sh2 is not None:
                    vid2, st2 = sh2
                    marked.append(vid2[st2 == 0])
            mk = np.unique(np.concatenate(marked))
            color = -st1[np.searchsorted(vid1, mk)]
            pq.write_table(
                pa.table(
                    {
                        "vid": pa.array(mk, pa.int64()),
                        "color": pa.array(color, pa.int64()),
                    }
                ),
                os.path.join(self.marked_dir, f"part-{p:05d}.parquet"),
            )
            is_m, _ = isin_sorted(mk, vid1)
            unmarked = vid1[~is_m]
            if len(unmarked):
                pq.write_table(
                    pa.table({"vid": pa.array(unmarked, pa.int64())}),
                    os.path.join(self.verts_dir, f"part-{p:05d}.parquet"),
                )
            rows_p.append(p)
            rows_m.append(len(mk))
            rows_u.append(len(unmarked))
        return pa.table(
            {
                "p": pa.array(rows_p, pa.int64()),
                "n_marked": pa.array(rows_m, pa.int64()),
                "n_unmarked": pa.array(rows_u, pa.int64()),
            }
        )


class _SinglesWriter:
    """Per-part: remaining vertices absent from the new graph's vertex
    shard are singleton SCCs — label them (vid, vid)."""

    __name__ = "_SinglesWriter"

    def __init__(self, verts_dir: str, gverts_dir, labels_dir: str,
                 tag: str):
        self.verts_dir = verts_dir
        self.gverts_dir = gverts_dir  # None == nothing survives
        self.labels_dir = labels_dir
        self.tag = tag

    def __call__(self, tbl: pa.Table) -> pa.Table:
        rows_p, rows_n = [], []
        for p in _np_col(tbl, "p"):
            p = int(p)
            vpath = os.path.join(self.verts_dir, f"part-{p:05d}.parquet")
            if not os.path.exists(vpath):
                continue
            v = _np_col(
                pq.read_table(vpath, columns=["vid"]), "vid"
            ).astype(np.int64)
            v.sort()
            if self.gverts_dir is not None:
                gpath = os.path.join(
                    self.gverts_dir, f"part-{p:05d}.parquet"
                )
                if os.path.exists(gpath):
                    gv = _np_col(
                        pq.read_table(gpath, columns=["vid"]), "vid"
                    ).astype(np.int64)
                    gv.sort()
                    hit, _ = isin_sorted(gv, v)
                    v = v[~hit]
            if len(v):
                pq.write_table(
                    pa.table(
                        {
                            "vid": pa.array(v, pa.int64()),
                            "scc": pa.array(v, pa.int64()),
                        }
                    ),
                    os.path.join(
                        self.labels_dir, f"{self.tag}-part-{p:05d}.parquet"
                    ),
                )
            rows_p.append(p)
            rows_n.append(len(v))
        return pa.table(
            {"p": pa.array(rows_p, pa.int64()),
             "n": pa.array(rows_n, pa.int64())},
            schema=_COUNT_SCHEMA,
        )


class _LabelWriter:
    """Per-part: marked (vid, color) + the per-color min-vid fold →
    final (vid, scc) label shard for this round."""

    __name__ = "_LabelWriter"

    def __init__(self, marked_dir: str, cmin_colors: np.ndarray,
                 cmin_vids: np.ndarray, labels_dir: str, tag: str):
        self.marked_dir = marked_dir
        self.cmin_colors = cmin_colors  # sorted
        self.cmin_vids = cmin_vids
        self.labels_dir = labels_dir
        self.tag = tag

    def __call__(self, tbl: pa.Table) -> pa.Table:
        rows_p, rows_n = [], []
        for p in _np_col(tbl, "p"):
            p = int(p)
            path = os.path.join(self.marked_dir, f"part-{p:05d}.parquet")
            if not os.path.exists(path):
                continue
            t = pq.read_table(path)
            vid = _np_col(t, "vid").astype(np.int64)
            col = _np_col(t, "color").astype(np.int64)
            scc = self.cmin_vids[np.searchsorted(self.cmin_colors, col)]
            pq.write_table(
                pa.table(
                    {
                        "vid": pa.array(vid, pa.int64()),
                        "scc": pa.array(scc, pa.int64()),
                    }
                ),
                os.path.join(
                    self.labels_dir, f"{self.tag}-part-{p:05d}.parquet"
                ),
            )
            rows_p.append(p)
            rows_n.append(len(vid))
        return pa.table(
            {"p": pa.array(rows_p, pa.int64()),
             "n": pa.array(rows_n, pa.int64())},
            schema=_COUNT_SCHEMA,
        )


class _DropMarked:
    """Shard-local: drop edges whose SRC is marked; route the rest to
    their dst partition."""

    __name__ = "_DropMarked"

    def __init__(self, edges_dir: str, marked_dir: str, P: int):
        self.edges_dir = edges_dir
        self.marked_dir = marked_dir
        self.P = P

    def _marked(self, p: int):
        path = os.path.join(self.marked_dir, f"part-{p:05d}.parquet")
        if not os.path.exists(path):
            return np.empty(0, np.int64)
        return _np_col(
            pq.read_table(path, columns=["vid"]), "vid"
        ).astype(np.int64)  # written sorted

    def __call__(self, tbl: pa.Table) -> pa.Table:
        outs = []
        for p in _np_col(tbl, "p"):
            path = os.path.join(self.edges_dir, f"part-{int(p):05d}.parquet")
            if not os.path.exists(path):
                continue
            et = pq.read_table(path, columns=["src", "dst"])
            src = _np_col(et, "src").astype(np.int64)
            dst = _np_col(et, "dst").astype(np.int64)
            mk = self._marked(int(p))
            hit, _ = isin_sorted(mk, src)
            src, dst = src[~hit], dst[~hit]
            outs.append(
                pa.table(
                    {
                        "src": pa.array(src, pa.int64()),
                        "dst": pa.array(dst, pa.int64()),
                        "dpart": pa.array(
                            part_of(dst, self.P).astype(np.int64), pa.int64()
                        ),
                    }
                )
            )
        if not outs:
            return pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "dst": pa.array([], pa.int64()),
                    "dpart": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(outs)


class _DropMarkedDstWriter(_DropMarked):
    """dst-part group: drop edges whose DST is marked, write the
    surviving shard of the next round's edges; one count row."""

    __name__ = "_DropMarkedDstWriter"

    def __init__(self, marked_dir: str, out_dir: str):
        self.marked_dir = marked_dir
        self.out_dir = out_dir

    def __call__(self, tbl: pa.Table) -> pa.Table:
        p = int(_np_col(tbl, "dpart")[0])
        src = _np_col(tbl, "src").astype(np.int64)
        dst = _np_col(tbl, "dst").astype(np.int64)
        mk = self._marked(p)
        hit, _ = isin_sorted(mk, dst)
        src, dst = src[~hit], dst[~hit]
        if len(src):
            pq.write_table(
                pa.table(
                    {
                        "src": pa.array(src, pa.int64()),
                        "dst": pa.array(dst, pa.int64()),
                    }
                ),
                os.path.join(self.out_dir, f"part-{p:05d}.parquet"),
            )
        return pa.table({"p": [p], "n": [len(src)]}, schema=_COUNT_SCHEMA)


def _take_parts(ds_rows, col="n") -> int:
    return int(sum(r[col] for r in ds_rows))


def scc_labels(edges_ds, workdir: str, num_partitions: int = 4,
               max_outer: int = 50) -> pa.Table:
    """SCC label (minimum member vid) per vertex of the directed graph.
    Returns a pyarrow Table (vid, scc) sorted by vid."""
    import pyarrow.compute as pc
    import ray.data as rd

    P = num_partitions
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    labels_dir = os.path.join(workdir, "labels")
    os.makedirs(labels_dir)
    all_parts = list(range(P))

    def noself(tbl: pa.Table) -> pa.Table:
        t = tbl.select(["src", "dst"])
        return t.filter(pc.invert(pc.equal(t.column("src"),
                                           t.column("dst"))))

    cur_edges = edges_ds.map_batches(noself, batch_format="pyarrow")
    verts_dir = None  # round 0: remaining == the graph's own endpoints
    n_remaining = None

    for rnd in range(max_outer):
        gdir = os.path.join(workdir, f"g_fwd_{rnd}")
        g = Graph.build(cur_edges, gdir, num_partitions=P)
        gverts_dir = os.path.join(gdir, "vertices")
        if verts_dir is not None:
            # vertices that lost all their edges are singleton SCCs
            _parts_ds(all_parts).map_batches(
                _SinglesWriter(verts_dir, gverts_dir, labels_dir,
                               f"r{rnd}-singles"),
                batch_format="pyarrow", batch_size=1,
            ).take_all()
        if g.num_edges == 0:
            n_remaining = 0
            break
        n_remaining = g.num_vertices

        # 1. forward color propagation (max ancestor vid)
        info = _run(g, _MaxColor(),
                    os.path.join(workdir, f"run_fwd_{rnd}"), P)
        sdir1 = info.final_step_dir

        # pivots: O(#SCCs-found-this-round) on the driver, by design
        piv_rows = _parts_ds(all_parts).map_batches(
            _PivotScan(sdir1), batch_format="pyarrow", batch_size=1,
        ).take_all()
        pivots = np.sort(
            np.array([r["vid"] for r in piv_rows], dtype=np.int64)
        )

        # 2. reversed same-color subgraph: src-side color lookup is
        # shard-local; the dst side is ONE hash exchange on dpart
        rev_dir = os.path.join(workdir, f"rev_{rnd}")
        os.makedirs(rev_dir)
        rev_counts = (
            _parts_ds(all_parts)
            .map_batches(
                _SrcColor(os.path.join(gdir, "edges"), sdir1, P),
                batch_format="pyarrow", batch_size=1,
            )
            .groupby("dpart")
            .map_groups(
                _RevSameColorWriter(sdir1, rev_dir), batch_format="pyarrow"
            )
            .take_all()
        )
        n_rev = _take_parts(rev_counts)

        sdir2 = None
        if n_rev:
            g2 = Graph.build(
                rd.read_parquet(sorted(glob.glob(
                    os.path.join(rev_dir, "part-*.parquet")))),
                os.path.join(workdir, f"g_bwd_{rnd}"), num_partitions=P,
            )
            info2 = _run(g2, _BackMark(pivots),
                         os.path.join(workdir, f"run_bwd_{rnd}"), P)
            sdir2 = info2.final_step_dir

        # 3. marked set + surviving vertex shards (shard-local)
        marked_dir = os.path.join(workdir, f"marked_{rnd}")
        nverts_dir = os.path.join(workdir, f"verts_{rnd + 1}")
        os.makedirs(marked_dir)
        os.makedirs(nverts_dir)
        mrows = _parts_ds(all_parts).map_batches(
            _MarkedWriter(sdir1, sdir2, pivots, marked_dir, nverts_dir),
            batch_format="pyarrow", batch_size=1,
        ).take_all()
        n_marked = _take_parts(mrows, "n_marked")
        n_unmarked = _take_parts(mrows, "n_unmarked")
        if not n_marked:
            raise RuntimeError("scc made no progress (pivot not marked)")

        # 4. SCC label = min member vid per color: distributed fold to
        # O(#pivots) rows, then a shard-local label write
        from ray.data.aggregate import Min

        cmin = (
            rd.read_parquet(sorted(glob.glob(
                os.path.join(marked_dir, "part-*.parquet"))))
            .groupby("color")
            .aggregate(Min("vid", alias_name="scc"))
            .take_all()
        )
        cmin_colors = np.array([r["color"] for r in cmin], np.int64)
        cmin_vids = np.array([r["scc"] for r in cmin], np.int64)
        order = np.argsort(cmin_colors)
        cmin_colors, cmin_vids = cmin_colors[order], cmin_vids[order]
        _parts_ds(all_parts).map_batches(
            _LabelWriter(marked_dir, cmin_colors, cmin_vids, labels_dir,
                         f"r{rnd}"),
            batch_format="pyarrow", batch_size=1,
        ).take_all()

        n_remaining = n_unmarked
        if not n_unmarked:
            break

        # 5. surviving edges: src-side drop is shard-local, dst-side is
        # the round's second (and last) hash exchange; shards land as
        # the next round's partitioned parquet input
        nxt_dir = os.path.join(workdir, f"edges_{rnd + 1}")
        os.makedirs(nxt_dir)
        ecounts = (
            _parts_ds(all_parts)
            .map_batches(
                _DropMarked(os.path.join(gdir, "edges"), marked_dir, P),
                batch_format="pyarrow", batch_size=1,
            )
            .groupby("dpart")
            .map_groups(
                _DropMarkedDstWriter(marked_dir, nxt_dir),
                batch_format="pyarrow",
            )
            .take_all()
        )
        n_next_edges = _take_parts(ecounts)
        verts_dir = nverts_dir
        if not n_next_edges:
            # everything left is edge-free → singleton SCCs
            _parts_ds(all_parts).map_batches(
                _SinglesWriter(verts_dir, None, labels_dir,
                               f"r{rnd}-tail-singles"),
                batch_format="pyarrow", batch_size=1,
            ).take_all()
            n_remaining = 0
            break
        cur_edges = rd.read_parquet(sorted(glob.glob(
            os.path.join(nxt_dir, "part-*.parquet"))))

    if n_remaining:
        raise RuntimeError(f"scc did not converge in {max_outer} rounds")

    files = sorted(glob.glob(os.path.join(labels_dir, "*.parquet")))
    if not files:
        return pa.table(
            {"vid": pa.array([], pa.int64()), "scc": pa.array([], pa.int64())}
        )
    out = pa.concat_tables(pq.read_table(f) for f in files)
    return out.sort_by("vid")
