"""Partitioned graph build — the rebuild of the reference's loading path.

The reference loads vertices/edges into per-worker open-addressing hash
maps with compressed adjacency (``loading/Loading.scala:27-98``,
``storage/VertexMapStorage.scala:38-55``, ``util/SplayIntSet.scala``).
Here the graph is two partitioned Parquet table sets plus object-store
CSR blocks:

* ``edges/part-{p}.parquet``   — (src, dst, weight), hash(src)%P == p,
  sorted by (src, dst) within the shard (the CSR layout).
* ``vertices/part-{p}.parquet``— (vid, out_degree, sum_out_weight, part),
  hash(vid)%P == p, sorted by vid. ``sum_out_weight`` mirrors the
  reference's ``SumOfOutWeights`` vertex mixin
  (``SumOfOutWeights.scala:22-49``).
* CSR per partition: numpy (src_ids, indptr, dst, weight, sum_out_weight)
  built once and ``ray.put`` into the object store — every signal task
  reads it zero-copy, mirroring the reference keeping adjacency in
  worker heap (``MemoryEfficientDataGraphVertex.scala:57``).

Build is one task graph on object refs, with no Ray Data shuffle: the
prepared edge blocks stream out of the input Dataset, one split task per
block routes its rows to R = min(P, cluster CPUs) reducers (partition p
belongs to reducer p % R, the executors' ownership rule), R edge tasks
write the CSR shards of their partitions and emit pre-deduped per-vertex
degree contributions split by vid-partition, and R vertex tasks merge
those into the vertex shards. No driver-side loops over rows.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from signal_collect_ray.exchange import (
    block_refs,
    by_owner,
    concat,
    groups,
    num_reducers,
    route,
    submit,
)
from signal_collect_ray.util import isin_sorted, part_of, segment_starts

_EDGE_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64()), ("weight", pa.float64())]
)

# dst_gidx annotation: below this many vertex-id bytes (1 GiB = 134M
# vertices) the vid arrays broadcast once through the object store; above
# it the co-partitioned join path runs instead.
BROADCAST_VIDS_BYTES_LIMIT = 1 << 30


def _to_np(tbl: pa.Table, col: str) -> np.ndarray:
    return tbl.column(col).combine_chunks().to_numpy(zero_copy_only=False)


class _EdgeShardWriter:
    """Per src-partition group: writes the CSR shard and returns
    per-vertex degree contributions (srcs exact, dsts deduped)."""

    __name__ = "_EdgeShardWriter"

    def __init__(
        self, edges_tmp_dir: str, num_partitions: int, dedup: bool = False,
        part_fn=None,
    ):
        self.dir = edges_tmp_dir
        self.P = num_partitions
        self.dedup = dedup
        self.part_fn = part_fn or part_of

    def __call__(self, tbl: pa.Table) -> pa.Table:
        src = _to_np(tbl, "src")
        dst = _to_np(tbl, "dst")
        weight = _to_np(tbl, "weight")
        p = int(_to_np(tbl, "part")[0])
        order = np.lexsort((dst, src))
        src, dst, weight = src[order], dst[order], weight[order]
        if "kind" in tbl.column_names and len(src):
            # mutation path (Graph.update): any (src,dst) pair carrying a
            # removal marker (kind=1) is dropped entirely — all rows of
            # the pair share this group (hashed by src) and are adjacent
            # after the sort.
            kind = _to_np(tbl, "kind")[order]
            # exact pair boundaries: new pair where src or dst changes
            bound = np.empty(len(src), dtype=bool)
            bound[0] = True
            np.not_equal(src[1:], src[:-1], out=bound[1:])
            bound[1:] |= dst[1:] != dst[:-1]
            starts = np.flatnonzero(bound)
            removed = np.maximum.reduceat(kind, starts) > 0
            keep = ~np.repeat(
                removed, np.diff(np.append(starts, len(src)))
            )
            src, dst, weight = src[keep], dst[keep], weight[keep]
        if self.dedup and len(src):
            # exact global (src,dst) dedup — all rows with this src hash
            # land in this group, and rows arrive sorted by (src,dst).
            # dedup=True/"max" keeps the MAX weight per pair
            # (deterministic regardless of the unspecified arrival order
            # of equal-key rows); dedup="sum" SUMS the weights — the
            # graph-contraction combine (parallel edges collapse to one
            # with their multiplicity/total weight).
            keep = np.empty(len(src), dtype=bool)
            keep[0] = True
            np.not_equal(src[1:], src[:-1], out=keep[1:])
            keep[1:] |= dst[1:] != dst[:-1]
            starts = np.flatnonzero(keep)
            reduce = np.add if self.dedup == "sum" else np.maximum
            weight = reduce.reduceat(weight, starts)
            src, dst = src[keep], dst[keep]
        out = pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "weight": pa.array(weight, pa.float64()),
            }
        )
        pq.write_table(out, os.path.join(self.dir, f"part-{p:05d}.parquet"))

        starts = segment_starts(src)
        src_ids = src[starts]
        counts = np.diff(np.append(starts, len(src)))
        sumw = np.add.reduceat(weight, starts) if len(starts) else weight[:0]
        dst_u = np.unique(dst)
        vid = np.concatenate([src_ids, dst_u])
        outd = np.concatenate([counts, np.zeros(len(dst_u), dtype=np.int64)])
        w = np.concatenate([sumw, np.zeros(len(dst_u))])
        return pa.table(
            {
                "vpart": pa.array(self.part_fn(vid, self.P), pa.int32()),
                "vid": pa.array(vid, pa.int64()),
                "out_degree": pa.array(outd, pa.int64()),
                "sum_out_weight": pa.array(w, pa.float64()),
            }
        )


class _VertexShardWriter:
    """Per vid-partition group: final degree merge + shard write;
    returns one stats row per partition."""

    __name__ = "_VertexShardWriter"

    def __init__(self, vertices_tmp_dir: str, exclude: Optional[np.ndarray] = None):
        self.dir = vertices_tmp_dir
        self.exclude = exclude  # sorted vid array, or None

    def __call__(self, tbl: pa.Table) -> pa.Table:
        p = int(_to_np(tbl, "vpart")[0])
        vid = _to_np(tbl, "vid")
        outd = _to_np(tbl, "out_degree")
        sumw = _to_np(tbl, "sum_out_weight")
        if self.exclude is not None and len(vid):
            # explicit vertex-set hole (reference graphs are addVertex-
            # defined; an edge may target a vertex that was never added —
            # NonExistentVertexHandlerSpec). Drop excluded vids here; the
            # engine's undeliverable handler decides what happens to
            # signals addressed to them.
            hit, _ = isin_sorted(self.exclude, vid)
            vid, outd, sumw = vid[~hit], outd[~hit], sumw[~hit]
        order = np.argsort(vid, kind="stable")
        vid, outd, sumw = vid[order], outd[order], sumw[order]
        starts = segment_starts(vid)
        vid_u = vid[starts]
        outd_u = np.add.reduceat(outd, starts) if len(starts) else outd[:0]
        sumw_u = np.add.reduceat(sumw, starts) if len(starts) else sumw[:0]
        out = pa.table(
            {
                "vid": pa.array(vid_u, pa.int64()),
                "out_degree": pa.array(outd_u, pa.int64()),
                "sum_out_weight": pa.array(sumw_u, pa.float64()),
                "part": pa.array(np.full(len(vid_u), p, dtype=np.int32), pa.int32()),
            }
        )
        pq.write_table(out, os.path.join(self.dir, f"part-{p:05d}.parquet"))
        return pa.table(
            {
                "part": pa.array([p], pa.int32()),
                "n_vertices": pa.array([len(vid_u)], pa.int64()),
            }
        )


# -- the build's task graph: blocks → split → R edge tasks → R vertex tasks
def _edge_task(edges_tmp: str, P: int, R: int, dedup, part_fn, *pieces) -> list:
    """Writes the CSR shard of every partition it received rows for;
    returns the degree contributions split by ``vpart % R``, then the
    number of edge rows it wrote."""
    tbl = concat(pieces)
    contribs, written = None, 0
    if tbl is not None:
        write = _EdgeShardWriter(edges_tmp, P, dedup, part_fn=part_fn)
        contribs = pa.concat_tables([write(g) for g in groups(tbl, "part")])
        # srcs carry their exact out-degree, dsts 0: the shard row count
        written = int(_to_np(contribs, "out_degree").sum())
    return [*by_owner(contribs, "vpart", R), written]


def _vertex_task(vertices_tmp: str, exclude, *pieces) -> list:
    """Writes the vertex shard of every partition it received
    contributions for; returns their stats rows."""
    tbl = concat(pieces)
    if tbl is None:
        return []
    write = _VertexShardWriter(vertices_tmp, exclude)
    return [write(g).to_pylist()[0] for g in groups(tbl, "vpart")]


def _dst_gidx_path(num_vertices: int) -> str:
    """How ``_add_dst_gidx`` annotates a graph of this many vertices."""
    return "broadcast" if 8 * num_vertices <= BROADCAST_VIDS_BYTES_LIMIT else "join"


def _load_csr(path: str) -> Dict[str, np.ndarray]:
    tbl = pq.read_table(path)
    src = _to_np(tbl, "src")
    dst = _to_np(tbl, "dst")
    weight = _to_np(tbl, "weight")
    starts = segment_starts(src)
    indptr = np.append(starts, len(src)).astype(np.int64)
    sumw = np.add.reduceat(weight, starts) if len(starts) else weight[:0]
    csr = {
        "src_ids": src[starts] if len(starts) else src[:0],
        "indptr": indptr,
        "dst": dst,
        "weight": weight,
        "sum_out_weight": sumw,
    }
    if "dst_gidx" in tbl.column_names:
        csr["dst_gidx"] = _to_np(tbl, "dst_gidx")
    return csr


class Graph:
    """Handle over a built, partitioned graph directory."""

    def __init__(self, graph_dir: str, part_fn=None):
        self.graph_dir = graph_dir
        with open(os.path.join(graph_dir, "meta.json")) as f:
            meta = json.load(f)
        self.num_partitions: int = meta["num_partitions"]
        self.num_vertices: int = meta["num_vertices"]
        self.num_edges: int = meta["num_edges"]
        self.meta = meta
        mapper = meta.get("mapper", "default")
        if part_fn is None:
            if mapper != "default":
                raise ValueError(
                    f"graph {graph_dir!r} was built with a custom "
                    f"vertex→partition mapper ({mapper!r}); pass the SAME "
                    "part_fn to Graph.load — signal routing must agree "
                    "with the build-time placement"
                )
            part_fn = part_of
        #: vertex→partition mapper (reference VertexToWorkerMapper,
        #: DefaultVertexToWorkerMapper.scala:28-35 / MapperSpec.scala:
        #: 34-83): both executors route signals with THIS function, so it
        #: must be the one the graph was partitioned with.
        self.part_fn = part_fn
        self._csr_refs: Optional[Dict[int, "object"]] = None

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls, edges_ds, graph_dir: str, num_partitions: int = 8,
        dedup: bool = False, exclude_vertices=None, part_fn=None,
    ) -> "Graph":
        """Build partitioned graph storage from an edge Dataset.

        ``edges_ds`` columns: src:int64, dst:int64 [, weight:float64=1.0].
        ``dedup=True`` (or ``"max"``) drops exact duplicate (src, dst)
        rows inside the build's edge tasks, keeping the MAX weight per
        pair (deterministic regardless of arrival order) — free global
        dedup with no extra exchange. ``dedup="sum"`` instead SUMS the
        weights per pair: the graph-contraction combine (see
        :meth:`contracted`).

        ``exclude_vertices``: optional vid array removed from the vertex
        table (addVertex-defined graphs where an edge targets a vertex
        that was never added). Edges to them stay in the CSR with
        ``dst_gidx = -1`` and ``meta["n_dangling"]`` counts them; the
        durable engine's ``on_undeliverable`` handler decides their fate.

        ``part_fn``: pluggable vertex→partition mapper, a picklable
        ``(vids: int64[:], P) -> int32[:]`` callable (reference
        ``GraphBuilder.withMapperFactory`` / ``MapperSpec.scala:34-83``;
        e.g. ``util.HostAffinityMapper`` for host-locality placement).
        Default: the multiplicative hash (``util.part_of``, mirroring
        ``DefaultVertexToWorkerMapper.scala:28-35``). The mapper is
        recorded in graph meta and MUST be re-passed to ``Graph.load``.
        """
        import pyarrow.compute as pc
        import ray

        from signal_collect_ray.engine import remote

        pf = part_fn or part_of

        if os.path.exists(graph_dir):
            shutil.rmtree(graph_dir)
        edges_tmp = os.path.join(graph_dir, ".edges.tmp")
        vertices_tmp = os.path.join(graph_dir, ".vertices.tmp")
        os.makedirs(edges_tmp)
        os.makedirs(vertices_tmp)

        P = num_partitions

        def add_cols(tbl: pa.Table) -> pa.Table:
            cols = {"src": tbl.column("src"), "dst": tbl.column("dst")}
            if "weight" in tbl.column_names:
                cols["weight"] = pc.cast(tbl.column("weight"), pa.float64())
            else:
                cols["weight"] = pa.array(
                    np.ones(len(tbl)), pa.float64()
                )
            if "kind" in tbl.column_names:
                cols["kind"] = tbl.column("kind")
            src = tbl.column("src").combine_chunks().to_numpy(zero_copy_only=False)
            cols["part"] = pa.array(pf(src, P), pa.int32())
            return pa.table(cols)

        excl = (
            np.unique(np.asarray(exclude_vertices, dtype=np.int64))
            if exclude_vertices is not None
            else None
        )
        # partition p belongs to reducer p % R, as in the executors. The
        # blocks stream straight into the split tasks; at R == 1 the one
        # edge task takes them as they are.
        R = num_reducers(P)
        prepared = edges_ds.map_batches(add_cols, batch_format="pyarrow")
        pieces = route(([ref] for ref in block_refs(prepared)), "part", R)
        edge = [
            submit(_edge_task, R + 1, edges_tmp, P, R, dedup, pf, *pieces[r])
            for r in range(R)
        ]
        vertex = remote(_vertex_task)
        rows = [
            row
            for rows in ray.get([
                vertex.remote(vertices_tmp, excl, *[e[r] for e in edge])
                for r in range(R)
            ])
            for row in rows
        ]
        # every edge row written, excluded srcs included: the shards
        # keep their edges
        num_edges = int(sum(ray.get([e[R] for e in edge])))

        os.rename(edges_tmp, os.path.join(graph_dir, "edges"))
        os.rename(vertices_tmp, os.path.join(graph_dir, "vertices"))
        # partitions with no vertices get no shard file — that is fine;
        # the engine iterates over existing shards only.
        part_sizes = {int(r["part"]): int(r["n_vertices"]) for r in rows}
        num_vertices = int(sum(r["n_vertices"] for r in rows))
        meta = {
            "num_partitions": P,
            "num_vertices": num_vertices,
            "num_edges": num_edges,
            "parts_with_vertices": sorted(int(r["part"]) for r in rows),
            "part_sizes": {str(p): n for p, n in sorted(part_sizes.items())},
            "mapper": (
                "default"
                if pf is part_of
                else getattr(pf, "mapper_name", "custom")
            ),
            # the build's decisions: reducer count and dst_gidx strategy
            "build_reducers": R,
            "dst_gidx_path": _dst_gidx_path(num_vertices),
        }
        with open(os.path.join(graph_dir, "meta.json"), "w") as f:
            json.dump(meta, f, indent=2)
        g = cls(graph_dir, part_fn=part_fn)
        n_dangling = g._add_dst_gidx()
        if n_dangling:
            g.meta["n_dangling"] = n_dangling
            with open(os.path.join(graph_dir, "meta.json"), "w") as f:
                json.dump(g.meta, f, indent=2)
        return g

    @classmethod
    def from_edge_arrays(
        cls,
        src,
        dst,
        graph_dir: str,
        weight=None,
        num_partitions: int = 8,
        symmetric: bool = False,
        exclude_vertices=None,
        part_fn=None,
    ) -> "Graph":
        """Test/fixture helper: build from in-memory edge arrays."""
        import ray.data as rd

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = (
            np.ones(len(src))
            if weight is None
            else np.asarray(weight, dtype=np.float64)
        )
        if symmetric:
            src, dst, w = (
                np.concatenate([src, dst]),
                np.concatenate([dst, src]),
                np.concatenate([w, w]),
            )
        tbl = pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "weight": pa.array(w, pa.float64()),
            }
        )
        return cls.build(
            rd.from_arrow(tbl), graph_dir, num_partitions,
            exclude_vertices=exclude_vertices, part_fn=part_fn,
        )

    @classmethod
    def load(cls, graph_dir: str, part_fn=None) -> "Graph":
        """Reopen a built graph. A graph built with a custom ``part_fn``
        must be reopened with the SAME one (meta records the mapper name
        and ``__init__`` refuses otherwise)."""
        return cls(graph_dir, part_fn=part_fn)

    def contracted(
        self, mapping_fn, graph_dir: str, num_partitions: Optional[int] = None
    ) -> "Graph":
        """Graph contraction / coarsening: map every vertex id through
        ``mapping_fn`` (vectorized ``np.int64[:] -> np.int64[:]``, e.g.
        url-vid → host-vid), drop the resulting self-loops, and collapse
        parallel edges into one whose weight is the SUM of the
        originals — the standard host-graph aggregation of a web link
        graph (Common Crawl's host-level webgraph product), expressed as
        one ``map_batches`` over the edge shards feeding
        :meth:`build`'s own exchange with the ``dedup="sum"`` combine in
        its edge tasks, so contraction costs no exchange beyond the
        build itself."""

        def contract(tbl: pa.Table) -> pa.Table:
            src = mapping_fn(_to_np(tbl, "src"))
            dst = mapping_fn(_to_np(tbl, "dst"))
            w = _to_np(tbl, "weight")
            keep = src != dst
            s, d, w = src[keep], dst[keep], w[keep]
            if not len(s):
                return pa.table(
                    {
                        "src": pa.array(s, pa.int64()),
                        "dst": pa.array(d, pa.int64()),
                        "weight": pa.array(w, pa.float64()),
                    }
                )
            # in-batch pre-combine before the build's exchange
            order = np.lexsort((d, s))
            s, d, w = s[order], d[order], w[order]
            bound = np.empty(len(s), dtype=bool)
            bound[0] = True
            np.not_equal(s[1:], s[:-1], out=bound[1:])
            bound[1:] |= d[1:] != d[:-1]
            starts = np.flatnonzero(bound)
            return pa.table(
                {
                    "src": pa.array(s[starts], pa.int64()),
                    "dst": pa.array(d[starts], pa.int64()),
                    "weight": pa.array(
                        np.add.reduceat(w, starts), pa.float64()
                    ),
                }
            )

        return Graph.build(
            self.edges_ds().map_batches(contract, batch_format="pyarrow"),
            graph_dir,
            num_partitions=num_partitions or self.num_partitions,
            dedup="sum",
        )

    def update(
        self,
        graph_dir: str,
        add_edges_ds=None,
        remove_edges_ds=None,
        dedup: bool = True,
    ) -> "Graph":
        """Batch graph mutation: rebuild into ``graph_dir`` with edges
        added and/or removed — the batch-analytics rebuild of the
        reference's ``GraphEditor.addEdge``/``removeEdge``
        (``GraphEditor.scala:37-201``). ``dedup=True`` mirrors the
        reference's idempotent duplicate-add handling
        (``features/MultipleVertexAdditionsSpec.scala``).

        One co-partitioned exchange, the build's own: current edges ∪
        additions ∪ removal markers all hash to the same src partition,
        so the build's edge task applies removals vectorized inside that
        partition before the shard write.
        """
        import ray.data as rd
        import pyarrow.compute as pc

        def with_kind(ds, kind: int, default_weight: float = 1.0):
            def fn(tbl: pa.Table) -> pa.Table:
                n = len(tbl)
                w = (
                    pc.cast(tbl.column("weight"), pa.float64())
                    if "weight" in tbl.column_names
                    else pa.array(np.full(n, default_weight), pa.float64())
                )
                return pa.table(
                    {
                        "src": pc.cast(tbl.column("src"), pa.int64()),
                        "dst": pc.cast(tbl.column("dst"), pa.int64()),
                        "weight": w,
                        "kind": pa.array(
                            np.full(n, kind, dtype=np.int8), pa.int8()
                        ),
                    }
                )

            return ds.map_batches(fn, batch_format="pyarrow")

        parts = [with_kind(self.edges_ds(), 0)]
        if add_edges_ds is not None:
            parts.append(with_kind(add_edges_ds, 0))
        if remove_edges_ds is not None:
            parts.append(with_kind(remove_edges_ds, 1))
        combined = parts[0]
        for extra in parts[1:]:
            combined = combined.union(extra)
        return Graph.build(
            combined,
            graph_dir,
            num_partitions=self.num_partitions,
            dedup=dedup,
            part_fn=None if self.part_fn is part_of else self.part_fn,
        )

    # -- accessors ---------------------------------------------------------
    def edge_files(self):
        d = os.path.join(self.graph_dir, "edges")
        return [os.path.join(d, f) for f in sorted(os.listdir(d))]

    def vertex_files(self):
        d = os.path.join(self.graph_dir, "vertices")
        return [os.path.join(d, f) for f in sorted(os.listdir(d))]

    def edges_ds(self, columns=("src", "dst", "weight")):
        """Edge table as a Dataset. Projects to the public (src, dst,
        weight) triple by default — internal CSR annotations like
        ``dst_gidx`` stay out of downstream shuffles (+8 bytes/edge
        through every exchange otherwise). Pass ``columns=None`` for
        every stored column."""
        import ray.data as rd

        return rd.read_parquet(
            self.edge_files(), columns=list(columns) if columns else None
        )

    def vertices_ds(self):
        import ray.data as rd

        return rd.read_parquet(self.vertex_files())

    def part_offsets(self):
        """Global dense index layout: partition p's vertices (sorted by
        vid) occupy ``[offset[p], offset[p] + size[p])`` of one dense
        vector of length num_vertices. Returns (offsets, sizes) int64
        arrays of length num_partitions."""
        sizes = np.zeros(self.num_partitions, dtype=np.int64)
        for p, n in self.meta.get("part_sizes", {}).items():
            sizes[int(p)] = n
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        return offsets, sizes

    def _add_dst_gidx(self) -> int:
        """Post-build pass: annotate every edge with the global dense
        index of its destination (the GraphX-style routing-table join).
        Lets executors aggregate signals with bincount / minimum.at —
        no sorting in the superstep hot path. Destinations missing from
        the vertex table (``exclude_vertices`` builds) get
        ``dst_gidx = -1``; returns how many (``meta["n_dangling"]``).

        Two strategies, picked by vertex-table size (the repo's standard
        byte-capped-broadcast-with-join-fallback pattern): below
        BROADCAST_VIDS_BYTES_LIMIT the vid arrays ship ONCE via
        ``ray.put`` and each edge shard annotates in place (measured ~3x
        faster than the join at 1.6M edges); above it, a co-partitioned
        tagged-union join (the ``_attach`` pattern from
        ``functions/joins.py``) — two exchanges of 3 ints/edge, no
        driver materialization of the vertex set."""
        if _dst_gidx_path(self.num_vertices) == "broadcast":
            return self._add_dst_gidx_broadcast()
        return self._add_dst_gidx_join()

    def _add_dst_gidx_broadcast(self) -> int:
        import ray

        P = self.num_partitions
        offsets, _ = self.part_offsets()
        vids = {}
        for f in self.vertex_files():
            p = int(os.path.basename(f).split("-")[1].split(".")[0])
            vids[p] = (
                pq.read_table(f, columns=["vid"]).column("vid")
                .combine_chunks().to_numpy(zero_copy_only=False)
            )
        ref = ray.put(vids)
        pf = self.part_fn

        @ray.remote
        def annotate(path, ref_w, offsets, P):
            # ref wrapped in a list so Ray does not auto-deref the
            # argument per task; fetched zero-copy once inside
            vmap = ray.get(ref_w[0])
            tbl = pq.read_table(path)
            dst = tbl.column("dst").combine_chunks().to_numpy(zero_copy_only=False)
            dparts = pf(dst, P)
            gidx = np.full(len(dst), -1, dtype=np.int64)
            for p in np.unique(dparts):
                sel = dparts == p
                vp = vmap.get(int(p))
                if vp is None or not len(vp):
                    continue
                found, pos_c = isin_sorted(vp, dst[sel])
                gidx[sel] = np.where(found, offsets[p] + pos_c, -1)
            out = tbl.append_column("dst_gidx", pa.array(gidx, pa.int64()))
            pq.write_table(out, path)
            return int((gidx < 0).sum())

        return int(
            sum(
                ray.get(
                    [annotate.remote(f, [ref], offsets, P) for f in self.edge_files()]
                )
            )
        )

    def _add_dst_gidx_join(self) -> int:
        import ray.data as rd

        P = self.num_partitions
        offsets, _ = self.part_offsets()
        vfiles = self.vertex_files()
        efiles = self.edge_files()
        pf = self.part_fn
        if not efiles:
            return 0

        def _pnum(path: str) -> int:
            return int(os.path.basename(path).split("-")[1].split(".")[0])

        def emit_mapping(tbl: pa.Table) -> pa.Table:
            pieces = []
            for path in tbl.column("path").to_pylist():
                p = _pnum(path)
                vids = (
                    pq.read_table(path, columns=["vid"]).column("vid")
                    .combine_chunks().to_numpy(zero_copy_only=False)
                )
                n = len(vids)
                pieces.append(
                    pa.table(
                        {
                            "dpart": pa.array(
                                np.full(n, p, dtype=np.int32), pa.int32()
                            ),
                            "shard": pa.array(
                                np.full(n, -1, dtype=np.int32), pa.int32()
                            ),
                            "row": pa.array(np.zeros(n, np.int64), pa.int64()),
                            "key": pa.array(vids, pa.int64()),
                            # vertex shards are vid-sorted → dense rank
                            "gidx": pa.array(
                                offsets[p] + np.arange(n, dtype=np.int64),
                                pa.int64(),
                            ),
                        }
                    )
                )
            return pa.concat_tables(pieces)

        def emit_probes(tbl: pa.Table) -> pa.Table:
            pieces = []
            for path in tbl.column("path").to_pylist():
                p = _pnum(path)
                dst = (
                    pq.read_table(path, columns=["dst"]).column("dst")
                    .combine_chunks().to_numpy(zero_copy_only=False)
                )
                n = len(dst)
                pieces.append(
                    pa.table(
                        {
                            "dpart": pa.array(pf(dst, P), pa.int32()),
                            "shard": pa.array(
                                np.full(n, p, dtype=np.int32), pa.int32()
                            ),
                            "row": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
                            "key": pa.array(dst, pa.int64()),
                            "gidx": pa.array(
                                np.full(n, -1, dtype=np.int64), pa.int64()
                            ),
                        }
                    )
                )
            return pa.concat_tables(pieces)

        def resolve(tbl: pa.Table) -> pa.Table:
            shard = _to_np(tbl, "shard")
            row = _to_np(tbl, "row")
            key = _to_np(tbl, "key")
            gidx = _to_np(tbl, "gidx")
            ism = shard < 0
            mv, mg = key[ism], gidx[ism]
            order = np.argsort(mv, kind="stable")
            mv, mg = mv[order], mg[order]
            ek, es, er = key[~ism], shard[~ism], row[~ism]
            out = np.full(len(ek), -1, dtype=np.int64)
            if len(mv) and len(ek):
                pos = np.searchsorted(mv, ek)
                pos_c = np.minimum(pos, len(mv) - 1)
                found = (pos < len(mv)) & (mv[pos_c] == ek)
                out[found] = mg[pos_c[found]]
            return pa.table(
                {
                    "shard": pa.array(es, pa.int32()),
                    "row": pa.array(er, pa.int64()),
                    "gidx": pa.array(out, pa.int64()),
                }
            )

        edge_dir = os.path.join(self.graph_dir, "edges")

        def rewrite(tbl: pa.Table) -> pa.Table:
            p = int(tbl.column("shard")[0].as_py())
            row = _to_np(tbl, "row")
            gidx = _to_np(tbl, "gidx")
            g = np.empty(len(row), dtype=np.int64)
            g[row] = gidx
            path = os.path.join(edge_dir, f"part-{p:05d}.parquet")
            etbl = pq.read_table(path)
            etbl = etbl.append_column("dst_gidx", pa.array(g, pa.int64()))
            pq.write_table(etbl, path)
            return pa.table(
                {"n_dangling": pa.array([int((g < 0).sum())], pa.int64())}
            )

        def _paths_ds(paths):
            return rd.from_arrow(
                pa.table({"path": pa.array(paths, pa.string())})
            ).repartition(len(paths))

        mapping = _paths_ds(vfiles).map_batches(
            emit_mapping, batch_format="pyarrow"
        ) if vfiles else None
        probes = _paths_ds(efiles).map_batches(emit_probes, batch_format="pyarrow")
        both = probes.union(mapping) if mapping is not None else probes
        resolved = both.groupby("dpart").map_groups(
            resolve, batch_format="pyarrow"
        )
        counts = resolved.groupby("shard").map_groups(
            rewrite, batch_format="pyarrow"
        ).take_all()
        return int(sum(r["n_dangling"] for r in counts))

    def csr_refs(self) -> Dict[int, "object"]:
        """{part → ObjectRef[CSR dict]} — built once, shared zero-copy by
        all signal tasks across all supersteps."""
        if self._csr_refs is None:
            import ray

            load = ray.remote(_load_csr)
            refs = {}
            for f in self.edge_files():
                p = int(os.path.basename(f).split("-")[1].split(".")[0])
                refs[p] = load.remote(f)
            # materialize eagerly so failures surface here
            ray.wait(list(refs.values()), num_returns=len(refs))
            self._csr_refs = refs
        return self._csr_refs
