"""Graph.build on hostile inputs, shard by shard, against a numpy
reference builder that shares no code with the build.

Every edge shard, vertex shard and ``meta.json`` is compared exactly.
Where the build keeps duplicate (src, dst) rows (``dedup=False``) their
order inside the shard depends on block arrival, so rows with equal
(src, dst) compare as a multiset. Weights are dyadic, so every sum is
exact in any order.
"""

import json
import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from signal_collect_ray import Graph
from signal_collect_ray import graph as graph_mod
from signal_collect_ray.util import HostAffinityMapper, part_of

MAX_ID = 2**63 - 1


def _tbl(src, dst, weight=None):
    cols = {
        "src": pa.array(np.asarray(src, dtype=np.int64), pa.int64()),
        "dst": pa.array(np.asarray(dst, dtype=np.int64), pa.int64()),
    }
    if weight is not None:
        cols["weight"] = pa.array(np.asarray(weight, dtype=np.float64), pa.float64())
    return pa.table(cols)


def _reference(src, dst, weight, P, pf=part_of, dedup=False, exclude=None, kind=None):
    """Expected ({p: edge columns}, {p: vertex columns}, meta) of a build."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    # every partition that receives an input row writes an edge shard,
    # even if removals empty it
    edge_parts = sorted(set(pf(src, P).tolist()))
    if kind is not None:
        removed = {(s, d) for s, d, k in zip(src.tolist(), dst.tolist(), kind) if k}
        keep = np.array(
            [(s, d) not in removed for s, d in zip(src.tolist(), dst.tolist())], dtype=bool
        )
        src, dst, weight = src[keep], dst[keep], weight[keep]
    if dedup:
        pairs = {}
        for s, d, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
            if (s, d) not in pairs:
                pairs[(s, d)] = w
            elif dedup == "sum":
                pairs[(s, d)] += w
            else:
                pairs[(s, d)] = max(pairs[(s, d)], w)
        keys = sorted(pairs)
        src = np.array([k[0] for k in keys], dtype=np.int64)
        dst = np.array([k[1] for k in keys], dtype=np.int64)
        weight = np.array([pairs[k] for k in keys], dtype=np.float64)
    order = np.lexsort((weight, dst, src))
    src, dst, weight = src[order], dst[order], weight[order]
    ep = pf(src, P)

    # vertices: every surviving endpoint; a vid-partition that only
    # excluded vertices reach still writes an (empty) shard
    vids = np.unique(np.concatenate([src, dst]))
    vertex_parts = sorted(set(pf(vids, P).tolist()))
    if exclude is not None:
        vids = vids[~np.isin(vids, np.asarray(exclude, dtype=np.int64))]
    vparts = pf(vids, P)
    outd = np.array([(src == v).sum() for v in vids], dtype=np.int64)
    sumw = np.array([weight[src == v].sum() for v in vids], dtype=np.float64)
    vertices = {
        p: {
            "vid": vids[vparts == p],
            "out_degree": outd[vparts == p],
            "sum_out_weight": sumw[vparts == p],
            "part": np.full(int((vparts == p).sum()), p, dtype=np.int32),
        }
        for p in vertex_parts
    }
    sizes = {p: len(v["vid"]) for p, v in vertices.items()}
    offset = {p: sum(n for q, n in sizes.items() if q < p) for p in range(P)}
    gidx = np.full(len(dst), -1, dtype=np.int64)
    for i, d in enumerate(dst.tolist()):
        p = int(pf(np.array([d], dtype=np.int64), P)[0])
        if p in vertices:
            hit = np.flatnonzero(vertices[p]["vid"] == d)
            if len(hit):
                gidx[i] = offset[p] + hit[0]
    edges = {
        p: {
            "src": src[ep == p],
            "dst": dst[ep == p],
            "weight": weight[ep == p],
            "dst_gidx": gidx[ep == p],
        }
        for p in edge_parts
    }
    meta = {
        "num_partitions": P,
        "num_vertices": int(sum(sizes.values())),
        # every edge row in the shards, edges out of an excluded
        # vertex included
        "num_edges": len(src),
        "parts_with_vertices": vertex_parts,
        "part_sizes": {str(p): n for p, n in sorted(sizes.items())},
        "mapper": "default" if pf is part_of else pf.mapper_name,
        "build_reducers": min(P, int(ray.cluster_resources()["CPU"])),
        "dst_gidx_path": "broadcast",
    }
    if (gidx < 0).any():
        meta["n_dangling"] = int((gidx < 0).sum())
    return edges, vertices, meta


def _shards(path):
    if not os.path.isdir(path):
        return {}
    return {
        int(f.split("-")[1].split(".")[0]): pq.read_table(os.path.join(path, f))
        for f in sorted(os.listdir(path))
    }


def _check(g, expected, multiset=False):
    want_edges, want_vertices, want_meta = expected
    with open(os.path.join(g.graph_dir, "meta.json")) as f:
        assert json.load(f) == want_meta
    got = _shards(os.path.join(g.graph_dir, "edges"))
    assert sorted(got) == sorted(want_edges)
    for p, tbl in got.items():
        assert tbl.schema.names == ["src", "dst", "weight", "dst_gidx"]
        assert tbl.schema.types == [pa.int64(), pa.int64(), pa.float64(), pa.int64()]
        cols = {c: tbl.column(c).to_numpy() for c in tbl.schema.names}
        # CSR layout: sorted by (src, dst) whatever the dedup mode
        assert (np.lexsort((cols["dst"], cols["src"])) == np.arange(len(cols["src"]))).all()
        if multiset:
            order = np.lexsort((cols["weight"], cols["dst"], cols["src"]))
            cols = {c: v[order] for c, v in cols.items()}
        for c in cols:
            np.testing.assert_array_equal(cols[c], want_edges[p][c], err_msg=f"edges {p} {c}")
    got = _shards(os.path.join(g.graph_dir, "vertices"))
    assert sorted(got) == sorted(want_vertices)
    for p, tbl in got.items():
        assert tbl.schema.names == ["vid", "out_degree", "sum_out_weight", "part"]
        assert tbl.schema.types == [pa.int64(), pa.int64(), pa.float64(), pa.int32()]
        for c in tbl.schema.names:
            np.testing.assert_array_equal(
                tbl.column(c).to_numpy(), want_vertices[p][c], err_msg=f"vertices {p} {c}"
            )


def _hostile_edges():
    # self-loops, duplicate pairs with different dyadic weights, a hub,
    # ids 0 and 2^63 - 1
    src = np.array([0, 0, 0, 5, 5, 5, 7, MAX_ID, MAX_ID, 3, 3, 3, 3, 0, 9], dtype=np.int64)
    dst = np.array([0, 5, 5, 5, 7, 7, MAX_ID, 0, MAX_ID, 0, 5, 7, 9, 5, 3], dtype=np.int64)
    w = np.array([0.5, 1.0, 2.25, 4.0, 0.25, 8.0, 1.5, 3.0, 0.75, 1.0, 2.0, 0.5, 4.5, 1.0, 6.0])
    return src, dst, w


@pytest.mark.parametrize("dedup", [False, "max", True, "sum"])
def test_duplicates_self_loops_and_extreme_ids(tmp_path, dedup):
    src, dst, w = _hostile_edges()
    # more blocks than reducers, with empty blocks among them
    blocks = [_tbl(src[i:i + 2], dst[i:i + 2], w[i:i + 2]) for i in range(0, len(src), 2)]
    blocks.insert(3, _tbl([], [], []))
    g = Graph.build(rd.from_arrow(blocks), str(tmp_path / "g"), num_partitions=4, dedup=dedup)
    assert g.meta["build_reducers"] < len(blocks)
    _check(g, _reference(src, dst, w, 4, dedup=dedup), multiset=not dedup)


def test_empty_dataset(tmp_path):
    g = Graph.build(rd.from_arrow(_tbl([], [])), str(tmp_path / "g"), num_partitions=3)
    _check(g, _reference([], [], [], 3))
    assert g.num_vertices == 0 and g.num_edges == 0


def test_empty_and_schemaless_blocks(tmp_path):
    blocks = [_tbl([1], [2]), _tbl([], []), pa.table({}), _tbl([2, 3], [3, 1]), pa.table({})]
    g = Graph.build(rd.from_arrow(blocks), str(tmp_path / "g"), num_partitions=3)
    _check(g, _reference([1, 2, 3], [2, 3, 1], [1.0, 1.0, 1.0], 3))


def test_more_partitions_than_sources(tmp_path):
    # 3 sources over 16 partitions: most partitions get no shard file
    src, dst = [11, 11, 42, 99], [42, 99, 99, 11]
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), num_partitions=16)
    _check(g, _reference(src, dst, np.ones(4), 16))
    assert len(g.edge_files()) <= 3


def test_update_with_removal_markers(tmp_path):
    src, dst, w = _hostile_edges()
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), weight=w, num_partitions=4)
    add = _tbl([5, 5, 12, MAX_ID], [7, 12, 12, 0], [16.0, 1.0, 2.0, 0.5])
    # 5->5 and 9->3 exist; 12->0 does not; 3->9 removed twice
    remove = _tbl([5, 9, 12, 3, 3], [5, 3, 0, 9, 9])
    g2 = g.update(
        str(tmp_path / "g2"), add_edges_ds=rd.from_arrow(add), remove_edges_ds=rd.from_arrow(remove)
    )
    all_src = np.concatenate([src, add["src"].to_numpy(), remove["src"].to_numpy()])
    all_dst = np.concatenate([dst, add["dst"].to_numpy(), remove["dst"].to_numpy()])
    all_w = np.concatenate([w, add["weight"].to_numpy(), np.ones(len(remove))])
    kind = [0] * (len(src) + len(add)) + [1] * len(remove)
    _check(g2, _reference(all_src, all_dst, all_w, 4, dedup=True, kind=kind))


def test_exclude_vertices(tmp_path):
    src, dst, w = _hostile_edges()
    exclude = [7, MAX_ID, 123456]  # 123456 is not in the graph
    g = Graph.build(
        rd.from_arrow(_tbl(src, dst, w)), str(tmp_path / "g"), num_partitions=4,
        exclude_vertices=exclude,
    )
    want = _reference(src, dst, w, 4, exclude=exclude)
    assert want[2]["n_dangling"] > 0
    _check(g, want, multiset=True)


def test_host_affinity_mapper(tmp_path):
    src, dst, w = _hostile_edges()
    mapper = HostAffinityMapper(4)
    g = Graph.build(
        rd.from_arrow(_tbl(src, dst, w)), str(tmp_path / "g"), num_partitions=3,
        part_fn=mapper, dedup=True,
    )
    _check(g, _reference(src, dst, w, 3, pf=mapper, dedup=True))


def test_join_path_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_mod, "BROADCAST_VIDS_BYTES_LIMIT", 0)
    src, dst, w = _hostile_edges()
    g = Graph.build(rd.from_arrow(_tbl(src, dst, w)), str(tmp_path / "g"), num_partitions=4, dedup=True)
    want = _reference(src, dst, w, 4, dedup=True)
    want[2]["dst_gidx_path"] = "join"
    _check(g, want)


def test_meta_records_build_decisions(tmp_path):
    g = Graph.from_edge_arrays([0, 1], [1, 2], str(tmp_path / "g"), num_partitions=8)
    assert g.meta["build_reducers"] == min(8, int(ray.cluster_resources()["CPU"]))
    assert g.meta["dst_gidx_path"] == "broadcast"


def test_build_over_extracted_links_emits_no_schema_warning(tmp_path):
    from signal_collect_ray.sources import pages_to_edges, synthesize_pages_dataset

    records = []

    class _Keep(logging.Handler):
        def emit(self, record):
            records.append(record.getMessage())

    logger = logging.getLogger("ray.data")
    level = logger.level
    handler = _Keep(logging.WARNING)
    logger.setLevel(logging.WARNING)
    logger.addHandler(handler)
    try:
        # five blocks of 520 pages, each above the extractor's 512-page
        # batch, so five edge blocks reach the build: more blocks than
        # partitions is what left a sort shuffle with empty outputs
        pages = synthesize_pages_dataset(2600, avg_links=4, seed=3).repartition(5)
        edges = pages_to_edges(pages)
        g = Graph.build(edges, str(tmp_path / "g"), num_partitions=4)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert g.num_edges > 0
    assert not [m for m in records if "different schema" in m]
