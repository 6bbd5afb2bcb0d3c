"""Small-clique analytics over the oriented edge DAG: exact 4-clique
counting and local-bridge detection.

Reuses the degree-ordered orientation of the triangle pipeline
(`algorithms/triangles.py` — reference parity:
/root/reference/src/main/scala/com/signalcollect/examples/ClusteringCoefficient.scala
computes the 2-hop structures these generalize). Orientation by
(degree, id) makes every clique a totally-ordered DAG, so counting
N+(u) ∩ N+(v) ∩ N+(w) extensions at each oriented triangle counts each
4-clique exactly once — the standard compact-forward generalization.

Partitioning assumption (documented per SURVEY §2 custom-operator
contract): both kernels broadcast the oriented adjacency as a V×V/64
bitset matrix (`ray.put` once, built once per actor), so they require
V ≤ BITSET_VERTEX_LIMIT (2^16 → 512 MB worst case; the derived query
graphs are ≤ 500). Beyond that, the scale path is the triangle
pipeline's co-partitioned wedge exchange with exact rank-key
membership — raise the limit consciously, don't silently spill.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from signal_collect_ray.algorithms.triangles import (
    _oriented_edges,
    _unique_undirected,
)

BITSET_VERTEX_LIMIT = 1 << 16

# 256-entry popcount lookup — numpy 1.26 has no bitwise_count ufunc
_POP8 = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint16
)


def _popcount_rows(m: np.ndarray) -> np.ndarray:
    """Per-row popcount of a (n, B) uint64 matrix via the uint8 LUT."""
    return _POP8[m.view(np.uint8)].reshape(len(m), -1).sum(
        axis=1, dtype=np.int64
    )


def _bitset_matrix(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """(n, ceil(n/64)) uint64 adjacency bitset: row u has bit dst set."""
    words = (n + 63) // 64
    bits = np.zeros((n, words), dtype=np.uint64)
    w = (dst // 64).astype(np.int64)
    b = (dst % 64).astype(np.uint64)
    np.bitwise_or.at(bits, (src.astype(np.int64), w), np.uint64(1) << b)
    return bits


class _CliqueKernel:
    """Actor-pool stage: oriented adjacency bitsets built ONCE per actor
    from the broadcast edge arrays; each oriented-edge batch reduces to
    one int64 partial count."""

    __name__ = "_CliqueKernel"

    def __init__(self, edges_ref, n_vertices: int):
        import ray

        e = ray.get(edges_ref)
        self.n = n_vertices
        self.bits = _bitset_matrix(e["src"], e["dst"], n_vertices)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        u = tbl.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        v = tbl.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        total = 0
        # chunk so the (chunk, V) unpacked mask stays << worker heap
        step = max(1, (1 << 22) // max(1, self.bits.shape[1] * 8))
        for lo in range(0, len(u), step):
            m = self.bits[u[lo:lo + step]] & self.bits[v[lo:lo + step]]
            # triangle corners w per edge row: nonzero bits of m
            byte = m.view(np.uint8)
            mask = np.unpackbits(byte, axis=1, bitorder="little")[
                :, : self.n
            ].astype(bool)
            row, w = np.nonzero(mask)
            if len(row):
                # |M ∩ N+(w)| summed over all (edge, w) triangles
                total += int(_popcount_rows(m[row] & self.bits[w]).sum())
        return pa.table({"partial": pa.array([total], pa.int64())})


def four_clique_count(edges_ds, num_partitions: int = 32) -> int:
    """Exact number of 4-cliques in the undirected simple graph."""
    import ray

    oriented = _oriented_edges(edges_ds, num_partitions)
    src_parts, dst_parts = [], []
    for b in oriented.iter_batches(batch_format="pyarrow", batch_size=None):
        src_parts.append(b.column("src").to_numpy(zero_copy_only=False))
        dst_parts.append(b.column("dst").to_numpy(zero_copy_only=False))
    src = np.concatenate(src_parts) if src_parts else np.empty(0, np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, np.int64)
    n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    if n <= 0:
        return 0
    if n > BITSET_VERTEX_LIMIT:
        raise ValueError(
            f"bitset clique kernel needs V <= {BITSET_VERTEX_LIMIT}, got "
            f"{n}; use the triangle pipeline's wedge-exchange path"
        )
    edges_ref = ray.put({"src": src.astype(np.int64),
                         "dst": dst.astype(np.int64)})
    counted = oriented.map_batches(
        _CliqueKernel,
        fn_constructor_args=(edges_ref, n),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    return int(counted.sum("partial") or 0)


class _BridgeKernel:
    """Local-bridge test per edge batch: (a, b) is a local bridge iff
    the UNDIRECTED neighborhoods share no vertex — one bitset AND + row
    popcount per batch, no per-edge Python loop."""

    __name__ = "_BridgeKernel"

    def __init__(self, edges_ref, n_vertices: int):
        import ray

        e = ray.get(edges_ref)
        src = np.concatenate([e["a"], e["b"]])
        dst = np.concatenate([e["b"], e["a"]])
        self.bits = _bitset_matrix(src, dst, n_vertices)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = tbl.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        common = _popcount_rows(self.bits[a] & self.bits[b])
        keep = common == 0
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
            }
        )


def local_bridges(edges_ds, num_partitions: int = 32):
    """Edges whose endpoints have NO common neighbor (span > 2 — the
    Granovetter local bridges). Returns a Dataset of canonical (a < b)
    rows."""
    import ray

    uniq = _unique_undirected(edges_ds, num_partitions).materialize()
    a_parts, b_parts = [], []
    for t in uniq.iter_batches(batch_format="pyarrow", batch_size=None):
        a_parts.append(t.column("a").to_numpy(zero_copy_only=False))
        b_parts.append(t.column("b").to_numpy(zero_copy_only=False))
    a = np.concatenate(a_parts) if a_parts else np.empty(0, np.int64)
    b = np.concatenate(b_parts) if b_parts else np.empty(0, np.int64)
    n = int(max(a.max(initial=-1), b.max(initial=-1))) + 1
    if n > BITSET_VERTEX_LIMIT:
        raise ValueError(
            f"bitset bridge kernel needs V <= {BITSET_VERTEX_LIMIT}, got {n}"
        )
    edges_ref = ray.put({"a": a.astype(np.int64), "b": b.astype(np.int64)})
    return uniq.map_batches(
        _BridgeKernel,
        fn_constructor_args=(edges_ref, max(n, 1)),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


class _TriadKernel:
    """Directed triad census per edge batch: for edge u→v,
    |N_out(v) ∩ N_in(u)| closes a 3-cycle (each cycle seen from all 3
    edges → divide by 3 at the end) and |N_out(u) ∩ N_out(v)| closes a
    transitive triad exactly once (u→v fixes the (a,b) role). Two
    bitset matrices (out- and in-adjacency), built once per actor."""

    __name__ = "_TriadKernel"

    def __init__(self, edges_ref, n_vertices: int):
        import ray

        e = ray.get(edges_ref)
        self.out = _bitset_matrix(e["src"], e["dst"], n_vertices)
        self.inn = _bitset_matrix(e["dst"], e["src"], n_vertices)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        u = tbl.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        v = tbl.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        cyc = tran = 0
        step = max(1, (1 << 22) // max(1, self.out.shape[1] * 8))
        for lo in range(0, len(u), step):
            uu, vv = u[lo:lo + step], v[lo:lo + step]
            cyc += int(_popcount_rows(self.out[vv] & self.inn[uu]).sum())
            tran += int(_popcount_rows(self.out[uu] & self.out[vv]).sum())
        return pa.table(
            {
                "cyc3": pa.array([cyc], pa.int64()),
                "trans": pa.array([tran], pa.int64()),
            }
        )


def triad_census(edges_ds, num_partitions: int = 32):
    """(cyclic, transitive) closed-triad counts of the directed simple
    graph. Same broadcast-bitset contract as ``four_clique_count``."""
    import ray

    src_parts, dst_parts = [], []
    for b in edges_ds.select_columns(["src", "dst"]).iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        src_parts.append(b.column("src").to_numpy(zero_copy_only=False))
        dst_parts.append(b.column("dst").to_numpy(zero_copy_only=False))
    src = np.concatenate(src_parts) if src_parts else np.empty(0, np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, np.int64)
    # the census is over the SIMPLE directed graph: dedup repeated pairs
    # (bitsets dedup implicitly; the per-edge scan must match)
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0) if len(src) \
        else np.empty((0, 2), np.int64)
    src, dst = pairs[:, 0], pairs[:, 1]
    n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    if n <= 0:
        return 0, 0
    if n > BITSET_VERTEX_LIMIT:
        raise ValueError(
            f"bitset triad kernel needs V <= {BITSET_VERTEX_LIMIT}, got {n}"
        )
    import ray.data as rd

    edges_ref = ray.put({"src": src.astype(np.int64),
                         "dst": dst.astype(np.int64)})
    counted = rd.from_arrow(
        pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )
    ).map_batches(
        _TriadKernel,
        fn_constructor_args=(edges_ref, n),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    t = pa.concat_tables(
        list(counted.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    cyc3 = int(t.column("cyc3").to_numpy(zero_copy_only=False).sum())
    trans = int(t.column("trans").to_numpy(zero_copy_only=False).sum())
    assert cyc3 % 3 == 0
    return cyc3 // 3, trans
