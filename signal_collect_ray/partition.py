"""Per-partition signal/collect kernels shared by every executor.

The reference has one signal operation and one collect operation per
vertex (``Vertex.scala``, ``Edge.scala``); this module is their one
vectorized home at partition granularity. The durable
``SuperstepEngine`` (engine.py), the resident executor
(engine_resident.py) and the async executor (engine_async.py) all call
these functions and keep only their own scheduling and transport.

A partition is a *shard*: a dict of row-aligned numpy columns sorted by
``vid`` — ``vid``/``out_degree``/``sum_out_weight`` plus the algorithm's
``state``/``last``/``active``/``residual`` — the same column layout as a
checkpoint shard on disk. A *signal block* is a dict with a ``dst``
column, optionally a ``part`` column (destination partition), and one
column per ``Algorithm.signal_fields`` entry.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from signal_collect_ray.algorithm import Algorithm, StateDict
from signal_collect_ray.util import expand_ranges, isin_sorted

VERTEX_COLS = ("vid", "out_degree", "sum_out_weight")
SHARD_COLS = VERTEX_COLS + ("state", "last", "active", "residual")
#: the only columns ``Algorithm.src_values`` reads
_SENDER_COLS = VERTEX_COLS + ("state", "last")


# -- shards ----------------------------------------------------------------
def columns(tbl: pa.Table) -> StateDict:
    return {
        name: tbl.column(name).combine_chunks().to_numpy(zero_copy_only=False)
        for name in tbl.column_names
    }


def read_shard(path: str) -> StateDict:
    return columns(pq.read_table(path))


def init_shard(algo: Algorithm, vertices: StateDict) -> StateDict:
    """A partition's superstep-0 shard from its vertex columns."""
    vid, outd, sumw = (vertices[k] for k in VERTEX_COLS)
    st = algo.init(vid, outd, sumw)
    st.setdefault("residual", np.ones(len(vid)))
    return {"vid": vid, "out_degree": outd, "sum_out_weight": sumw, **st}


def shard_table(p: int, algo: Algorithm, shard: StateDict) -> pa.Table:
    n = len(shard["vid"])
    typ = algo.state_pa_type
    return pa.table(
        {
            "part": pa.array(np.full(n, p, dtype=np.int32), pa.int32()),
            "vid": pa.array(shard["vid"], pa.int64()),
            "out_degree": pa.array(shard["out_degree"], pa.int64()),
            "sum_out_weight": pa.array(shard["sum_out_weight"], pa.float64()),
            "state": pa.array(shard["state"], typ),
            "last": pa.array(shard["last"], typ),
            "active": pa.array(shard["active"].astype(bool), pa.bool_()),
            "residual": pa.array(
                shard.get("residual", np.zeros(n)).astype(np.float64),
                pa.float64(),
            ),
        }
    )


def write_shard(out_dir: str, p: int, algo: Algorithm, shard: StateDict) -> None:
    pq.write_table(
        shard_table(p, algo, shard), os.path.join(out_dir, f"part-{p:05d}.parquet")
    )


def write_shards(out_dir: str, algo: Algorithm, shards: Dict[int, StateDict]) -> None:
    for p, shard in shards.items():
        write_shard(out_dir, p, algo, shard)


def write_emitted(out_dir: str, p: int, em: StateDict) -> None:
    """Edges partition ``p``'s vertex programs emitted (``emit_edges``),
    applied by the durable engine at the next superstep boundary."""
    n = len(em["src"])
    pq.write_table(
        pa.table(
            {
                "src": pa.array(em["src"], pa.int64()),
                "dst": pa.array(em["dst"], pa.int64()),
                "weight": pa.array(
                    np.asarray(em.get("weight", np.ones(n)), dtype=np.float64),
                    pa.float64(),
                ),
            }
        ),
        os.path.join(out_dir, f"emit-{p:05d}.parquet"),
    )


def shard_metrics(algo: Algorithm, p: int, shard: StateDict) -> dict:
    """The manifest metrics of one partition's current state;
    ``edges_traversed`` is the out-degree of next superstep's senders."""
    return {
        "part": p,
        "n_vertices": int(len(shard["vid"])),
        "n_active": int(shard["active"].sum()),
        "residual_max": float(shard["residual"].max(initial=0.0)),
        "edges_traversed": int(shard["out_degree"][scheduled(algo, shard)].sum()),
    }


def global_partial(algo: Algorithm, shard: StateDict) -> str:
    """Per-partition global-aggregator partial as a JSON string (so an
    algorithm may aggregate structured values; numpy scalars coerce via
    ``default=float``), or "" when the algorithm has no aggregator."""
    if not algo.has_global:
        return ""
    return json.dumps(algo.global_partial(shard), default=float)


def aggregate(gt, shards: Iterable[StateDict]) -> list:
    """Worker-local phase of a global aggregation (≙ aggregationOnWorker,
    ``interfaces/AggregationOperation.scala:27-59``)."""
    return [gt.aggregate_partition(s) for s in shards]


# -- signal ----------------------------------------------------------------
def scheduled(algo: Algorithm, shard: StateDict) -> np.ndarray:
    """Vertices that run their signal operation this superstep."""
    if algo.always_signal:
        return np.ones(len(shard["vid"]), dtype=bool)
    return shard["active"].astype(bool)


def senders(algo: Algorithm, shard: StateDict) -> np.ndarray:
    """Scheduled vertices with ≥1 out-edge: the ones that emit signals —
    and, under ResetStateAfterSignaling, the ones whose state resets (a
    scheduled sink sent nothing, so it keeps its state)."""
    return scheduled(algo, shard) & (shard["out_degree"] > 0)


def reset_after_signal(algo: Algorithm, shard: StateDict) -> StateDict:
    """``ResetStateAfterSignaling.scala:22-33``: vertices that emitted this
    superstep expose ``reset_value`` as their state."""
    if not algo.reset_after_signal:
        return shard
    state = np.asarray(shard["state"]).copy()
    state[senders(algo, shard)] = algo.reset_value
    return dict(shard, state=state)


def fan_out(
    algo: Algorithm, csr: Optional[dict], shard: StateDict,
    mask: Optional[np.ndarray] = None, dst_col: str = "dst",
):
    """Per-edge signals of the partition's senders over its CSR block:
    ``(csr[dst_col] per edge, edge_values)``, or None when nothing is
    sent. ``mask`` defaults to :func:`senders`. When every CSR source
    sends, the edge set IS the CSR in storage order, so the CSR arrays
    are used as they are instead of gathered through an explicit
    E-length index (the dominant per-edge passes for a dense frontier
    like PageRank's)."""
    if csr is None:
        return None
    if mask is None:
        mask = senders(algo, shard)
    idx = np.flatnonzero(mask)
    if not len(idx):
        return None
    found, pos = isin_sorted(csr["src_ids"], shard["vid"][idx])
    if not found.all():
        if not found.any():
            return None
        idx, pos = idx[found], pos[found]
    src_vals = algo.src_values({k: shard[k][idx] for k in _SENDER_COLS})
    if len(pos) == len(csr["src_ids"]):
        counts = np.diff(csr["indptr"])
        dst, weight = csr[dst_col], csr["weight"]
    else:
        starts = csr["indptr"][pos]
        counts = csr["indptr"][pos + 1] - starts
        eidx = expand_ranges(starts, counts)
        dst, weight = csr[dst_col][eidx], csr["weight"][eidx]
    expanded = {k: np.repeat(v, counts) for k, v in src_vals.items()}
    return dst, algo.edge_values(expanded, weight)


def signal(
    algo: Algorithm, csr: Optional[dict], shard: StateDict,
    mask: Optional[np.ndarray] = None,
):
    """The partition's outgoing signals pre-combined per destination
    (the combiner that bounds a hub's incoming rows):
    ``(dst_unique, combined)`` or None."""
    edges = fan_out(algo, csr, shard, mask)
    if edges is None:
        return None
    return algo.combine(*edges)


def split(keys: np.ndarray, n: int, cols: Dict[str, np.ndarray]) -> Dict[int, dict]:
    """Stable split of row-aligned columns by an integer key in [0, n):
    ``{key: {name: view}}`` for every key that has rows."""
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(n + 1))
    cols = {k: v[order] for k, v in cols.items()}
    return {
        b: {k: v[bounds[b] : bounds[b + 1]] for k, v in cols.items()}
        for b in range(n)
        if bounds[b] < bounds[b + 1]
    }


def concat(blocks: List[dict]) -> dict:
    if len(blocks) == 1:
        return blocks[0]
    return {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}


def outbox(
    algo: Algorithm, csr: Dict[int, dict], shards: Dict[int, StateDict],
    part_fn, num_partitions: int, num_workers: int,
) -> Dict[int, dict]:
    """One worker's sparse signal phase: every owned partition's combined
    signals routed to the worker owning the destination partition
    (``p % num_workers``) — ONE concatenated signal block per destination
    worker, carrying its ``part`` column so receivers never rehash."""
    acc: Dict[int, list] = {}
    for p in sorted(shards):  # block order fixes the receivers' fold order
        sig = signal(algo, csr.get(p), shards[p])
        if sig is None:
            continue
        dst, vals = sig
        dparts = part_fn(dst, num_partitions)
        for w, blk in split(
            dparts % num_workers, num_workers, {"part": dparts, "dst": dst, **vals}
        ).items():
            acc.setdefault(w, []).append(blk)
    return {w: concat(blocks) for w, blocks in acc.items()}


# -- collect ---------------------------------------------------------------
def by_partition(blocks: Iterable[dict], num_partitions: int) -> Dict[int, dict]:
    """Received signal blocks regrouped per destination partition,
    concatenated in arrival order."""
    acc: Dict[int, list] = {}
    for blk in blocks:
        for p, piece in split(blk["part"], num_partitions, blk).items():
            acc.setdefault(p, []).append(piece)
    return {p: concat(pieces) for p, pieces in acc.items()}


def empty_signals(algo: Algorithm) -> dict:
    cols = {"dst": np.empty(0, dtype=np.int64)}
    for name, typ in algo.signal_fields:
        cols[name] = np.empty(0, dtype=typ.to_pandas_dtype())
    return cols


def _fresh_vertices(algo: Algorithm, vids: np.ndarray) -> StateDict:
    """Shard of new vertices with no out-edges, state from ``algo.init``."""
    n = len(vids)
    return init_shard(
        algo,
        {
            "vid": vids,
            "out_degree": np.zeros(n, dtype=np.int64),
            "sum_out_weight": np.zeros(n),
        },
    )


def create_vertices(algo: Algorithm, shard: StateDict, new_vids: np.ndarray) -> StateDict:
    """Auto-create missing signal targets (reference
    ``DefaultHandlerFactory.undeliverableSignalHandler`` vertex-creating
    variant, ``Handlers.scala:26-44`` / ``NonExistentVertexHandlerSpec``):
    fresh vertices merged sorted into the partition. ``new_vids`` may be
    unsorted and repeat, but must be absent from the shard."""
    new = _fresh_vertices(algo, np.unique(new_vids))
    order = np.argsort(np.concatenate([shard["vid"], new["vid"]]), kind="stable")
    return {
        k: np.concatenate([np.asarray(shard[k]), np.asarray(new[k])])[order]
        for k in SHARD_COLS
    }


def deliver(
    algo: Algorithm, p: int, shard: Optional[StateDict], sig: dict,
    on_undeliverable: str,
):
    """Deliver signal rows to partition ``p``: final combine, align with
    the partition's vids, then the undeliverable-signal handler
    (``Handlers.scala:26-64``) — ``"raise"``, ``"create"`` the missing
    vertices, or ``"drop"`` and count them. ``shard`` is None for a
    partition that has no vertices.

    Returns ``(shard, dst, vals, n_rows, n_undeliverable)``: the shard
    to collect into (None if the partition stays without vertices), the
    deliverable combined signals, and the row count received before the
    final combine."""
    dst = sig["dst"]
    n_rows = int(len(dst))
    if shard is None:
        if on_undeliverable != "create":
            if n_rows and on_undeliverable == "raise":
                raise RuntimeError(
                    f"{n_rows} undeliverable signals to empty partition {p} "
                    "(on_undeliverable='raise', reference default handler "
                    "semantics Handlers.scala:36-40)"
                )
            return None, None, None, n_rows, n_rows
        shard = _fresh_vertices(algo, np.empty(0, dtype=np.int64))
    vals = {name: sig[name] for name, _ in algo.signal_fields}
    n_bad = 0
    if n_rows:
        dst, vals = algo.combine(dst, vals)
        bad = Algorithm._align(shard["vid"], dst) < 0
        n_bad = int(bad.sum())
        if n_bad and on_undeliverable == "raise":
            raise RuntimeError(
                f"{n_bad} undeliverable signals in partition {p}, e.g. "
                f"dst={dst[bad][:5].tolist()} (on_undeliverable='raise', "
                "reference Handlers.scala:36-40)"
            )
        if n_bad and on_undeliverable == "create":
            shard = create_vertices(algo, shard, dst[bad])
            n_bad = 0
        elif n_bad:
            dst = dst[~bad]
            vals = {k: v[~bad] for k, v in vals.items()}
    return shard, dst, vals, n_rows, n_bad
