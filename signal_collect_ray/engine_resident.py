"""Resident BSP executor — the low-latency counterpart of engine.py.

Both synchronous executors run the same superstep round,
``_Worker.collect_and_signal``: collect step k's signals, then compute
step k+1's outbox. The durable engine (engine.py) runs it as W
stateless tasks that load, and write, a checkpoint every superstep.
This executor mirrors the reference's physical layout instead (one
worker per core, partitions hashed across workers —
``DefaultGraph.scala:171-205``, ``DefaultVertexToWorkerMapper.scala:
28-35``): W Ray actors each hold their partitions' CSR and vertex-state
numpy arrays for the whole run, so a superstep is one actor round with
signals pre-combined per destination partition before they enter the
object store.

Checkpoint shards + manifests use the same format, so a run started
under one executor resumes under the other. Durability is every
``checkpoint_interval`` supersteps (+ always at termination) instead of
every superstep.

Scale note: this is the executor for the throughput/scaling benchmarks
(BASELINE.md): worker count = cluster cores, exchange = P×P pre-combined
blocks through the object store — the same shuffle a multi-node Ray
cluster performs.
"""

from __future__ import annotations

import glob
import json
import logging
import os
import shutil
import time
from typing import Dict, List, Optional

import numpy as np

from signal_collect_ray import partition
from signal_collect_ray.algorithm import Algorithm
from signal_collect_ray.config import EngineConfig
from signal_collect_ray.engine import ExecutionInformation, SuperstepEngine, vertex_files
from signal_collect_ray.util import part_of

_logger = logging.getLogger("signal_collect_ray.resident")

# Dense-path auto pool cap: per-step cost ≈ α·W (exchange objects +
# barrier straggler tail) + E/(W·σ) (scatter compute), so the optimum
# pool scales as sqrt(E)/C with C folding the measured α/σ ratio. 250 is
# the single-node measurement (optima E=1.6M→W 5, E=2.6M→W 6,
# E=9.6M→W 6–16); an explicit ResidentEngine(num_workers=...) overrides.
_DENSE_WORKER_COST = 250.0


def dense_capable(graph, algo: Algorithm, on_undeliverable: str) -> bool:
    """The dense exchange scatters into one vector over the graph's
    vertex index, so it needs a dense monoid and a closed vertex set:
    no edge to a missing vertex and no handler that creates one."""
    return (
        algo.dense_agg is not None
        and "part_sizes" in graph.meta
        and on_undeliverable == "drop"
        and not graph.meta.get("n_dangling", 0)
    )


def _exchange_mode(dense_capable: bool, manifest: dict, num_vertices: int) -> str:
    """Dense scatter exchange when the frontier is dense enough that raw
    signal rows would exceed one dense vector, else sparse rows."""
    if dense_capable and manifest.get("edges_next", 0) >= num_vertices:
        return "dense"
    return "sparse"


def pool_size(graph, algo: Algorithm, num_workers: Optional[int] = None) -> int:
    """Worker count W of a synchronous run. An explicit ``num_workers``
    is honoured up to CPUs and partitions (the caller may know its
    interconnect); None auto-sizes with the per-step cost model."""
    import ray

    P = graph.num_partitions
    # leave ≥2 CPUs for the driver + raylet: at W == cluster CPUs the
    # barrier collapses ~5x from oversubscription (measured)
    cpu_cap = max(1, int(ray.cluster_resources().get("CPU", 4)) - 2)
    if num_workers is not None:
        return max(1, min(num_workers, cpu_cap, P))
    # cap the pool so each worker has enough per-step work to amortize
    # the barrier (~50k edges/worker floor)
    W = max(1, min(cpu_cap, P, graph.num_edges // 50_000 + 1))
    # Dense-exchange algorithms ship O(V/P) slices per partition and
    # touch an O(V) accumulator per worker, so past E/(2V) workers the
    # per-worker O(V) term dominates. Per-step cost ≈ α·W (exchange
    # objects + barrier straggler tail grows with pool size) + E/(W·σ)
    # (scatter compute) → optimum scales as sqrt(E)/_DENSE_WORKER_COST.
    # At cluster scale E is orders larger, so this cap stops binding
    # long before the CPU cap does.
    if algo.dense_agg is not None and graph.num_vertices > 0:
        W = max(1, min(W, graph.num_edges // (2 * graph.num_vertices) + 1))
        sqrt_cap = max(1, int(np.sqrt(graph.num_edges) / _DENSE_WORKER_COST) + 1)
        if sqrt_cap < W:
            _logger.info(
                "worker pool auto-capped at W=%d by the dense per-step "
                "cost model (sqrt(E)/%g, E=%d); CPUs would allow %d — "
                "pass num_workers explicitly to override",
                sqrt_cap, _DENSE_WORKER_COST, graph.num_edges, W,
            )
            W = sqrt_cap
    return W


class _Worker:
    """One worker of a synchronous run: owns `parts`, their CSR blocks
    and state shards (partition.py layout). A resident actor keeps it
    for the whole run; the durable engine builds one per task."""

    def __init__(
        self,
        worker_id: int,
        parts: List[int],
        csr_refs_wrapped: list,
        algo: Algorithm,
        num_partitions: int,
        num_workers: int,
        signal_threshold: float,
        part_offsets=None,
        part_sizes=None,
        part_fn=None,
        on_undeliverable: str = "drop",
    ):
        import ray

        self.wid = worker_id
        self.parts = parts
        self.algo = algo
        self.P = num_partitions
        self.W = num_workers
        self.threshold = signal_threshold
        self.part_fn = part_fn or part_of
        self.on_undeliverable = on_undeliverable
        csr_refs = csr_refs_wrapped[0]
        self.csr = {p: ray.get(csr_refs[p]) for p in parts if p in csr_refs}
        # owned partitions that have vertices, in ascending partition order
        self.shards: Dict[int, dict] = {}
        self.offsets = part_offsets
        self.sizes = part_sizes
        self.V = int(part_sizes.sum()) if part_sizes is not None else 0
        self._rows_in: Dict[int, int] = {}
        self._undeliverable: Dict[int, int] = {}
        # per collect: the partitions it left dormant (skip_dormant) and
        # the edges the collected partitions' vertex programs emitted
        self._dormant: set = set()
        self._emitted: Dict[int, dict] = {}

    # -- state lifecycle ---------------------------------------------------
    def init_from_vertices(self, vertex_files: Dict[int, str]):
        for p in self.parts:
            f = vertex_files.get(p)
            if f is not None:
                self.shards[p] = partition.init_shard(
                    self.algo, partition.read_shard(f)
                )
        return self._metrics()

    def load_checkpoint(self, step_dir: str):
        for p in self.parts:
            f = os.path.join(step_dir, f"part-{p:05d}.parquet")
            if os.path.exists(f):
                self.shards[p] = partition.read_shard(f)
        return self._metrics()

    # -- superstep ---------------------------------------------------------
    def signal_dense(self):
        """Dense fast path: per-edge values scatter into ONE dense vector
        over the global vertex index (bincount for sum, minimum.at for
        min) — no sorting anywhere. The exchange ships ONE contiguous
        array per destination WORKER (that worker's partition slices
        concatenated, plus the part-id/length index to split it
        zero-copy on arrival): serializing W arrays per sender instead
        of P slice-objects is what keeps the per-round exchange near the
        raw Ray RPC floor (measured: the per-slice structure cost ~5x
        the RPC itself at W=30). Used when the signaling frontier is
        dense (edges_next ≥ num_vertices), where it strictly dominates
        the sparse row exchange in both compute and volume."""
        algo = self.algo
        field0 = algo.signal_fields[0][0]
        is_sum = algo.dense_agg == "sum"
        total = None
        for p, shard in self.shards.items():
            edges = partition.fan_out(
                algo, self.csr.get(p), shard, dst_col="dst_gidx"
            )
            if edges is None:
                continue
            gidx, vals = edges[0], edges[1][field0]
            if total is None:
                total = (
                    np.zeros(self.V, dtype=np.float64)
                    if is_sum
                    else np.full(self.V, algo.dense_identity, dtype=algo.dense_dtype)
                )
            if is_sum:
                total += np.bincount(gidx, weights=vals, minlength=self.V)
            elif algo.dense_agg == "max":
                np.maximum.at(total, gidx, vals.astype(algo.dense_dtype))
            else:
                np.minimum.at(total, gidx, vals.astype(algo.dense_dtype))
        if total is None:
            return {}
        outbox: Dict[int, tuple] = {}
        ident = algo.dense_identity
        for w in range(self.W):
            plist, pieces = [], []
            for p in range(w, self.P, self.W):  # p % W == w
                lo = self.offsets[p]
                sl = total[lo : lo + self.sizes[p]]
                has = sl.any() if is_sum else (sl != ident).any()
                if has:
                    plist.append(p)
                    pieces.append(sl)
            if plist:
                outbox[w] = (
                    np.asarray(plist, dtype=np.int32),
                    np.asarray([len(x) for x in pieces], dtype=np.int64),
                    np.concatenate(pieces),
                )
        return outbox

    def signal(self):
        """Compute this worker's outgoing signals, pre-combined per
        destination partition, grouped per destination WORKER — ONE
        concatenated signal block per destination worker (not one per
        owned partition: fewer, larger arrays keep the exchange near the
        Ray RPC floor). The whole outbox is the task's return value;
        receivers slice only their pieces (numpy buffers ride pickle5
        out-of-band in plasma)."""
        return partition.outbox(
            self.algo, self.csr, self.shards, self.part_fn, self.P, self.W
        )

    def outbox(self, mode: str):
        return self.signal_dense() if mode == "dense" else self.signal()

    def _dormant_skip(self, p: int, shard: dict, received) -> bool:
        """Under ``skip_dormant``: a partition with no scheduled vertex
        that received nothing keeps its state, so collect leaves it
        alone and the durable checkpoint links its shard."""
        if p in received or partition.scheduled(self.algo, shard).any():
            return False
        self._dormant.add(p)
        return True

    def _collected(self, p: int, prev: dict, st: dict) -> None:
        self.shards[p] = {**prev, **st}
        if self.algo.emits_mutations:
            em = self.algo.emit_edges(prev, st)
            if em is not None and len(em["src"]):
                self._emitted[p] = em

    def collect_dense(self, entries: list, skip_dormant: bool = False):
        """Dense collect: elementwise sum/min of the received dense
        per-partition slices, then the algorithm's vectorized dense
        collect. Zero sorting, zero searching. ``entries`` are this
        worker's OWN inbox entries, one per sender (None = nothing)."""
        algo = self.algo
        is_sum = algo.dense_agg == "sum"
        acc: Dict[int, np.ndarray] = {}
        rows_in: Dict[int, int] = {}
        for entry in entries:
            if entry is None:
                continue
            plist, lens, data = entry
            # split the sender's contiguous block back into per-partition
            # views (zero-copy)
            splits = np.split(data, np.cumsum(lens)[:-1])
            for p, arr in zip(plist, splits):
                p = int(p)
                rows_in[p] = rows_in.get(p, 0) + len(arr)
                cur = acc.get(p)
                if cur is None:
                    acc[p] = arr.copy()
                elif is_sum:
                    np.add(cur, arr, out=cur)
                elif algo.dense_agg == "max":
                    np.maximum(cur, arr, out=cur)
                else:
                    np.minimum(cur, arr, out=cur)
        self._rows_in, self._undeliverable = rows_in, {}
        self._dormant, self._emitted = set(), {}
        for p, shard in self.shards.items():
            if skip_dormant and self._dormant_skip(p, shard, acc):
                continue
            inc = acc.get(p)
            if inc is None:
                n = len(shard["vid"])
                inc = (
                    np.zeros(n)
                    if is_sum
                    else np.full(n, algo.dense_identity, dtype=algo.dense_dtype)
                )
            prev = partition.reset_after_signal(algo, shard)
            self._collected(p, prev, algo.collect_dense(prev, inc, self.threshold))
        return self._metrics()

    def collect(self, entries: list, skip_dormant: bool = False):
        """Apply incoming signals to owned partitions; returns metrics.

        ``entries`` are this worker's own inbox entries, one per sender
        (a concatenated signal block, or None)."""
        algo = self.algo
        per_part = partition.by_partition((e for e in entries if e), self.P)
        none = partition.empty_signals(algo)
        self._rows_in, self._undeliverable = {}, {}
        self._dormant, self._emitted = set(), {}
        for p in self.parts:
            shard, sig = self.shards.get(p), per_part.get(p)
            if sig is None and (
                shard is None or skip_dormant and self._dormant_skip(p, shard, per_part)
            ):
                continue
            if shard is not None:
                shard = partition.reset_after_signal(algo, shard)
            shard, dst, vals, n_rows, n_bad = partition.deliver(
                algo, p, shard,
                none if sig is None else sig,
                self.on_undeliverable,
            )
            self._rows_in[p], self._undeliverable[p] = n_rows, n_bad
            if shard is not None:
                self._collected(p, shard, algo.collect(shard, dst, vals, self.threshold))
        return self._metrics()

    def collect_and_signal(
        self, outbox_refs: list, mode_collect: str, mode_signal: Optional[str],
        skip_dormant: bool = False,
    ):
        """Fused superstep round: collect step k's signals, then
        immediately compute step k+1's outbox — ONE actor barrier per
        superstep instead of two. Returns (outbox, metrics); the driver
        keeps the outbox as an unfetched ref for the next round. One
        PLASMA object per sender per round: returns must stay above
        Ray's inline-return path (small returns ship by value through
        the DRIVER — measured 3x slower than plasma at every W when the
        exchange was restructured to per-receiver return slots), and
        receivers map the sender outbox zero-copy and deserialize only
        W concatenated entries (see signal_dense / signal).
        ``mode_signal`` None elides the signal half on the run's final
        possible step (its outbox could never be collected — notable for
        always_signal algorithms on fixed-k runs). ``skip_dormant``
        leaves dormant partitions uncollected and out of the metrics
        (the durable engine carries them forward)."""
        import ray

        outs = ray.get(outbox_refs)
        entries = [o.get(self.wid) if o else None for o in outs]
        t0 = time.perf_counter()
        collect = self.collect_dense if mode_collect == "dense" else self.collect
        rows = collect(entries, skip_dormant)
        t1 = time.perf_counter()
        outbox = self.outbox(mode_signal) if mode_signal else {}
        t2 = time.perf_counter()
        # Timeable rebuild (Timeable.scala:7-66) at partition granularity:
        # the vectorized engine processes a partition's vertices in one
        # fused kernel, so per-vertex timers are meaningless — worker
        # phase wall is attributed to owned partitions by vertex count.
        n_total = sum(len(s["vid"]) for s in self.shards.values())
        for r in rows:
            frac = r["n_vertices"] / max(n_total, 1)
            r["collect_s"] = (t1 - t0) * frac
            r["signal_s"] = (t2 - t1) * frac
        return outbox, rows

    def aggregate_states(self, gt):
        """Worker-local phase of a global aggregation
        (≙ aggregationOnWorker, interfaces/AggregationOperation.scala:27-59)."""
        return partition.aggregate(gt, self.shards.values())

    def out_neighbors(self, vids: list) -> dict:
        """Out-neighbor lists for the requested vertex ids, restricted to
        the CSR partitions this worker owns (≙ the cheap outgoing half of
        GraphDataProvider.findVicinity, reference
        console/DataProvider.scala:400-415: "a vertex already knows its
        outgoing edges"). O(len(vids) · log S) searchsorted probes per
        owned partition — no scans."""
        want = np.asarray(sorted(set(int(v) for v in vids)), dtype=np.int64)
        out: dict = {}
        if len(want) == 0:
            return out
        for p in self.parts:
            csr = self.csr.get(p)
            if csr is None or len(csr["src_ids"]) == 0:
                continue
            pos = np.searchsorted(csr["src_ids"], want)
            pos_c = np.minimum(pos, len(csr["src_ids"]) - 1)
            found = (pos < len(csr["src_ids"])) & (csr["src_ids"][pos_c] == want)
            for v, j in zip(want[found], pos_c[found]):
                s, e = int(csr["indptr"][j]), int(csr["indptr"][j + 1])
                out.setdefault(int(v), []).extend(
                    int(d) for d in csr["dst"][s:e]
                )
        return out

    def in_neighbor_sources(self, vids: list) -> list:
        """Source vertices of edges pointing INTO the requested set, over
        this worker's CSR partitions (≙ FindVertexVicinitiesByIdsAggregator
        — the reference documents the incoming direction as "an expensive
        operation", console/DataProvider.scala:390-399: one vectorized
        scan of each owned partition's dst array)."""
        want = np.asarray(sorted(set(int(v) for v in vids)), dtype=np.int64)
        srcs: set = set()
        if len(want) == 0:
            return []
        for p in self.parts:
            csr = self.csr.get(p)
            if csr is None or len(csr["dst"]) == 0:
                continue
            hit = np.flatnonzero(np.isin(csr["dst"], want))
            if len(hit) == 0:
                continue
            # edge i belongs to the src whose indptr range contains i
            owner = np.searchsorted(csr["indptr"], hit, side="right") - 1
            srcs.update(int(s) for s in np.unique(csr["src_ids"][owner]))
        return sorted(srcs)

    # -- durability --------------------------------------------------------
    def checkpoint(self, out_dir: str, prev_dir: Optional[str] = None):
        """Write the owned shards and emitted edges; a dormant
        partition's unchanged shard is hard-linked from ``prev_dir``, so
        sparse-frontier runs do not rewrite quiet partitions."""
        for p, shard in self.shards.items():
            if p in self._dormant:
                name = f"part-{p:05d}.parquet"
                os.link(os.path.join(prev_dir, name), os.path.join(out_dir, name))
            else:
                partition.write_shard(out_dir, p, self.algo, shard)
        for p, em in self._emitted.items():
            partition.write_emitted(out_dir, p, em)

    def _metrics(self):
        rows = []
        for p in self.parts:
            shard = self.shards.get(p)
            if shard is not None and p not in self._dormant:
                row = dict(
                    partition.shard_metrics(self.algo, p, shard),
                    gpartial=partition.global_partial(self.algo, shard),
                )
            elif shard is None and self._rows_in.get(p):
                # signals to a partition without vertices, none delivered
                row = dict(part=p, n_vertices=0, n_active=0, residual_max=0.0,
                           edges_traversed=0, gpartial="")
            else:
                continue
            rows.append(dict(
                row,
                signal_rows_in=self._rows_in.get(p, 0),
                undeliverable=self._undeliverable.get(p, 0),
            ))
        return rows


class ResidentEngine:
    """Actor-resident BSP executor; same Algorithm/checkpoint contracts
    as SuperstepEngine."""

    @staticmethod
    def recalculate_scores(run_dir: str) -> int:
        """Checkpoint-level operation shared with the durable engine
        (same shard format) — see SuperstepEngine.recalculate_scores."""
        from signal_collect_ray.engine import SuperstepEngine

        return SuperstepEngine.recalculate_scores(run_dir)

    def __init__(self, config: Optional[EngineConfig] = None, num_workers: Optional[int] = None):
        self.config = config or EngineConfig()
        # None → auto-size; see pool_size
        self.num_workers = num_workers

    def _prepare(
        self,
        graph,
        algo: Algorithm,
        run_dir: Optional[str],
        resume: bool,
        eps: Optional[float],
        max_supersteps: Optional[int],
        signal_threshold: Optional[float],
        checkpoint_interval: Optional[int],
        time_limit_s: Optional[float],
        convergence_check_interval: Optional[int],
    ):
        """Shared setup for ``run`` and ``interactive``: validate, resolve
        config, spawn the worker pool, init-or-resume state, write the
        step-0 checkpoint. Returns a namespace the step loop drives."""
        import ray

        cfg = self.config
        if algo.emits_mutations:
            raise NotImplementedError(
                f"{algo.name} emits graph mutations (GraphEditor surface) "
                "— the resident executor binds CSR blocks at start; run "
                "the durable SuperstepEngine"
            )
        if algo.has_global:
            raise NotImplementedError(
                f"{algo.name} uses the per-superstep global aggregator "
                "(has_global) — implemented on the durable SuperstepEngine "
                "(the value rides its checkpoint manifests); run that"
            )
        eps = cfg.eps if eps is None else eps
        max_supersteps = (
            cfg.max_supersteps if max_supersteps is None else max_supersteps
        )
        threshold = (
            cfg.signal_threshold if signal_threshold is None else signal_threshold
        )
        ckpt_int = (
            cfg.checkpoint_interval if checkpoint_interval is None else checkpoint_interval
        )
        conv_int = (
            cfg.convergence_check_interval
            if convergence_check_interval is None
            else convergence_check_interval
        )
        time_limit_s = cfg.time_limit_s if time_limit_s is None else time_limit_s
        run_dir = run_dir or os.path.join(
            cfg.checkpoint_root,
            f"{algo.name}-{os.path.basename(graph.graph_dir)}-resident",
        )
        os.makedirs(run_dir, exist_ok=True)
        P = graph.num_partitions
        W = pool_size(graph, algo, self.num_workers)
        t0 = time.monotonic()

        lineage_base = {
            "graph_dir": os.path.abspath(graph.graph_dir),
            "algorithm": algo.name,
            "signal_threshold": threshold,
            "eps": eps,
            "num_partitions": P,
            "executor": "resident",
        }

        dense = dense_capable(graph, algo, cfg.on_undeliverable)
        offsets, sizes = graph.part_offsets() if dense else (None, None)
        WorkerActor = ray.remote(_Worker)
        workers = [
            WorkerActor.options(num_cpus=1).remote(
                w, list(range(w, P, W)), [graph.csr_refs()], algo, P, W,
                threshold, offsets, sizes, graph.part_fn, cfg.on_undeliverable,
            )
            for w in range(W)
        ]

        per_step: List[dict] = []
        start_k = None
        if resume:
            latest = SuperstepEngine._latest_complete_step(run_dir)
            if latest is not None:
                with open(
                    os.path.join(
                        SuperstepEngine._step_dir(run_dir, latest), "manifest.json"
                    )
                ) as f:
                    m = json.load(f)
                lg = m.get("lineage", {})
                if (
                    lg.get("algorithm") == algo.name
                    and lg.get("graph_dir") == lineage_base["graph_dir"]
                ):
                    rows = _flatten(
                        ray.get(
                            [
                                w.load_checkpoint.remote(
                                    SuperstepEngine._step_dir(run_dir, latest)
                                )
                                for w in workers
                            ]
                        )
                    )
                    start_k = latest
                    per_step = [m]
        if start_k is None:
            for d in glob.glob(os.path.join(run_dir, "step=*")) + glob.glob(
                os.path.join(run_dir, ".tmp-step=*")
            ):
                shutil.rmtree(d)
            rows = _flatten(
                ray.get([
                    w.init_from_vertices.remote(vertex_files(graph)) for w in workers
                ])
            )
            manifest = SuperstepEngine._manifest(0, rows, lineage_base, None)
            self._checkpoint(workers, run_dir, 0, manifest,
                             retain=cfg.checkpoint_retain)
            per_step = [manifest]
            start_k = 0

        k = start_k
        last = per_step[-1]
        converged = SuperstepEngine._is_converged(last, eps, k)

        import types

        return types.SimpleNamespace(
            graph=graph,
            algo=algo,
            eps=eps,
            max_supersteps=max_supersteps,
            ckpt_int=ckpt_int,
            conv_int=conv_int,
            time_limit_s=time_limit_s,
            run_dir=run_dir,
            workers=workers,
            lineage_base=lineage_base,
            per_step=per_step,
            k=k,
            last=last,
            converged=converged,
            dense_capable=dense,
            threshold=threshold,
            retain=cfg.checkpoint_retain,
            t0=t0,
        )

    def run(
        self,
        graph,
        algo: Algorithm,
        run_dir: Optional[str] = None,
        resume: bool = True,
        eps: Optional[float] = None,
        max_supersteps: Optional[int] = None,
        signal_threshold: Optional[float] = None,
        checkpoint_interval: Optional[int] = None,
        time_limit_s: Optional[float] = None,
        global_termination=None,
        convergence_check_interval: Optional[int] = None,
    ) -> ExecutionInformation:
        import ray

        ns = self._prepare(
            graph, algo, run_dir, resume, eps, max_supersteps,
            signal_threshold, checkpoint_interval, time_limit_s,
            convergence_check_interval,
        )
        self._last_ns = ns  # introspection / fault-injection tests
        restarts = 0
        t0_orig = ns.t0
        try:
            while True:
                try:
                    return self._run_loop(ns, graph, algo, global_termination)
                except ray.exceptions.RayActorError as e:
                    # a worker actor died mid-run (node loss, OOM kill).
                    # The per-superstep checkpoints exist precisely for
                    # this: rebuild the pool and resume from the latest
                    # complete step instead of losing the whole run —
                    # on a 256-node cluster a single lost worker must
                    # not cost a multi-hour 100-TB pass.
                    restarts += 1
                    if restarts > self.config.max_worker_restarts:
                        raise
                    _logger.warning(
                        "resident worker pool lost (%s); restarting from "
                        "the latest checkpoint (attempt %d/%d)",
                        e, restarts, self.config.max_worker_restarts,
                    )
                    for w in ns.workers:
                        ray.kill(w, no_restart=True)
                    old_steps = ns.per_step
                    ns = self._prepare(
                        graph, algo, ns.run_dir, True, eps, max_supersteps,
                        signal_threshold, checkpoint_interval, time_limit_s,
                        convergence_check_interval,
                    )
                    # splice pre-crash manifests below the resume point so
                    # per_step / edges_traversed_total stay complete
                    ns.per_step = [
                        m for m in old_steps if m["superstep"] < ns.k
                    ] + ns.per_step
                    ns.t0 = t0_orig  # wall / time-limit span the whole run
                    self._last_ns = ns
        finally:
            # release the pool whatever path ends the run: each worker
            # reserves a CPU slot until the actor dies, and leaving
            # teardown to async handle-GC starves the next pipeline in
            # the session (measured: 30 lingering workers left 2/32 CPUs
            # for a follow-on Ray Data stage)
            for w in ns.workers:
                ray.kill(w, no_restart=True)

    def _run_loop(self, ns, graph, algo, global_termination) -> ExecutionInformation:
        import ray

        eps, max_supersteps = ns.eps, ns.max_supersteps
        ckpt_int, conv_int, time_limit_s = ns.ckpt_int, ns.conv_int, ns.time_limit_s
        run_dir, workers, lineage_base = ns.run_dir, ns.workers, ns.lineage_base
        per_step, k, last, converged = ns.per_step, ns.k, ns.last, ns.converged
        dense_capable, t0 = ns.dense_capable, ns.t0
        reason = "Converged" if converged else None

        # Fused loop: ONE actor barrier per superstep. Step k's signal
        # phase runs inside the same actor call that collects step k-1,
        # so the mode for step k+1's signals is decided from manifest
        # k-1 (one step stale — mode choice affects only performance,
        # never results). Outbox refs are never fetched on the driver —
        # workers exchange them directly through the object store.
        sig_refs = None
        pending_mode = None
        if not converged:
            pending_mode = _exchange_mode(dense_capable, last, graph.num_vertices)
            sig_refs = [w.outbox.remote(pending_mode) for w in workers]
        # Sync batching: rounds are SUBMITTED without fetching metrics —
        # worker round r+1 depends on round r's outbox refs, so Ray
        # chains the supersteps actor-to-actor and the driver pays ONE
        # metrics fetch per `eff_int` rounds instead of one blocking
        # barrier per superstep (the dominant cost of small supersteps
        # under scheduler jitter). eff_int = 1 (default) is the exact
        # round-1 behavior: convergence checked after every superstep.
        # With eff_int > 1 an eps-run may overshoot the first converged
        # round by up to eff_int-1 extra rounds (harmless: the engine
        # keeps iterating the same fixpoint map; fixed-k runs still stop
        # at exactly k). Checkpoints and global-termination checks force
        # the sync cadence down to their own intervals.
        eff_int = max(1, conv_int)

        def _must_sync(kk: int) -> bool:
            # batch boundary, end of run, or a cadence the user asked to
            # observe exactly (checkpoint / global-termination multiples)
            return (
                len(pending) >= eff_int
                or kk >= max_supersteps
                or (bool(ckpt_int) and kk % ckpt_int == 0)
                or (
                    global_termination is not None
                    and kk % max(global_termination.interval, 1) == 0
                )
            )
        pending: List[tuple] = []  # (k, metrics_refs) awaiting sync

        def drain_pending():
            nonlocal last, converged, reason
            if not pending:
                return
            t_sync0 = pending_started[0]
            flat = ray.get([r for _, refs in pending for r in refs])
            per_round_wall = (time.monotonic() - t_sync0) / len(pending)
            i = 0
            for kk, refs in pending:
                rows = _flatten(flat[i : i + len(refs)])
                i += len(refs)
                manifest = SuperstepEngine._manifest(
                    kk, rows, lineage_base, prev_step=kk - 1,
                    wall_s=per_round_wall,
                )
                per_step.append(manifest)
                last = manifest
                if not converged and SuperstepEngine._is_converged(
                    manifest, eps, kk
                ):
                    converged = True
                    reason = "Converged"
            pending.clear()

        pending_started = [time.monotonic()]
        while not converged:
            if k >= max_supersteps:
                reason = "StepsLimitReached"
                break
            if time_limit_s is not None and time.monotonic() - t0 > time_limit_s:
                drain_pending()
                if not converged:
                    reason = "TimeLimitReached"
                break
            k += 1
            if not pending:
                pending_started[0] = time.monotonic()
            # the final step's outbox is dead: no signal half
            next_mode = (
                _exchange_mode(dense_capable, last, graph.num_vertices)
                if k < max_supersteps else None
            )
            rets = [
                w.collect_and_signal.options(num_returns=2).remote(
                    sig_refs, pending_mode, next_mode
                )
                for w in workers
            ]
            sig_refs = [r[0] for r in rets]
            pending.append((k, [r[1] for r in rets]))
            pending_mode = next_mode
            if not _must_sync(k):
                continue
            drain_pending()
            if (
                not converged
                and global_termination is not None
                and k % max(global_termination.interval, 1) == 0
            ):
                agg = global_termination.reduce(
                    _flatten(
                        ray.get([w.aggregate_states.remote(global_termination) for w in workers])
                    )
                )
                if global_termination.should_terminate(agg):
                    converged = True
                    reason = "GlobalConstraintMet"
            if converged or (ckpt_int and k % ckpt_int == 0):
                self._checkpoint(workers, run_dir, k, last, retain=ns.retain)
        drain_pending()
        # the final step must exist on disk whatever path ended the loop
        # (in-loop converged/interval checkpoints make this a no-op)
        if not os.path.exists(
            os.path.join(SuperstepEngine._step_dir(run_dir, k), "manifest.json")
        ):
            self._checkpoint(workers, run_dir, k, last, retain=ns.retain)

        return ExecutionInformation(
            algorithm=algo.name,
            supersteps=k,
            converged=converged,
            termination_reason=reason or "Converged",
            wall_s=time.monotonic() - t0,
            residual_max=last["residual_max"],
            n_active=last["n_active"],
            edges_traversed_total=sum(m.get("edges_next", 0) for m in per_step[:-1]),
            run_dir=run_dir,
            final_step_dir=SuperstepEngine._step_dir(run_dir, k),
            per_step=per_step,
        )

    def interactive(
        self,
        graph,
        algo: Algorithm,
        run_dir: Optional[str] = None,
        resume: bool = True,
        eps: Optional[float] = None,
        max_supersteps: Optional[int] = None,
        signal_threshold: Optional[float] = None,
        checkpoint_interval: Optional[int] = None,
        convergence_check_interval: Optional[int] = None,
    ) -> "InteractiveComputation":
        """ExecutionMode.Interactive equivalent (reference
        ``ExecutionMode.scala:80-88``): the console's step/continue
        control surface without the web UI — advance the computation one
        superstep at a time, observe aggregates and manifests between
        steps, checkpoint on demand, ``finish()`` when done."""
        ns = self._prepare(
            graph, algo, run_dir, resume, eps, max_supersteps,
            signal_threshold, checkpoint_interval, None,
            convergence_check_interval,
        )
        return InteractiveComputation(ns)

    @staticmethod
    def _checkpoint(workers, run_dir: str, k: int, manifest: dict,
                    retain=None):
        import ray

        if os.path.exists(SuperstepEngine._step_dir(run_dir, k)):
            return
        tmp = SuperstepEngine._step_tmp(run_dir, k)
        ray.get([w.checkpoint.remote(tmp) for w in workers])
        SuperstepEngine._commit_step(run_dir, k, tmp, manifest, retain)


def _flatten(lists):
    return [r for rows in lists for r in rows]


class InteractiveComputation:
    """Step-wise control of a resident computation — the
    ExecutionMode.Interactive surface (reference
    ``ExecutionMode.scala:80-88``, console step/continue/terminate)
    without the web UI. One ``step()`` = one superstep (collect the
    previous signals, signal the next frontier) with metrics synced
    every step; ``aggregate`` reads live state between steps;
    ``finish()`` writes the final checkpoint and returns the
    ExecutionInformation (reason ``TerminatedByUser`` when stopped
    before convergence, mirroring the console's terminate button)."""

    def __init__(self, ns):
        self._ns = ns
        self._sig_refs = None
        self._pending_mode = None
        self.reason = "Converged" if ns.converged else None
        self._break_conditions: dict = {}
        self._next_bc_id = 0
        self.triggered: dict = {}  # condition id -> observed value

    # -- observation -------------------------------------------------------
    @property
    def converged(self) -> bool:
        return self._ns.converged

    @property
    def superstep(self) -> int:
        return self._ns.k

    @property
    def last_manifest(self) -> dict:
        return self._ns.last

    @property
    def manifests(self) -> list:
        return list(self._ns.per_step)

    def aggregate(self, agg):
        """Global aggregation over the live vertex states (the console's
        mid-run aggregate view). ``agg`` follows the GlobalTermination
        protocol: ``aggregate_partition(cols)`` + ``reduce(partials)``."""
        import ray

        partials = [
            x
            for part in ray.get(
                [w.aggregate_states.remote(agg) for w in self._ns.workers]
            )
            for x in part
        ]
        return agg.reduce(partials)

    def out_neighbors(self, vids) -> dict:
        """Merged out-neighbor lists for ``vids`` across the worker pool
        (console GraphDataProvider vicinity probes)."""
        import ray

        merged: dict = {}
        for part in ray.get(
            [w.out_neighbors.remote(list(vids)) for w in self._ns.workers]
        ):
            for v, ds in part.items():
                merged.setdefault(v, []).extend(ds)
        return merged

    def in_neighbor_sources(self, vids) -> list:
        """Vertices with an edge INTO ``vids`` (incoming-vicinity probe)."""
        import ray

        srcs: set = set()
        for part in ray.get(
            [w.in_neighbor_sources.remote(list(vids)) for w in self._ns.workers]
        ):
            srcs.update(part)
        return sorted(srcs)

    # -- break conditions (console BreakConditionsProvider surface,
    # reference DefaultGraph.scala:417-427 addCondition/removeCondition,
    # checked between steps like checkBreakConditions at :534-545) ---------
    def add_break_condition(self, cond) -> int:
        """Attach a ``modes.BreakCondition``; returns its id. Stepping
        pauses (``run_to_convergence`` returns early) when it fires."""
        cid = self._next_bc_id
        self._next_bc_id += 1
        self._break_conditions[cid] = cond
        if cond.kind == "state_changes" and cond.value is None:
            cond.check(self.aggregate(cond))  # capture the current state
        return cid

    def remove_break_condition(self, cid: int):
        self._break_conditions.pop(cid, None)

    def _check_break_conditions(self) -> bool:
        self.triggered = {}
        for cid, cond in self._break_conditions.items():
            if cond.check(self.aggregate(cond)):
                self.triggered[cid] = cond.observed
        return bool(self.triggered)

    # -- control -----------------------------------------------------------
    def step(self, n: int = 1) -> dict:
        """Advance up to ``n`` supersteps (stops early at convergence or
        the step limit); returns the latest manifest."""
        import ray

        ns = self._ns
        self.triggered = {}
        for _ in range(n):
            if ns.converged:
                break
            if ns.k >= ns.max_supersteps:
                self.reason = "StepsLimitReached"
                break
            if self._sig_refs is None:
                # first step after setup/resume: issue the initial signal
                # phase (one extra barrier, once)
                self._pending_mode = _exchange_mode(
                    ns.dense_capable, ns.last, ns.graph.num_vertices
                )
                self._sig_refs = [
                    w.outbox.remote(self._pending_mode) for w in ns.workers
                ]
            ns.k += 1
            t_step = time.monotonic()
            next_mode = (
                _exchange_mode(ns.dense_capable, ns.last, ns.graph.num_vertices)
                if ns.k < ns.max_supersteps else None
            )
            rets = [
                w.collect_and_signal.options(num_returns=2).remote(
                    self._sig_refs, self._pending_mode, next_mode
                )
                for w in ns.workers
            ]
            self._sig_refs = [r[0] for r in rets]
            self._pending_mode = next_mode
            rows = _flatten(ray.get([r[1] for r in rets]))
            manifest = SuperstepEngine._manifest(
                ns.k, rows, ns.lineage_base, prev_step=ns.k - 1,
                wall_s=time.monotonic() - t_step,
            )
            ns.per_step.append(manifest)
            ns.last = manifest
            if SuperstepEngine._is_converged(manifest, ns.eps, ns.k):
                ns.converged = True
                self.reason = "Converged"
            if ns.ckpt_int and ns.k % ns.ckpt_int == 0:
                self.checkpoint()
            if self._break_conditions and self._check_break_conditions():
                # the console's pause-on-condition (DefaultGraph.scala:534-545)
                break
        return ns.last

    def run_to_convergence(self) -> dict:
        """The console's continue button: step until convergence or the
        step limit; returns the final manifest."""
        while not self._ns.converged and self._ns.k < self._ns.max_supersteps:
            self.step()
            if self.triggered:
                break
        return self._ns.last

    def checkpoint(self):
        """Write the current superstep's checkpoint now (no-op if it
        already exists on disk)."""
        ns = self._ns
        ResidentEngine._checkpoint(
            ns.workers, ns.run_dir, ns.k, ns.last, retain=ns.retain
        )

    def finish(self) -> ExecutionInformation:
        """Persist the final step and return the execution information."""
        ns = self._ns
        if not os.path.exists(
            os.path.join(
                SuperstepEngine._step_dir(ns.run_dir, ns.k), "manifest.json"
            )
        ):
            self.checkpoint()
        if self.reason is None:
            self.reason = "TerminatedByUser"
        # NOTE: the pool is NOT killed here — the console surface stays
        # inspectable after finish() (live aggregates over final state);
        # resident workers hold no peer handles, so dropping this
        # InteractiveComputation reclaims their CPU slots via handle-GC.
        return ExecutionInformation(
            algorithm=ns.algo.name,
            supersteps=ns.k,
            converged=ns.converged,
            termination_reason=self.reason,
            wall_s=time.monotonic() - ns.t0,
            residual_max=ns.last["residual_max"],
            n_active=ns.last["n_active"],
            edges_traversed_total=sum(
                m.get("edges_next", 0) for m in ns.per_step[:-1]
            ),
            run_dir=ns.run_dir,
            final_step_dir=SuperstepEngine._step_dir(ns.run_dir, ns.k),
            per_step=ns.per_step,
        )
