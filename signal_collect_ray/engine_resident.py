"""Resident BSP executor — the low-latency counterpart of engine.py.

Both synchronous executors run the same superstep round as W stateless
Ray tasks (``engine._round_task`` over a ``_Worker``): collect step k's
signals, then compute step k+1's outbox, with signals pre-combined per
destination partition before they enter the object store. Partitions
are hashed across the W workers as in the reference
(``DefaultGraph.scala:171-205``, ``DefaultVertexToWorkerMapper.scala:
28-35``). The engines differ only in where step state lives: the
durable engine (engine.py) loads and writes a checkpoint every
superstep, while this one keeps each worker's shards in the object
store — a round returns them as a ref that the next round takes as an
argument — so no process is started or stopped per run.

With one worker (W = 1) a superstep's barrier exchanges nothing: the
worker's outbox is its whole next inbox. There a round task runs a
segment — consecutive supersteps back to back in its process
(``engine._run_segment``) — up to the next point where the driver must
act: the step limit, a checkpoint or global-termination multiple, the
first converged step, or the time limit. The driver then builds one
manifest per step (``round_steps`` records the segment length, and
``wall_s`` is the segment's average), so results and checkpoints are
those of one round per superstep, bit for bit.

Checkpoint shards + manifests use the same format, so a run started
under one executor resumes under the other. Durability is every
``checkpoint_interval`` supersteps (+ always at termination) instead of
every superstep; between checkpoints a lost state object is rebuilt by
Ray from its lineage.

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
from signal_collect_ray.engine import (
    ExecutionInformation, SuperstepEngine, _Rounds, _Segment, remote, vertex_files,
)
from signal_collect_ray.util import part_of

_logger = logging.getLogger("signal_collect_ray.resident")

# Dense-path auto pool cap: per-step cost ≈ α·W (exchange objects +
# barrier straggler tail) + E/(W·σ) (scatter compute), so the optimum
# pool scales as sqrt(E)/C with C folding the measured α/σ ratio. 250 is
# the single-node measurement (optima E=1.6M→W 5, E=2.6M→W 6,
# E=9.6M→W 6–16); an explicit ResidentEngine(num_workers=...) overrides.
_DENSE_WORKER_COST = 250.0

#: the dense monoids (``Algorithm.dense_agg``)
_UFUNC = {"sum": np.add, "min": np.minimum, "max": np.maximum}


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
    (``{p: block}``) and state shards (partition.py layout). Each round
    task builds one (engine._round_task)."""

    def __init__(
        self,
        worker_id: int,
        parts: List[int],
        csr: Dict[int, dict],
        algo: Algorithm,
        num_partitions: int,
        num_workers: int,
        signal_threshold: float,
        part_offsets=None,
        part_sizes=None,
        part_fn=None,
        on_undeliverable: str = "drop",
    ):
        self.wid = worker_id
        self.parts = parts
        self.algo = algo
        self.P = num_partitions
        self.W = num_workers
        self.threshold = signal_threshold
        self.part_fn = part_fn or part_of
        self.on_undeliverable = on_undeliverable
        self.csr = csr
        # owned partitions that have vertices, in ascending partition order
        self.shards: Dict[int, dict] = {}
        self.offsets = part_offsets
        self.sizes = part_sizes
        self.V = int(part_sizes.sum()) if part_sizes is not None else 0
        self._rows_in: Dict[int, int] = {}
        self._undeliverable: Dict[int, int] = {}
        # per collect: the partitions it left dormant (skip_dormant), the
        # edges the collected partitions' vertex programs emitted, each
        # collected partition's state before the collect (its changed
        # vertices send gather requests) and the gather requests received
        self._dormant: set = set()
        self._emitted: Dict[int, dict] = {}
        self._before: Dict[int, np.ndarray] = {}
        self._asked: Dict[int, dict] = {}

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
    def _identity(self, n: int) -> np.ndarray:
        """A dense incoming vector with no signal in it."""
        algo = self.algo
        if algo.dense_agg == "sum":
            return np.zeros(n)
        return np.full(n, algo.dense_identity, dtype=algo.dense_dtype)

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
        the sparse row exchange in both compute and volume. Gather
        requests and replies ride beside the slices as sparse rows."""
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
                total = self._identity(self.V)
            if is_sum:
                total += np.bincount(gidx, weights=vals, minlength=self.V)
            else:
                _UFUNC[algo.dense_agg].at(total, gidx, vals.astype(algo.dense_dtype))
        outbox: Dict[int, dict] = {}
        ident = algo.dense_identity
        for w in range(self.W if total is not None else 0):
            plist, pieces = [], []
            for p in range(w, self.P, self.W):  # p % W == w
                lo = self.offsets[p]
                sl = total[lo : lo + self.sizes[p]]
                has = sl.any() if is_sum else (sl != ident).any()
                if has:
                    plist.append(p)
                    pieces.append(sl)
            if plist:
                outbox[w] = {partition.DENSE: (
                    np.asarray(plist, dtype=np.int32),
                    np.asarray([len(x) for x in pieces], dtype=np.int64),
                    np.concatenate(pieces),
                )}
        for w, entry in self.signal(fan=False).items():
            outbox.setdefault(w, {}).update(entry)
        return outbox

    def signal(self, fan: bool = True):
        """Compute this worker's outgoing signals, pre-combined per
        destination partition, grouped per destination WORKER — ONE
        concatenated signal block per destination worker (not one per
        owned partition: fewer, larger arrays keep the exchange near the
        Ray RPC floor). The whole outbox is the task's return value;
        receivers slice only their pieces (numpy buffers ride pickle5
        out-of-band in plasma). The blocks also carry the gather
        requests of this round's collect and the replies to the requests
        it received (``Algorithm.pointer``). Every request rides the
        outbox, also one to a partition of this worker, so each step's
        state does not depend on W. ``fan`` False: gather traffic only."""
        return partition.outbox(
            self.algo, self.csr, self.shards, self.part_fn, self.P, self.W,
            before=self._before, asked=self._asked, fan=fan,
        )

    def outbox(self, mode: str):
        return self.signal_dense() if mode == "dense" else self.signal()

    def _dormant_skip(self, p: int, shard: dict, received) -> bool:
        """Under ``skip_dormant``: a partition with no scheduled vertex
        that received nothing (no signal, no gather request) keeps its
        state, so collect leaves it alone and the durable checkpoint
        links its shard."""
        if (
            p in received or p in self._asked
            or partition.scheduled(self.algo, shard).any()
        ):
            return False
        self._dormant.add(p)
        return True

    def _collected(self, p: int, prev: dict, st: dict) -> None:
        self.shards[p] = {**prev, **st}
        self._before[p] = prev["state"]
        if self.algo.emits_mutations:
            em = self.algo.emit_edges(prev, st)
            if em is not None and len(em["src"]):
                self._emitted[p] = em

    def collect_dense(self, entries: list, skip_dormant: bool = False):
        """Dense collect: elementwise sum/min of the received dense
        per-partition slices, then the algorithm's vectorized dense
        collect. Zero sorting, zero searching (but for the gather
        replies, sparse rows scattered into the vector). ``entries`` are
        this worker's OWN inbox entries, one per sender (None =
        nothing)."""
        algo = self.algo
        ufunc = _UFUNC[algo.dense_agg]
        acc: Dict[int, np.ndarray] = {}
        rows_in: Dict[int, int] = {}
        entries = [e for e in entries if e]
        for entry in entries:
            if partition.DENSE not in entry:
                continue
            plist, lens, data = entry[partition.DENSE]
            # split the sender's contiguous block back into per-partition
            # views (zero-copy)
            splits = np.split(data, np.cumsum(lens)[:-1])
            for p, arr in zip(plist, splits):
                p = int(p)
                rows_in[p] = rows_in.get(p, 0) + len(arr)
                cur = acc.get(p)
                if cur is None:
                    acc[p] = arr.copy()
                else:
                    ufunc(cur, arr, out=cur)
        field0 = algo.signal_fields[0][0]
        for p, sig in partition.by_partition(entries, self.P).items():
            shard = self.shards.get(p)
            if shard is None:
                continue
            rows_in[p] = rows_in.get(p, 0) + len(sig["dst"])
            idx = Algorithm._align(shard["vid"], sig["dst"])
            ok = idx >= 0
            if p not in acc:
                acc[p] = self._identity(len(shard["vid"]))
            ufunc.at(acc[p], idx[ok], sig[field0][ok].astype(acc[p].dtype))
        self._rows_in, self._undeliverable = rows_in, {}
        self._dormant, self._emitted = set(), {}
        self._before = {}
        self._asked = partition.requests_by_partition(entries, self.P)
        for p, shard in self.shards.items():
            if skip_dormant and self._dormant_skip(p, shard, acc):
                continue
            inc = acc.get(p)
            if inc is None:
                inc = self._identity(len(shard["vid"]))
            prev = partition.reset_after_signal(algo, shard)
            self._collected(p, prev, algo.collect_dense(prev, inc, self.threshold))
        return self._metrics()

    def collect(self, entries: list, skip_dormant: bool = False):
        """Apply incoming signals to owned partitions; returns metrics.

        ``entries`` are this worker's own inbox entries, one per sender
        (a concatenated signal block, or None)."""
        algo = self.algo
        entries = [e for e in entries if e]
        per_part = partition.by_partition(entries, self.P)
        none = partition.empty_signals(algo)
        self._rows_in, self._undeliverable = {}, {}
        self._dormant, self._emitted = set(), {}
        self._before = {}
        self._asked = partition.requests_by_partition(entries, self.P)
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
        self, outboxes, mode_collect: str, mode_signal: Optional[str],
        skip_dormant: bool = False,
    ):
        """Fused superstep round: collect step k's signals from
        ``outboxes`` (every sender's outbox), then immediately compute
        step k+1's outbox — ONE barrier per superstep instead of two.
        Returns (outbox, metrics); the driver keeps the outbox as an
        unfetched ref for the next round. One
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
        entries = [o.get(self.wid) if o else None for o in outboxes]
        t0 = time.perf_counter()
        collect = self.collect_dense if mode_collect == "dense" else self.collect
        rows = collect(entries, skip_dormant)
        t1 = time.perf_counter()
        outbox = self.outbox(mode_signal) if mode_signal else {}
        t2 = time.perf_counter()
        if not mode_signal:
            # no signal half: the gather requests go unanswered
            for r in rows:
                r["gather_rows_in"] = 0
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

    # -- durability --------------------------------------------------------
    def checkpoint(self, out_dir: str, prev_dir: Optional[str] = None):
        """Write the owned shards and emitted edges; a dormant
        partition's unchanged shard is hard-linked from ``prev_dir``, so
        sparse-frontier runs do not rewrite quiet partitions."""
        for p, shard in self.shards.items():
            if p in self._dormant:
                name = f"part-{p:05d}.parquet"
                out = os.path.join(out_dir, name)
                # a retried round writes into the same staging dir
                if os.path.lexists(out):
                    os.remove(out)
                os.link(os.path.join(prev_dir, name), out)
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
            asked = self._asked.get(p)
            rows.append(dict(
                row,
                signal_rows_in=self._rows_in.get(p, 0),
                undeliverable=self._undeliverable.get(p, 0),
                gather_rows_in=0 if asked is None else len(asked["dst"]),
            ))
        return rows


def _aggregate(gt, shards: Dict[int, dict]) -> list:
    """Worker-local phase of a global aggregation over one worker's
    shards (≙ aggregationOnWorker, interfaces/AggregationOperation.scala:27-59)."""
    return partition.aggregate(gt, shards.values())


def _out_neighbors(vids: list, *blocks) -> dict:
    """Out-neighbor lists for the requested vertex ids over one worker's
    CSR blocks (None: a partition without edges) (≙ the cheap outgoing
    half of GraphDataProvider.findVicinity, reference
    console/DataProvider.scala:400-415: "a vertex already knows its
    outgoing edges"). O(len(vids) · log S) searchsorted probes per
    block — no scans."""
    want = np.asarray(sorted(set(int(v) for v in vids)), dtype=np.int64)
    out: dict = {}
    if len(want) == 0:
        return out
    for csr in blocks:
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


def _in_neighbor_sources(vids: list, *blocks) -> list:
    """Source vertices of edges pointing INTO the requested set, over
    one worker's CSR blocks (≙ FindVertexVicinitiesByIdsAggregator — the
    reference documents the incoming direction as "an expensive
    operation", console/DataProvider.scala:390-399: one vectorized scan
    of each block's dst array)."""
    want = np.asarray(sorted(set(int(v) for v in vids)), dtype=np.int64)
    srcs: set = set()
    if len(want) == 0:
        return []
    for csr in blocks:
        if csr is None or len(csr["dst"]) == 0:
            continue
        hit = np.flatnonzero(np.isin(csr["dst"], want))
        if len(hit) == 0:
            continue
        # edge i belongs to the src whose indptr range contains i
        owner = np.searchsorted(csr["indptr"], hit, side="right") - 1
        srcs.update(int(s) for s in np.unique(csr["src_ids"][owner]))
    return sorted(srcs)


class ResidentEngine:
    """BSP executor whose step state stays in the object store between
    supersteps; same Algorithm/checkpoint contracts as SuperstepEngine."""

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
        config, bind the round tasks, init-or-resume state, write the
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
        t0 = time.monotonic()

        lineage_base = {
            "graph_dir": os.path.abspath(graph.graph_dir),
            "algorithm": algo.name,
            "signal_threshold": threshold,
            "eps": eps,
            "num_partitions": graph.num_partitions,
            "executor": "resident",
        }
        rounds = _Rounds(
            graph, algo, threshold, cfg.on_undeliverable, cfg.max_worker_restarts,
            num_workers=self.num_workers, in_memory=True,
        )

        per_step: List[dict] = []
        k, source = 0, None  # the start step and where its shards load from
        if resume:
            latest = SuperstepEngine._latest_complete_step(run_dir)
            if latest is not None:
                source = SuperstepEngine._step_dir(run_dir, latest)
                with open(os.path.join(source, "manifest.json")) as f:
                    m = json.load(f)
                lg = m.get("lineage", {})
                if (
                    lg.get("algorithm") == algo.name
                    and lg.get("graph_dir") == lineage_base["graph_dir"]
                ):
                    k, per_step = latest, [m]
                else:
                    source = None
        if source is None:
            for d in glob.glob(os.path.join(run_dir, "step=*")) + glob.glob(
                os.path.join(run_dir, ".tmp-step=*")
            ):
                shutil.rmtree(d)
            source = vertex_files(graph)
        _, rows, states = rounds.submit(None, [source] * rounds.W, None, (None, None))
        if not per_step:
            manifest = SuperstepEngine._manifest(
                0, _flatten(ray.get(rows)), lineage_base, None
            )
            self._checkpoint(rounds, states, run_dir, 0, manifest,
                             retain=cfg.checkpoint_retain)
            per_step = [manifest]

        last = per_step[-1]

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
            rounds=rounds,
            states=states,
            lineage_base=lineage_base,
            per_step=per_step,
            k=k,
            last=last,
            converged=SuperstepEngine._is_converged(last, eps, k),
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
        """Run to convergence or a limit. A worker process that dies
        mid-round is recovered by Ray: the round task is retried up to
        ``EngineConfig.max_worker_restarts`` times, and lost state
        objects are rebuilt from their lineage."""
        import ray

        ns = self._prepare(
            graph, algo, run_dir, resume, eps, max_supersteps,
            signal_threshold, checkpoint_interval, time_limit_s,
            convergence_check_interval,
        )
        eps, max_supersteps = ns.eps, ns.max_supersteps
        ckpt_int, time_limit_s = ns.ckpt_int, ns.time_limit_s
        run_dir, rounds, states = ns.run_dir, ns.rounds, ns.states
        lineage_base = ns.lineage_base
        per_step, k, last, converged = ns.per_step, ns.k, ns.last, ns.converged
        reason = "Converged" if converged else None

        # Fused loop: step k's signal phase runs inside the same task that
        # collects step k-1, so the mode for step k+1's signals is decided
        # from manifest k-1 (one step stale — mode choice affects only
        # performance). Outbox and state refs are never fetched on the
        # driver — each round's tasks take them as arguments straight
        # from the object store.
        sig_refs = None
        pending_mode = None
        if not converged:
            pending_mode = rounds.mode(last)
            sig_refs, _, _ = rounds.submit(None, states, None, (None, pending_mode))
        # Segments: with one worker (W = 1) there is nothing to exchange —
        # its outbox is its whole next inbox — so ONE round task runs the
        # supersteps up to the next point where the driver must act (the
        # step limit, a checkpoint or global-termination multiple) back
        # to back in its process, stopping early at the first converged
        # step or once the time left at submission is used up
        # (engine._run_segment). At W > 1 a round is one superstep.
        # Sync batching (W > 1): rounds are SUBMITTED without fetching
        # metrics — round r+1 takes round r's outbox and state refs, so
        # Ray chains the supersteps task-to-task and the driver pays ONE
        # metrics fetch per `eff_int` rounds instead of one blocking
        # barrier per superstep. Every round's state is its own immutable
        # ref, so the result stays exact: the run ends at the first
        # converged round of a batch, and the rounds submitted past it
        # are dropped. A segment is always synced: its end is only known
        # from its metrics.
        eff_int = max(1, ns.conv_int) if rounds.W > 1 else 1
        # step multiples the driver observes exactly
        cadences = [n for n in (
            ckpt_int,
            global_termination is not None and max(global_termination.interval, 1),
        ) if n]

        def _must_sync(kk: int) -> bool:
            # batch boundary, end of run, or a checkpoint / global-
            # termination multiple
            return (
                len(pending) >= eff_int
                or kk >= max_supersteps
                or any(kk % n == 0 for n in cadences)
            )

        def _segment_end(kk: int) -> int:
            # the last step the round after step kk may run
            if rounds.W > 1:
                return kk + 1
            return min([max_supersteps] + [(kk // n + 1) * n for n in cadences])

        pending: List[tuple] = []  # (first step, metrics refs, state refs) awaiting sync

        def drain_pending():
            nonlocal k, last, states, converged, reason
            if not pending:
                return
            t_sync0 = pending_started[0]
            flat = ray.get([r for _, refs, _ in pending for r in refs])
            steps, i = [], 0
            for first, refs, kk_states in pending:
                # one metrics-row list per step, per worker
                by_step = list(zip(*flat[i : i + len(refs)]))
                i += len(refs)
                steps += [
                    (kk, _flatten(rows), len(by_step), kk_states)
                    for kk, rows in enumerate(by_step, first)
                ]
            step_wall = (time.monotonic() - t_sync0) / len(steps)
            for kk, rows, round_steps, kk_states in steps:
                manifest = SuperstepEngine._manifest(
                    kk, rows, lineage_base, prev_step=kk - 1,
                    wall_s=step_wall, round_steps=round_steps,
                )
                per_step.append(manifest)
                k, last, states = kk, manifest, kk_states
                if SuperstepEngine._is_converged(manifest, eps, kk):
                    converged = True
                    reason = "Converged"
                    break
            pending.clear()

        pending_started = [time.monotonic()]
        while not converged:
            if k >= max_supersteps:
                reason = "StepsLimitReached"
                break
            if time_limit_s is not None and time.monotonic() - ns.t0 > time_limit_s:
                drain_pending()
                if not converged:
                    reason = "TimeLimitReached"
                break
            if not pending:
                pending_started[0] = time.monotonic()
            end = _segment_end(k)
            # the final step's outbox is dead: no signal half
            next_mode = rounds.mode(last) if k + 1 < max_supersteps else None
            budget = (
                None if time_limit_s is None
                else time_limit_s - (time.monotonic() - ns.t0)
            )
            sig_refs, rows, states = rounds.submit(
                None, states, sig_refs, (pending_mode, next_mode),
                segment=_Segment(k + 1, end, max_supersteps, eps, budget,
                                 rounds.dense, rounds.num_vertices),
            )
            pending.append((k + 1, rows, states))
            k, pending_mode = end, next_mode
            if not _must_sync(k):
                continue
            drain_pending()
            if rounds.W == 1:
                # the segment's last step signalled in the mode picked
                # from the manifest before it
                pending_mode = rounds.mode(per_step[-2]) if k < max_supersteps else None
            if (
                not converged
                and global_termination is not None
                and k % max(global_termination.interval, 1) == 0
            ):
                agg = global_termination.reduce(_aggregate_all(global_termination, states))
                if global_termination.should_terminate(agg):
                    converged = True
                    reason = "GlobalConstraintMet"
            if converged or (ckpt_int and k % ckpt_int == 0):
                self._checkpoint(rounds, states, run_dir, k, last, retain=ns.retain)
        drain_pending()
        # the final step must exist on disk whatever path ended the loop
        # (in-loop converged/interval checkpoints make this a no-op)
        self._checkpoint(rounds, states, run_dir, k, last, retain=ns.retain)

        return ExecutionInformation(
            algorithm=algo.name,
            supersteps=k,
            converged=converged,
            termination_reason=reason or "Converged",
            wall_s=time.monotonic() - ns.t0,
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
    def _checkpoint(rounds, states, run_dir: str, k: int, manifest: dict,
                    retain=None):
        """Write step k from the workers' state refs (no-op if it is
        already on disk) and commit it."""
        import ray

        if os.path.exists(SuperstepEngine._step_dir(run_dir, k)):
            return
        tmp = SuperstepEngine._step_tmp(run_dir, k)
        write = remote(partition.write_shards).options(max_retries=rounds.max_retries)
        ray.get([write.remote(tmp, rounds.algo, s) for s in states])
        SuperstepEngine._commit_step(run_dir, k, tmp, manifest, retain)


def _flatten(lists):
    return [r for rows in lists for r in rows]


def _aggregate_all(agg, states) -> list:
    """Every partition's partial of a global aggregation, one task per
    worker over its state ref."""
    import ray

    return _flatten(ray.get([remote(_aggregate).remote(agg, s) for s in states]))


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
        return agg.reduce(_aggregate_all(agg, self._ns.states))

    def _probe(self, fn, vids) -> list:
        """One task per worker over its CSR blocks."""
        import ray

        return ray.get(
            [remote(fn).remote(list(vids), *csr) for csr in self._ns.rounds.csr]
        )

    def out_neighbors(self, vids) -> dict:
        """Merged out-neighbor lists for ``vids`` across the workers
        (console GraphDataProvider vicinity probes)."""
        merged: dict = {}
        for part in self._probe(_out_neighbors, vids):
            for v, ds in part.items():
                merged.setdefault(v, []).extend(ds)
        return merged

    def in_neighbor_sources(self, vids) -> list:
        """Vertices with an edge INTO ``vids`` (incoming-vicinity probe)."""
        return sorted(set().union(*self._probe(_in_neighbor_sources, vids)))

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
        rounds = ns.rounds
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
                self._pending_mode = rounds.mode(ns.last)
                self._sig_refs, _, _ = rounds.submit(
                    None, ns.states, None, (None, self._pending_mode)
                )
            ns.k += 1
            t_step = time.monotonic()
            next_mode = rounds.mode(ns.last) if ns.k < ns.max_supersteps else None
            self._sig_refs, rows, ns.states = rounds.submit(
                None, ns.states, self._sig_refs, (self._pending_mode, next_mode)
            )
            self._pending_mode = next_mode
            manifest = SuperstepEngine._manifest(
                ns.k, _flatten(ray.get(rows)), ns.lineage_base, prev_step=ns.k - 1,
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
            ns.rounds, ns.states, ns.run_dir, ns.k, ns.last, retain=ns.retain
        )

    def finish(self) -> ExecutionInformation:
        """Persist the final step and return the execution information.
        The computation stays inspectable afterwards (live aggregates
        over the final state); its state objects are freed when this
        object is dropped."""
        ns = self._ns
        self.checkpoint()
        if self.reason is None:
            self.reason = "TerminatedByUser"
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
