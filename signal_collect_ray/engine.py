"""BSP superstep engine — the rebuild of the reference's execution core.

One superstep ≙ the reference's synchronous signalStep + awaitIdle +
collectStep loop (``DefaultGraph.scala:311-343``,
``WorkerImplementation.scala:285-297``), expressed as ONE Ray Data
pipeline:

    read_parquet(state checkpoint, one shard per partition)
      → map_batches(SignalStage, zero-copy Arrow, stateless tasks)
          # per-partition CSR from the object store; emits signal rows
          # ALREADY combiner-pre-aggregated per (block, dst) — this is
          # what makes web-graph hub skew survivable: a hub with 10^8
          # in-edges receives at most num_blocks pre-combined rows, not
          # 10^8 raw signals (reference has no combiner at all,
          # WorkerImplementation.scala:225-272).
      → groupby(dst_part)          # the ONLY all-to-all exchange
      → map_groups(CollectStage)   # final combine + vectorized collect,
          # writes the partition's checkpoint shard + returns a
          # lineage/metrics row

Convergence ≙ the reference's termination detection
(``DefaultCoordinator.scala:255-304``): the superstep barrier makes it a
cheap aggregate — converged when max residual ≤ eps or the active
frontier is empty. Steps/time limits mirror
``ExecutionConfiguration.scala:86-97``; the returned
``ExecutionInformation`` mirrors ``ExecutionInformation.scala:42-79``.

Checkpoints: every superstep writes ``run_dir/step=K/part-*.parquet``
shards into a temp dir that is atomically renamed after a manifest with
per-partition lineage + metrics is written — so any run resumes from the
last complete superstep (richer than the reference's idle-only
``snapshot``/``restore``, ``WorkerImplementation.scala:457-510``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from signal_collect_ray import partition
from signal_collect_ray.algorithm import Algorithm
from signal_collect_ray.config import EngineConfig
from signal_collect_ray.util import isin_sorted, part_of


def _coerce_gpartial(v) -> str:
    """Normalize a gpartial to its JSON-string wire form. Manifests
    written before gpartial became a JSON string carry raw floats in
    the dormant-shard carry-forward; re-encode them instead of str()
    (which turned a legacy 0.0 into "" via a truthiness check and
    dropped it)."""
    if v is None or v == "":
        return ""
    if isinstance(v, str):
        return v
    return json.dumps(v, default=float)


def _metrics_table(row: dict) -> pa.Table:
    """One partition's lineage/metrics row as the stages return it."""
    return pa.table(
        {
            "part": pa.array([row["part"]], pa.int32()),
            "n_vertices": pa.array([row["n_vertices"]], pa.int64()),
            "n_active": pa.array([row["n_active"]], pa.int64()),
            "residual_max": pa.array([row["residual_max"]], pa.float64()),
            "edges_traversed": pa.array([row["edges_traversed"]], pa.int64()),
            "signal_rows_in": pa.array([row["signal_rows_in"]], pa.int64()),
            "undeliverable": pa.array([row["undeliverable"]], pa.int64()),
            "collect_s": pa.array([row.get("collect_s", 0.0)], pa.float64()),
            "gpartial": pa.array([row["gpartial"]], pa.string()),
        }
    )


def _signal_schema(algo: Algorithm) -> pa.Schema:
    return pa.schema(
        [("dst_part", pa.int32()), ("dst", pa.int64())]
        + [(n, t) for n, t in algo.signal_fields]
    )


def _empty_signals(algo: Algorithm) -> pa.Table:
    return _signal_schema(algo).empty_table()


class _InitStage:
    """map_groups fn over vertex shards: write superstep-0 state shard."""

    __name__ = "_InitStage"

    def __init__(self, algo: Algorithm, out_dir: str):
        self.algo, self.out_dir = algo, out_dir

    def __call__(self, tbl: pa.Table) -> pa.Table:
        algo = self.algo
        d = partition.columns(tbl)
        p = int(d["part"][0])
        shard = partition.init_shard(algo, d)
        partition.write_shard(self.out_dir, p, algo, shard)
        return _metrics_table(
            dict(
                partition.shard_metrics(algo, p, shard),
                residual_max=1.0,
                signal_rows_in=0,
                undeliverable=0,
                gpartial=partition.global_partial(algo, shard),
            )
        )


class SignalStage:
    """Signal phase: state blocks → pre-combined signal rows.

    Runs as stateless map_batches tasks; within one task the
    per-partition CSR object-store gets are cached (zero-copy numpy views
    onto shared memory).
    """

    __name__ = "SignalStage"

    def __init__(
        self,
        csr_refs: Dict[int, object],
        algo: Algorithm,
        num_partitions: int,
        part_fn=None,
    ):
        self.csr_refs = csr_refs
        self.algo = algo
        self.P = num_partitions
        # vertex→partition mapper; must match the graph's build-time
        # placement (pluggable, MapperSpec.scala:34-83)
        self.part_fn = part_fn or part_of
        self._csr_cache: Dict[int, dict] = {}

    def _csr(self, p: int):
        csr = self._csr_cache.get(p)
        if csr is None:
            import ray

            ref = self.csr_refs.get(p)
            csr = ray.get(ref) if ref is not None else None
            self._csr_cache[p] = csr
        return csr

    def _seed_rows(self, d) -> Optional[pa.Table]:
        """One dst=-1 seed row per partition in this block that must run
        collect even if it receives no signals (its vertices signaled →
        their last/active bookkeeping must advance). Emitted here so the
        engine needs no extra union stage per superstep."""
        algo = self.algo
        parts = np.unique(d["part"][partition.scheduled(algo, d)])
        if not len(parts):
            return None
        n = len(parts)
        cols = {
            "dst_part": pa.array(parts.astype(np.int32), pa.int32()),
            "dst": pa.array(np.full(n, -1, dtype=np.int64), pa.int64()),
        }
        for name, typ in algo.signal_fields:
            cols[name] = (
                pa.array(np.zeros(n), typ)
                if pa.types.is_floating(typ)
                else pa.array(np.zeros(n, dtype=np.int64), typ)
            )
        return pa.table(cols)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        algo = self.algo
        d = partition.columns(tbl)
        seeds = self._seed_rows(d)
        pieces: List[pa.Table] = [] if seeds is None else [seeds]
        mask = partition.senders(algo, d)
        # a block may hold several partitions' rows; each fans out over
        # its own CSR block
        for p in np.unique(d["part"][mask]):
            sig = partition.signal(
                algo, self._csr(int(p)), d, mask & (d["part"] == p)
            )
            if sig is None:
                continue
            dst_u, combined = sig
            cols = {
                "dst_part": pa.array(self.part_fn(dst_u, self.P), pa.int32()),
                "dst": pa.array(dst_u, pa.int64()),
            }
            for name, typ in algo.signal_fields:
                cols[name] = pa.array(combined[name], typ)
            pieces.append(pa.table(cols))
        if not pieces:
            return _empty_signals(algo)
        return pa.concat_tables(pieces)


def _migrate_shard(new_vfile: str, prev_dir: str, algo: Algorithm, out_dir: str) -> dict:
    """Mid-run mutation state migration for one partition: surviving
    vertices keep their state, vertices new to the mutated graph get
    ``algo.init`` values, refreshed degrees come from the new vertex
    shard, and everything is re-enqueued (the reference pairs GraphEditor
    mutations with ``recalculateScores``,
    ``WorkerImplementation.scala:396-414``)."""
    shard = partition.init_shard(algo, partition.read_shard(new_vfile))
    n = len(shard["vid"])
    p = int(os.path.basename(new_vfile).split("-")[1].split(".")[0])
    old_path = os.path.join(prev_dir, f"part-{p:05d}.parquet")
    if not algo.fresh_state_on_mutation and os.path.exists(old_path) and n:
        old = partition.read_shard(old_path)
        found, pos_c = isin_sorted(shard["vid"], old["vid"])
        for col in ("state", "last"):
            arr = np.asarray(shard[col]).copy()
            arr[pos_c[found]] = old[col][found]
            shard[col] = arr
    shard["active"] = np.ones(n, dtype=bool)
    shard["residual"] = np.full(n, 1e18)
    partition.write_shard(out_dir, p, algo, shard)
    return {
        "part": p,
        "n_vertices": n,
        "n_active": n,
        "residual_max": 1e18,
        "edges_traversed": 0,
        "signal_rows_in": 0,
        "undeliverable": 0,
        "gpartial": partition.global_partial(algo, shard),
    }


class CollectStage:
    """Collect phase (map_groups over dst_part): final combine + state
    update + checkpoint shard write + lineage/metrics row."""

    __name__ = "CollectStage"

    def __init__(
        self,
        algo: Algorithm,
        prev_dir: str,
        out_dir: str,
        signal_threshold: float,
        on_undeliverable: str = "drop",
    ):
        self.algo = algo
        self.prev_dir = prev_dir
        self.out_dir = out_dir
        self.threshold = signal_threshold
        self.on_undeliverable = on_undeliverable

    def __call__(self, tbl: pa.Table) -> pa.Table:
        t_start = time.perf_counter()
        algo = self.algo
        d = partition.columns(tbl)
        p = int(d["dst_part"][0])
        prev_path = os.path.join(self.prev_dir, f"part-{p:05d}.parquet")
        shard = (
            partition.reset_after_signal(algo, partition.read_shard(prev_path))
            if os.path.exists(prev_path)
            else None
        )
        keep = d["dst"] >= 0  # drop engine seed rows
        sig = {k: d[k][keep] for k in ["dst"] + [n for n, _ in algo.signal_fields]}
        shard, dst, vals, n_rows, n_bad = partition.deliver(
            algo, p, shard, sig, self.on_undeliverable
        )
        if shard is None:
            return _metrics_table(
                {
                    "part": p, "n_vertices": 0, "n_active": 0,
                    "residual_max": 0.0, "edges_traversed": 0,
                    "signal_rows_in": n_rows, "undeliverable": n_bad,
                    "gpartial": "",
                }
            )
        st = algo.collect(shard, dst, vals, self.threshold)
        new = {**shard, **st}
        partition.write_shard(self.out_dir, p, algo, new)
        if algo.emits_mutations:
            em = algo.emit_edges(shard, st)
            if em is not None and len(em["src"]):
                n_em = len(em["src"])
                pq.write_table(
                    pa.table(
                        {
                            "src": pa.array(em["src"], pa.int64()),
                            "dst": pa.array(em["dst"], pa.int64()),
                            "weight": pa.array(
                                np.asarray(
                                    em.get("weight", np.ones(n_em)),
                                    dtype=np.float64,
                                ),
                                pa.float64(),
                            ),
                        }
                    ),
                    os.path.join(self.out_dir, f"emit-{p:05d}.parquet"),
                )
        return _metrics_table(
            dict(
                partition.shard_metrics(algo, p, new),
                signal_rows_in=n_rows,
                undeliverable=n_bad,
                collect_s=time.perf_counter() - t_start,
                gpartial=partition.global_partial(algo, new),
            )
        )


def _part_agg(path, gt):
    """Worker-local phase of a global aggregation over one checkpoint
    shard (≙ aggregationOnWorker)."""
    return gt.aggregate_partition(partition.read_shard(path))


_PART_AGG_REMOTE = None


def _part_agg_remote():
    """ray.remote wrapper created once per process (not per superstep)."""
    global _PART_AGG_REMOTE
    if _PART_AGG_REMOTE is None:
        import ray

        _PART_AGG_REMOTE = ray.remote(_part_agg)
    return _PART_AGG_REMOTE


@dataclass
class ExecutionInformation:
    """≙ the reference's ExecutionInformation (ExecutionInformation.scala:42-79)."""

    algorithm: str
    supersteps: int
    converged: bool
    termination_reason: str  # Converged | StepsLimitReached | TimeLimitReached
    wall_s: float
    residual_max: float
    n_active: int
    edges_traversed_total: int
    run_dir: str
    final_step_dir: str
    per_step: List[dict] = field(default_factory=list)

    def final_state_ds(self):
        import ray.data as rd

        return rd.read_parquet(
            sorted(glob.glob(os.path.join(self.final_step_dir, "part-*.parquet")))
        )

    def state_table(self) -> pa.Table:
        tbls = [
            pq.read_table(f)
            for f in sorted(
                glob.glob(os.path.join(self.final_step_dir, "part-*.parquet"))
            )
        ]
        t = pa.concat_tables(tbls)
        return t.sort_by("vid")


class SuperstepEngine:
    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()

    # -- checkpoint dir helpers -------------------------------------------
    @staticmethod
    def _step_dir(run_dir: str, k: int) -> str:
        return os.path.join(run_dir, f"step={k:05d}")

    @staticmethod
    def _latest_complete_step(run_dir: str) -> Optional[int]:
        best = None
        for d in glob.glob(os.path.join(run_dir, "step=*")):
            if os.path.exists(os.path.join(d, "manifest.json")):
                k = int(os.path.basename(d).split("=")[1])
                best = k if best is None else max(best, k)
        return best

    @staticmethod
    def _step_tmp(run_dir: str, k: int) -> str:
        """An empty staging dir for step k's shards."""
        tmp = os.path.join(run_dir, f".tmp-step={k:05d}")
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        return tmp

    @classmethod
    def _commit_step(cls, run_dir: str, k: int, step_tmp: str, manifest: dict,
                     retain) -> None:
        """The step-commit protocol every executor uses: the manifest
        lands in the staging dir, one atomic rename publishes the step,
        and only then are old steps pruned — a crash at any point leaves
        the latest complete step intact."""
        with open(os.path.join(step_tmp, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2)
        os.rename(step_tmp, cls._step_dir(run_dir, k))
        cls._prune_checkpoints(run_dir, retain)

    @staticmethod
    def _prune_checkpoints(run_dir: str, retain) -> None:
        """Drop all but the newest ``retain`` COMPLETE checkpoints
        (``EngineConfig.checkpoint_retain``; None keeps every step).
        Ordering is crash-safe: pruning runs only AFTER the newer
        step's manifest rename landed, resume reads
        ``_latest_complete_step``, and a crash mid-prune just leaves
        extra old steps behind. At 10^12 vertices a 100-superstep run
        cannot afford 100 full state copies — retain=2 keeps the
        resume point plus one predecessor for the delta-debugging
        path."""
        if not retain:
            return
        steps = []
        for d in glob.glob(os.path.join(run_dir, "step=*")):
            if os.path.exists(os.path.join(d, "manifest.json")):
                steps.append((int(os.path.basename(d).split("=")[1]), d))
        steps.sort()
        for _, d in steps[: max(0, len(steps) - int(retain))]:
            shutil.rmtree(d, ignore_errors=True)

    @classmethod
    def recalculate_scores(cls, run_dir: str) -> int:
        """Re-enqueue every vertex of the latest checkpoint — the rebuild
        of the reference's ``Graph.recalculateScores``
        (``DefaultGraph.scala`` → ``WorkerImplementation.scala:396-414``:
        re-evaluate scoreSignal/scoreCollect for all vertices and
        reschedule). Sets the active mask true in every state shard and
        un-converges the manifest, so the next ``run(resume=True)`` —
        durable or resident — replays a full signal/collect round and
        recomputes exact scores. Returns the number of re-enqueued
        vertices."""
        latest = cls._latest_complete_step(run_dir)
        if latest is None:
            raise FileNotFoundError(f"no complete checkpoint under {run_dir}")
        step_dir = cls._step_dir(run_dir, latest)
        n = 0
        for f in sorted(glob.glob(os.path.join(step_dir, "part-*.parquet"))):
            tbl = pq.read_table(f)
            i = tbl.schema.get_field_index("active")
            tbl = tbl.set_column(
                i, "active", pa.array(np.ones(len(tbl), dtype=bool), pa.bool_())
            )
            pq.write_table(tbl, f)
            n += len(tbl)
        mpath = os.path.join(step_dir, "manifest.json")
        with open(mpath) as f:
            m = json.load(f)
        m["n_active"] = n
        # large finite stand-in for "scores unknown" — _is_converged must
        # see a non-converged state until the next collect recomputes
        m["residual_max"] = 1e18
        for part in m.get("parts", ()):
            part["n_active"] = part["n_vertices"]
            part["residual_max"] = 1e18
        with open(mpath, "w") as f:
            json.dump(m, f, indent=2)
        return n

    # -- main loop ---------------------------------------------------------
    def run(
        self,
        graph,
        algo: Algorithm,
        run_dir: Optional[str] = None,
        resume: bool = True,
        eps: Optional[float] = None,
        max_supersteps: Optional[int] = None,
        signal_threshold: Optional[float] = None,
        time_limit_s: Optional[float] = None,
        global_termination=None,
        edge_deltas=None,
    ) -> ExecutionInformation:
        """``edge_deltas``: optional ``step -> None | {"add_edges_ds",
        "remove_edges_ds"}`` callback polled before each superstep — the
        mid-computation GraphEditor mutation path
        (``GraphEditor.scala:37-201``: edits interleave with computation
        rounds). A non-None result consumes one superstep index: the
        graph is rebuilt via ``Graph.update`` under ``run_dir``, state
        migrates (survivors keep state, new vertices ``algo.init``), and
        every vertex is re-enqueued (recalculateScores semantics). The
        durable engine only — the resident executor binds CSR blocks at
        start."""
        import ray.data as rd

        from signal_collect_ray.util import silence_empty_block_schema_noise

        silence_empty_block_schema_noise()
        cfg = self.config
        eps = cfg.eps if eps is None else eps
        max_supersteps = (
            cfg.max_supersteps if max_supersteps is None else max_supersteps
        )
        threshold = (
            cfg.signal_threshold if signal_threshold is None else signal_threshold
        )
        time_limit_s = cfg.time_limit_s if time_limit_s is None else time_limit_s
        run_dir = run_dir or os.path.join(
            cfg.checkpoint_root, f"{algo.name}-{os.path.basename(graph.graph_dir)}"
        )
        os.makedirs(run_dir, exist_ok=True)
        P = graph.num_partitions
        t0 = time.monotonic()
        per_step: List[dict] = []

        lineage_base = {
            "graph_dir": os.path.abspath(graph.graph_dir),
            "algorithm": algo.name,
            "signal_threshold": threshold,
            "eps": eps,
            "num_partitions": P,
        }

        # -- resume or init ------------------------------------------------
        start_k = None
        if resume:
            latest = self._latest_complete_step(run_dir)
            if latest is not None:
                with open(
                    os.path.join(self._step_dir(run_dir, latest), "manifest.json")
                ) as f:
                    m = json.load(f)
                if m.get("lineage", {}).get("algorithm") == algo.name and m.get(
                    "lineage", {}
                ).get("graph_dir") == lineage_base["graph_dir"]:
                    start_k = latest
                    per_step = [m]
        if start_k is None:
            for d in glob.glob(os.path.join(run_dir, "step=*")) + glob.glob(
                os.path.join(run_dir, ".tmp-step=*")
            ):
                shutil.rmtree(d)
            tmp0 = self._step_tmp(run_dir, 0)
            vds = rd.read_parquet(graph.vertex_files())
            rows = (
                vds.groupby("part")
                .map_groups(_InitStage(algo, tmp0), batch_format="pyarrow")
                .take_all()
            )
            manifest = self._manifest(0, rows, lineage_base, prev_step=None)
            self._reduce_global(algo, manifest)
            self._commit_step(run_dir, 0, tmp0, manifest, cfg.checkpoint_retain)
            per_step = [manifest]
            start_k = 0

        csr_refs = graph.csr_refs()
        # Seed rows (dst=-1, one per must-run partition) are emitted by
        # SignalStage itself; dormant partitions (no active vertices, no
        # incoming signals) are skipped entirely and their checkpoint
        # shard is hardlinked — the sparse frontier fast path for
        # CC/SSSP-style algorithms.

        # -- superstep loop ------------------------------------------------
        k = start_k
        last = per_step[-1]
        converged = self._is_converged(last, eps, k)
        reason = "Converged" if converged else None

        def mutate(deltas, k_new):
            nonlocal graph, csr_refs, lineage_base, last
            import ray

            gdir = os.path.join(run_dir, f"graph-mut-{k_new:05d}")
            graph = graph.update(
                gdir,
                add_edges_ds=deltas.get("add_edges_ds"),
                remove_edges_ds=deltas.get("remove_edges_ds"),
            )
            csr_refs = graph.csr_refs()
            lineage_base = dict(
                lineage_base, graph_dir=os.path.abspath(graph.graph_dir)
            )
            prev_dir = self._step_dir(run_dir, k_new - 1)
            step_tmp = self._step_tmp(run_dir, k_new)
            mig = ray.remote(_migrate_shard)
            rows = ray.get(
                [
                    mig.remote(vf, prev_dir, algo, step_tmp)
                    for vf in graph.vertex_files()
                ]
            )
            manifest = self._manifest(k_new, rows, lineage_base, prev_step=k_new - 1)
            self._reduce_global(algo, manifest)
            manifest["mutation"] = True
            self._commit_step(
                run_dir, k_new, step_tmp, manifest, cfg.checkpoint_retain
            )
            per_step.append(manifest)
            last = manifest

        def poll_deltas(kk: int):
            """Pending edits for superstep kk: algorithm-emitted edges
            (GraphEditor path — `emit-*.parquet` written by CollectStage
            into step kk's checkpoint dir) take precedence; the driver's
            edge_deltas callback is polled when nothing was emitted."""
            if algo.emits_mutations:
                files = sorted(
                    glob.glob(
                        os.path.join(self._step_dir(run_dir, kk), "emit-*.parquet")
                    )
                )
                if files:
                    return {"add_edges_ds": rd.read_parquet(files)}
            return edge_deltas(kk) if edge_deltas is not None else None

        may_mutate = edge_deltas is not None or algo.emits_mutations
        while True:
            if converged:
                # a converged computation still drains pending edits —
                # streaming arrivals re-open it (GraphEditor semantics).
                # GlobalConstraintMet is terminal: the user predicate won.
                deltas = (
                    poll_deltas(k)
                    if may_mutate and reason != "GlobalConstraintMet"
                    else None
                )
                if not deltas:
                    break
                k += 1
                mutate(deltas, k)
                converged = False
                reason = None
                continue
            if k >= max_supersteps:
                reason = "StepsLimitReached"
                break
            if time_limit_s is not None and time.monotonic() - t0 > time_limit_s:
                reason = "TimeLimitReached"
                break
            if may_mutate:
                deltas = poll_deltas(k)
                if deltas:
                    k += 1
                    mutate(deltas, k)
                    continue
            k += 1
            ts = time.monotonic()
            if algo.has_global:
                # previous step's aggregate, visible to this step's
                # signal/collect (stages capture algo at construction)
                algo.global_value = last.get("global_value")
            prev_dir = self._step_dir(run_dir, k - 1)
            step_tmp = self._step_tmp(run_dir, k)

            state = rd.read_parquet(
                sorted(glob.glob(os.path.join(prev_dir, "part-*.parquet")))
            )
            signals = state.map_batches(
                SignalStage(
                    csr_refs=csr_refs,
                    algo=algo,
                    num_partitions=P,
                    part_fn=graph.part_fn,
                ),
                batch_format="pyarrow",
                batch_size=None,
                zero_copy_batch=True,
            )
            prev_parts = {p["part"]: p for p in last["parts"]}
            metrics_rows = (
                signals.groupby("dst_part")
                .map_groups(
                    CollectStage(
                        algo, prev_dir, step_tmp, threshold,
                        on_undeliverable=cfg.on_undeliverable,
                    ),
                    batch_format="pyarrow",
                )
                .take_all()
            )
            # dormant partitions: carry the shard + metrics forward
            processed = {int(r["part"]) for r in metrics_rows}
            for p, m in prev_parts.items():
                if p not in processed:
                    fname = f"part-{p:05d}.parquet"
                    os.link(
                        os.path.join(prev_dir, fname),
                        os.path.join(step_tmp, fname),
                    )
                    metrics_rows.append(
                        {
                            "part": p,
                            "n_vertices": m["n_vertices"],
                            "n_active": 0,
                            "residual_max": m["residual_max"],
                            "edges_traversed": 0,
                            "signal_rows_in": 0,
                            "undeliverable": 0,
                            # dormant shard = unchanged state ⇒ its
                            # global partial carries forward verbatim
                            "gpartial": m.get("gpartial", ""),
                        }
                    )
            manifest = self._manifest(
                k, metrics_rows, lineage_base, prev_step=k - 1,
                wall_s=time.monotonic() - ts,
            )
            self._reduce_global(algo, manifest)
            self._commit_step(run_dir, k, step_tmp, manifest, cfg.checkpoint_retain)
            per_step.append(manifest)
            last = manifest
            converged = self._is_converged(last, eps, k)
            if converged:
                reason = "Converged"
            if (
                not converged
                and global_termination is not None
                and k % max(global_termination.interval, 1) == 0
            ):
                import ray

                shards = sorted(
                    glob.glob(
                        os.path.join(self._step_dir(run_dir, k), "part-*.parquet")
                    )
                )
                agg = global_termination.reduce(
                    ray.get(
                        [
                            _part_agg_remote().remote(f, global_termination)
                            for f in shards
                        ]
                    )
                )
                if global_termination.should_terminate(agg):
                    converged = True
                    reason = "GlobalConstraintMet"

        return ExecutionInformation(
            algorithm=algo.name,
            supersteps=k,
            converged=converged,
            termination_reason=reason or "Converged",
            wall_s=time.monotonic() - t0,
            residual_max=last["residual_max"],
            n_active=last["n_active"],
            edges_traversed_total=sum(
                m.get("edges_next", 0) for m in per_step[:-1]
            ),
            run_dir=run_dir,
            final_step_dir=self._step_dir(run_dir, k),
            per_step=per_step,
        )

    @staticmethod
    def _reduce_global(algo: Algorithm, manifest: dict) -> None:
        """Fold the per-partition aggregator partials into the manifest
        (JSON-serialized with the checkpoint ⇒ resume restores it)."""
        if algo.has_global:
            partials = []
            for p in manifest["parts"]:
                g = p.get("gpartial")
                if g is None or g == "":
                    continue
                # Checkpoints written before gpartial became a JSON string
                # carry raw floats; treat those as already-decoded partials
                # (a legacy 0.0 must NOT be dropped by a truthiness check).
                partials.append(json.loads(g) if isinstance(g, str) else g)
            manifest["global_value"] = algo.reduce_global(partials)

    @staticmethod
    def _is_converged(manifest: dict, eps: float, k: int) -> bool:
        if k == 0:
            return False
        return manifest["n_active"] == 0 or manifest["residual_max"] <= eps

    @staticmethod
    def _manifest(k, rows, lineage_base, prev_step, wall_s: float = 0.0) -> dict:
        parts = sorted(
            (
                {
                    "part": int(r["part"]),
                    "n_vertices": int(r["n_vertices"]),
                    "n_active": int(r["n_active"]),
                    "residual_max": float(r["residual_max"]),
                    "edges_next": int(r["edges_traversed"]),
                    "signal_rows_in": int(r["signal_rows_in"]),
                    "undeliverable": int(r["undeliverable"]),
                    "signal_s": float(r.get("signal_s", 0.0) or 0.0),
                    "collect_s": float(r.get("collect_s", 0.0) or 0.0),
                    # no per-dst group census runs (per-block combiners
                    # already bound hub groups); the key stays for readers
                    "max_group_rows": 0,
                    "gpartial": _coerce_gpartial(r.get("gpartial")),
                }
                for r in rows
            ),
            key=lambda x: x["part"],
        )
        return {
            "superstep": k,
            "prev_step": prev_step,
            "wall_s": wall_s,
            "n_vertices": sum(p["n_vertices"] for p in parts),
            "n_active": sum(p["n_active"] for p in parts),
            "residual_max": max((p["residual_max"] for p in parts), default=0.0),
            "edges_next": sum(p["edges_next"] for p in parts),
            "signal_rows": sum(p["signal_rows_in"] for p in parts),
            "undeliverable": sum(p["undeliverable"] for p in parts),
            "lineage": lineage_base,
            "parts": parts,
        }
