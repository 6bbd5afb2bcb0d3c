"""BSP superstep engine — the rebuild of the reference's execution core.

One superstep ≙ the reference's synchronous signalStep + awaitIdle +
collectStep loop (``DefaultGraph.scala:311-343``,
``WorkerImplementation.scala:285-297``), run as W stateless Ray tasks.
Each task builds a plain ``engine_resident._Worker`` over its
partitions (p % W), loads step k−1's checkpoint shards, runs the same
fused round as the resident executor (``_Worker.collect_and_signal``:
collect step k's signals, then signal step k+1 over the per-partition
CSR blocks from the object store, combiner-pre-aggregated per
destination), writes step k's shards and returns its outbox, unfetched,
plus one metrics row per partition. The next round's tasks read their
slice of every outbox straight from the object store. A partition with
no scheduled vertex that received no signal is dormant: its shard is
hard-linked from step k−1, so sparse-frontier runs (CC, SSSP) do not
rewrite quiet partitions.

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

import functools
import glob
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from signal_collect_ray import partition
from signal_collect_ray.algorithm import Algorithm
from signal_collect_ray.config import EngineConfig
from signal_collect_ray.util import isin_sorted


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


def vertex_files(graph) -> Dict[int, str]:
    """{partition → the graph's vertex shard file}."""
    return {
        int(os.path.basename(f).split("-")[1].split(".")[0]): f
        for f in graph.vertex_files()
    }


def _round_task(wid, parts, shared, global_value, state, modes, out_dir, in_memory,
                segment, *blocks):
    """One worker's share of a superstep round, as a stateless task on a
    plain ``_Worker``. ``state`` is the worker's state before the round:
    a step dir, the vertex files at init (``{p: path}``), or its shards
    themselves (``{p: shard}``) when state lives in the object store.
    ``blocks`` are the worker's CSR blocks, one per owned partition
    (None: no edges), then the inbox: every sender's outbox (none:
    nothing to collect). Ray resolves every block before the task
    starts, since each is a top-level argument. The round collects the
    inbox with mode ``modes[0]``, signals with mode ``modes[1]`` (None:
    no signal half) and writes the new shards to ``out_dir`` (None:
    write nothing). Returns ``(outbox, metrics)``, plus the new shards
    when ``in_memory`` — None for a signal-only round over shards, which
    leaves them as they were, so the caller keeps its refs and the state
    is not copied into the object store again. Only a round on disk
    skips dormant partitions, since its checkpoint links their shards.

    ``segment`` (a :class:`_Segment`, resident runs only) makes the
    round run supersteps ``first..end`` back to back in this process
    (see :func:`_run_segment`); its metrics are then one row list per
    step it ran. With one worker its own outbox is its whole next
    inbox, so a segment needs no exchange; with more, ``end`` is
    ``first``."""
    from signal_collect_ray.engine_resident import _Worker

    n = len(parts)
    csr = {p: b for p, b in zip(parts, blocks[:n]) if b is not None}
    inbox = blocks[n:]
    worker = _Worker(wid, parts, csr, *shared)
    # collect reads the previous step's aggregate (Algorithm.has_global)
    worker.algo.global_value = global_value
    rows, given = [], False
    if isinstance(state, str):
        rows = worker.load_checkpoint(state)
    elif all(isinstance(f, str) for f in state.values()):
        rows = worker.init_from_vertices(state)
    else:
        worker.shards, given = state, True
    mode_collect, mode_signal = modes
    if segment is not None:
        outbox, rows = _run_segment(worker, inbox, mode_collect, mode_signal, segment)
    elif inbox:
        outbox, rows = worker.collect_and_signal(
            inbox, mode_collect, mode_signal, skip_dormant=not in_memory
        )
    else:
        outbox = worker.outbox(mode_signal) if mode_signal else {}
    if out_dir is not None:
        worker.checkpoint(out_dir, prev_dir=state)
    if in_memory:
        return outbox, rows, None if given and not inbox else worker.shards
    return outbox, rows


class _Segment(NamedTuple):
    """The supersteps one resident round task may run (``_run_segment``)."""

    first: int  # the step the round's inbox completes
    end: int  # the last step it may run: the driver's next sync point
    last_step: int  # the run's step limit: that step signals nothing
    eps: float
    budget_s: Optional[float]  # time left at submission (None: no limit)
    dense: bool  # the exchange-mode rule's inputs (``_Rounds.mode``)
    num_vertices: int


def _run_segment(worker, inbox, mode_collect, mode_signal, seg: _Segment):
    """Supersteps ``seg.first..seg.end`` of one worker, back to back in
    this process: each step collects the outbox of the step before it
    and signals the next. It stops after the first converged step or
    after the step that uses up ``seg.budget_s``. The rules are the
    driver's, called on the same metrics rows: step k+1 signals in the
    mode picked from step k's manifest (``_exchange_mode``), the run's
    final step has no signal half, and convergence is
    ``SuperstepEngine._is_converged``. Returns the last outbox and one
    metrics-row list per step."""
    from signal_collect_ray.engine_resident import _exchange_mode

    t0 = time.monotonic()
    outbox, rows = worker.collect_and_signal(inbox, mode_collect, mode_signal)
    steps, k = [rows], seg.first
    while k < seg.end:
        manifest = SuperstepEngine._manifest(k, rows, None, k - 1)
        if SuperstepEngine._is_converged(manifest, seg.eps, k) or (
            seg.budget_s is not None and time.monotonic() - t0 > seg.budget_s
        ):
            break
        k += 1
        mode_collect, mode_signal = mode_signal, (
            _exchange_mode(seg.dense, manifest, seg.num_vertices)
            if k < seg.last_step else None
        )
        # one worker: its outbox is its whole next inbox
        outbox, rows = worker.collect_and_signal([outbox], mode_collect, mode_signal)
        steps.append(rows)
    return outbox, steps


class _Rounds:
    """The W round tasks of a synchronous run, bound to one graph. W
    comes from the pool-size rule, and partition p belongs to task
    p % W, so the outbox routing is the same on both engines. The
    durable engine keeps step state in step dirs; the resident engine
    (``in_memory``) keeps each worker's shards as an object ref that
    the next round takes as an argument."""

    def __init__(self, graph, algo: Algorithm, threshold: float,
                 on_undeliverable: str, max_retries: int,
                 num_workers: Optional[int] = None, in_memory: bool = False):
        import ray

        from signal_collect_ray.engine_resident import dense_capable, pool_size

        P = graph.num_partitions
        self.W = W = pool_size(graph, algo, num_workers)
        self.parts = [list(range(w, P, W)) for w in range(W)]
        csr = graph.csr_refs()
        self.csr = [[csr.get(p) for p in parts] for parts in self.parts]
        self.algo = algo
        self.in_memory = in_memory
        self.max_retries = max_retries
        self.dense = dense_capable(graph, algo, on_undeliverable)
        self.num_vertices = graph.num_vertices
        offsets, sizes = graph.part_offsets() if self.dense else (None, None)
        # put once per graph: the algorithm is not re-serialized every
        # superstep
        self.shared = ray.put(
            (algo, P, W, threshold, offsets, sizes, graph.part_fn, on_undeliverable)
        )
        self._remote = remote(_round_task).options(
            num_returns=3 if in_memory else 2, max_retries=max_retries
        )

    def mode(self, manifest: dict) -> str:
        from signal_collect_ray.engine_resident import _exchange_mode

        return _exchange_mode(self.dense, manifest, self.num_vertices)

    def submit(self, global_value, states, inbox, modes, out_dir=None, segment=None):
        """Submit one round without waiting: ``states`` holds one state
        per worker. Returns one list of refs per return value: the
        outboxes, the metrics rows (one list per step with a
        ``segment``) and, in memory, the new shards (refs to None after
        a signal-only round over shards)."""
        rets = [
            self._remote.remote(
                w, parts, self.shared, global_value, state, modes, out_dir,
                self.in_memory, segment, *csr, *(inbox or ()),
            )
            for w, (parts, csr, state) in enumerate(zip(self.parts, self.csr, states))
        ]
        return [list(r) for r in zip(*rets)]

    def run(self, global_value, state, inbox, modes, out_dir=None):
        """Submit one durable round over a state every worker shares and
        wait for its metrics (the driver commits every step, so a task's
        inbox is always complete). Returns the outbox refs, unfetched,
        and the metrics rows."""
        import ray

        outbox, rows = self.submit(global_value, [state] * self.W, inbox, modes, out_dir)
        return outbox, [r for rs in ray.get(rows) for r in rs]


@functools.lru_cache(maxsize=None)
def remote(fn):
    """``ray.remote(fn)``, made once per process rather than per call."""
    import ray

    return ray.remote(fn)


def _migrate_shard(p: int, new_vfile: str, prev_dir: str, algo: Algorithm, out_dir: str) -> dict:
    """Mid-run mutation state migration for one partition: surviving
    vertices keep their state, vertices new to the mutated graph get
    ``algo.init`` values, refreshed degrees come from the new vertex
    shard, and everything is re-enqueued (the reference pairs GraphEditor
    mutations with ``recalculateScores``,
    ``WorkerImplementation.scala:396-414``)."""
    shard = partition.init_shard(algo, partition.read_shard(new_vfile))
    n = len(shard["vid"])
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
        "gather_rows_in": 0,
        "gpartial": partition.global_partial(algo, shard),
    }


def _part_agg(path, gt):
    """Worker-local phase of a global aggregation over one checkpoint
    shard (≙ aggregationOnWorker)."""
    return gt.aggregate_partition(partition.read_shard(path))


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
        rounds = _Rounds(
            graph, algo, threshold, cfg.on_undeliverable, cfg.max_worker_restarts
        )

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
            _, rows = rounds.run(None, vertex_files(graph), None, (None, None), tmp0)
            for r in rows:
                # step 0 is never converged; a partition that stays
                # dormant carries this forward until it collects
                r["residual_max"] = 1.0
            manifest = self._manifest(0, rows, lineage_base, prev_step=None)
            self._reduce_global(algo, manifest)
            self._commit_step(run_dir, 0, tmp0, manifest, cfg.checkpoint_retain)
            per_step = [manifest]
            start_k = 0

        # -- superstep loop ------------------------------------------------
        k = start_k
        last = per_step[-1]
        converged = self._is_converged(last, eps, k)
        reason = "Converged" if converged else None
        # refs to step k+1's signals and their exchange mode; None after
        # init, resume or a mutation, when a signal-only round issues them
        outbox, mode = None, None

        def mutate(deltas, k_new):
            nonlocal graph, rounds, lineage_base, last, outbox
            import ray

            gdir = os.path.join(run_dir, f"graph-mut-{k_new:05d}")
            graph = graph.update(
                gdir,
                add_edges_ds=deltas.get("add_edges_ds"),
                remove_edges_ds=deltas.get("remove_edges_ds"),
            )
            rounds = _Rounds(
                graph, algo, threshold, cfg.on_undeliverable, cfg.max_worker_restarts
            )
            outbox = None
            lineage_base = dict(
                lineage_base, graph_dir=os.path.abspath(graph.graph_dir)
            )
            prev_dir = self._step_dir(run_dir, k_new - 1)
            step_tmp = self._step_tmp(run_dir, k_new)
            mig = ray.remote(_migrate_shard)
            rows = ray.get(
                [
                    mig.remote(p, vf, prev_dir, algo, step_tmp)
                    for p, vf in vertex_files(graph).items()
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
            (GraphEditor path — `emit-*.parquet` written by the round
            tasks into step kk's checkpoint dir) take precedence; the
            driver's edge_deltas callback is polled when nothing was
            emitted."""
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
            ts = time.monotonic()
            # collect reads the previous step's aggregate
            gv = algo.global_value = last.get("global_value")
            if outbox is None:
                mode = rounds.mode(last)
                outbox, _ = rounds.run(
                    gv, self._step_dir(run_dir, k), None, (None, mode)
                )
            k += 1
            # the run's final step signals nothing: its outbox is dead
            next_mode = rounds.mode(last) if k < max_supersteps else None
            prev_dir = self._step_dir(run_dir, k - 1)
            step_tmp = self._step_tmp(run_dir, k)
            outbox, rows = rounds.run(gv, prev_dir, outbox, (mode, next_mode), step_tmp)
            mode = next_mode
            # dormant partitions (no scheduled vertex, no signal rows):
            # the tasks linked their shards; their metrics carry forward
            done = {r["part"] for r in rows}
            rows += [
                {
                    "part": m["part"],
                    "n_vertices": m["n_vertices"],
                    "n_active": 0,
                    "residual_max": m["residual_max"],
                    "edges_traversed": 0,
                    "signal_rows_in": 0,
                    "undeliverable": 0,
                    "gather_rows_in": 0,
                    # unchanged state ⇒ its global partial carries forward
                    "gpartial": m.get("gpartial", ""),
                }
                for m in last["parts"]
                if m["part"] not in done
            ]
            manifest = self._manifest(
                k, rows, lineage_base, prev_step=k - 1,
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
                            remote(_part_agg).remote(f, global_termination)
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
    def _manifest(k, rows, lineage_base, prev_step, wall_s: float = 0.0,
                  round_steps: int = 1) -> dict:
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
                    # gather request rows received, which this round's
                    # signal half answers (Algorithm.pointer)
                    "gather_rows_in": int(r.get("gather_rows_in", 0)),
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
            # supersteps run by the round task that produced this step
            # (> 1: a one-worker resident segment, ``wall_s`` its average)
            "round_steps": round_steps,
            "n_vertices": sum(p["n_vertices"] for p in parts),
            "n_active": sum(p["n_active"] for p in parts),
            "residual_max": max((p["residual_max"] for p in parts), default=0.0),
            "edges_next": sum(p["edges_next"] for p in parts),
            "signal_rows": sum(p["signal_rows_in"] for p in parts),
            "undeliverable": sum(p["undeliverable"] for p in parts),
            "gather_rows": sum(p["gather_rows_in"] for p in parts),
            "lineage": lineage_base,
            "parts": parts,
        }
