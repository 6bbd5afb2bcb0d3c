"""Asynchronous execution — the PureAsynchronous / OptimizedAsynchronous
rebuild (reference ``configuration/ExecutionMode.scala:34-88``).

No global barriers: each worker actor runs its OWN scheduling loop
(``run_local``, a long-running task on a threaded actor) — while it has
work it keeps running local rounds: signal its scheduled vertices (with
the reference's post-signal bookkeeping: lastSignalState catch-up,
ResetStateAfterSignaling, de-schedule), then collect whatever signals
have arrived in its inbox — pushing outgoing signals directly into peer
actors' inboxes, and sleeps briefly when idle. Partitions progress at
their own rates with no driver in the dispatch path — the same
self-scheduling worker loop the reference's async workers run
(``WorkerImplementation.scala`` scheduling loop); the driver only
observes via ``status()`` on a second actor-concurrency slot.

Termination is the reference coordinator's quiescence condition
(``DefaultCoordinator.scala:255-304`` ``isIdle``): every worker idle
(empty inbox, no scheduled vertices) AND the global sent-message count
equals the received count — in-flight pushes keep the computation alive.
Because the driver's per-worker status reads are not a consistent global
snapshot, quiescence is double-confirmed: two consecutive polls must
both satisfy the condition with identical per-worker (sent, received,
rounds) counters. The counters are monotonic and every local round or
delivery increments one, so any activity between the two reads of a
worker makes the second poll differ — the same stability argument as
Safra-style double-counting termination detection.

Only fold-on-delivery algorithms (the reference's ``DataFlowVertex``,
``DataFlowVertex.scala:47-54``) are async-eligible: delta PageRank,
SSSP, ConnectedComponents, TokenDiffusion — their collect is an
associative fold over any subset of incoming signals, so every
interleaving reaches the same fixpoint. Snapshot algorithms
(``always_signal``: Chinese Whispers, cellular automata) need the full
neighborhood each round and must run synchronously — the same ordering
caveat the reference documents for its async modes
(``ExecutionMode.scala:52-60``).

The gather hook (``Algorithm.pointer``, CC's shortcut) is ignored here:
it is a superstep-count optimisation of the synchronous round, and
asynchronous min-label propagation reaches the same exact fixpoint
without it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from signal_collect_ray import partition
from signal_collect_ray.algorithm import Algorithm
from signal_collect_ray.config import EngineConfig
from signal_collect_ray.engine import ExecutionInformation
from signal_collect_ray.util import part_of


class _AsyncWorker:
    """One async worker: owns partitions, their CSR and state, an inbox
    of unprocessed signal pieces, and sent/received message counters."""

    def __init__(
        self,
        worker_id: int,
        parts: List[int],
        csr_refs_wrapped: list,
        algo: Algorithm,
        num_partitions: int,
        num_workers: int,
        signal_threshold: float,
        vertex_files: Dict[int, str],
        on_undeliverable: str = "drop",
        part_fn=None,
    ):
        import ray

        self.on_undeliverable = on_undeliverable

        self.wid = worker_id
        self.parts = parts
        self.algo = algo
        self.P = num_partitions
        self.W = num_workers
        self.threshold = signal_threshold
        self.part_fn = part_fn or part_of
        csr_refs = csr_refs_wrapped[0]
        self.csr = {p: ray.get(csr_refs[p]) for p in parts if p in csr_refs}
        # owned partitions that have vertices (partition.py shards)
        self.shards: Dict[int, dict] = {
            p: partition.init_shard(algo, partition.read_shard(vertex_files[p]))
            for p in parts
            if p in vertex_files
        }
        self.peers = None
        self.inbox: list = []
        self.sent = 0
        self.received = 0
        self.undeliverable = 0
        self.rounds = 0
        # the actor runs with max_concurrency > 1 so peers' push() and the
        # driver's status()/stop_loop() land WHILE run_local loops; the
        # lock guards the inbox and the received counter (the only state
        # both sides mutate) — everything else is loop-thread-private or
        # read-only-racy (monotonic ints, rebound-not-mutated arrays)
        self._mu = threading.Lock()
        self._stop_evt = threading.Event()
        self._wake_evt = threading.Event()
        # True for the whole span of a local round. Without it the
        # driver's quiescence poll can land mid-_collect_phase — inbox
        # already swapped out, counters frozen, new active masks not yet
        # assigned — and see a spuriously idle worker; two such polls
        # would falsely double-confirm convergence. Set BEFORE the round
        # starts and cleared only after `rounds` increments, so any poll
        # overlapping a round sees either busy=True or a changed rounds
        # counter.
        self._in_round = False

    def set_peers(self, handles):
        self.peers = handles

    def push(self, pieces, n_rows: int):
        with self._mu:
            self.inbox.extend(pieces)
            self.received += n_rows
        self._wake_evt.set()  # rouse an idle run_local loop immediately

    def status(self) -> dict:
        # list() snapshots are C-level-atomic vs the loop thread's dict
        # inserts (on_undeliverable='create' materializes partitions
        # mid-run); iterating .values() directly could raise
        # "dictionary changed size during iteration"
        states = list(self.shards.values())
        has_active = any(bool(st["active"].any()) for st in states)
        res = max(
            (float(st["residual"].max(initial=0.0)) for st in states),
            default=0.0,
        )
        return {
            "wid": self.wid,
            "has_work": bool(self.inbox) or has_active or self._in_round,
            "sent": self.sent,
            "received": self.received,
            "residual_max": res,
            "n_active": int(sum(int(st["active"].sum()) for st in states)),
            "rounds": self.rounds,
            "undeliverable": self.undeliverable,
        }

    # -- one local round: signal scheduled vertices, then collect inbox ----
    def step(self) -> dict:
        self._in_round = True
        try:
            self._signal_phase()
            self._collect_phase()
            self.rounds += 1
        finally:
            self._in_round = False
        return self.status()

    def _has_local_work(self) -> bool:
        if self.inbox:
            return True
        return any(bool(st["active"].any()) for st in self.shards.values())

    def run_local(self, idle_sleep_s: float = 0.001) -> dict:
        """The worker's own scheduling loop (reference
        ``WorkerImplementation.scala`` — workers self-schedule; no
        coordinator in the dispatch path). Runs local rounds while there
        is work, idle-waits otherwise, exits when the driver sets the
        stop flag via ``stop_loop()`` (served on another concurrency
        slot of this threaded actor). Never clears the flag: on a
        threaded actor a stop_loop() may be served BEFORE the loop task
        starts, and clearing would erase it and deadlock the join."""
        while not self._stop_evt.is_set():
            if self._has_local_work():
                self._in_round = True
                try:
                    self._signal_phase()
                    self._collect_phase()
                    self.rounds += 1
                finally:
                    self._in_round = False
                continue
            # idle: park until a peer push() wakes us (a quiesced or
            # stalled worker — continuous mode parks here for its whole
            # life — must not rescan the active masks in a busy loop).
            # clear-then-recheck closes the race with a push that landed
            # between the work check above and the clear.
            self._wake_evt.clear()
            if self._has_local_work():
                continue
            self._wake_evt.wait(idle_sleep_s * 50)
        return self.status()

    def stop_loop(self) -> bool:
        self._stop_evt.set()
        self._wake_evt.set()  # unpark an idle loop so the join is prompt
        return True

    def _signal_phase(self):
        algo = self.algo
        out = partition.outbox(
            algo, self.csr, self.shards, self.part_fn, self.P, self.W
        )
        # post-signal bookkeeping for EVERY scheduled vertex (signal op
        # executes even when it emits nothing — reference
        # AbstractVertex.executeSignalOperation): lastSignalState
        # catch-up, ResetStateAfterSignaling, de-schedule
        for p, shard in list(self.shards.items()):
            sched = shard["active"].astype(bool)
            if sched.any():
                self.shards[p] = dict(
                    partition.reset_after_signal(algo, shard),
                    last=np.where(sched, shard["state"], shard["last"]),
                    active=sched & False,
                    residual=np.where(sched, 0.0, shard["residual"]),
                )
        for w, blk in out.items():
            n = len(blk["dst"])
            self.sent += n
            if w == self.wid:
                self.push([blk], n)
            else:
                self.peers[w].push.remote([blk], n)

    def _collect_phase(self):
        algo = self.algo
        with self._mu:
            if not self.inbox:
                return
            blocks, self.inbox = self.inbox, []
        for p, sig in partition.by_partition(blocks, self.P).items():
            # the receiving worker OWNS partition p, so vertex creation
            # needs no coordination — the reference's handler running on
            # the target worker (DefaultHandlerFactory, Handlers.scala:26-44)
            shard, dst, vals, _, n_bad = partition.deliver(
                algo, p, self.shards.get(p), sig, self.on_undeliverable
            )
            self.undeliverable += n_bad
            if shard is not None:
                # async schedule: only signal recipients re-activate; the
                # fold made other vertices' activity impossible to change
                self.shards[p] = {
                    **shard, **algo.collect(shard, dst, vals, self.threshold)
                }

    def drain_inbox(self) -> dict:
        """Collect-only round: fold any delivered-but-unprocessed signals
        into state WITHOUT signaling — used to close a limit-terminated
        run on a consistent boundary before the final snapshot."""
        self._collect_phase()
        return self.status()

    def signal_only(self) -> dict:
        """Signal-only round: the OptimizedAsynchronous mode's one
        synchronized initial signal operation before the async schedule
        starts (reference ``ExecutionMode.scala:62-71``)."""
        self._signal_phase()
        return self.status()

    def aggregate_states(self, gt):
        """Worker-local phase of a global aggregation — same contract as
        the resident executor's (``AggregationOperation.scala:27-59``);
        lets a ContinuousComputation query aggregates mid-flight."""
        return partition.aggregate(
            gt, [self.shards[p] for p in self.parts if p in self.shards]
        )

    def write_final(self, out_dir: str):
        partition.write_shards(out_dir, self.algo, self.shards)


class AsyncEngine:
    """Asynchronous executor family. ``run(mode="pure")`` is
    PureAsynchronous (worker-local rounds, no global superstep barrier,
    stops at coordinator quiescence); ``mode="optimized"`` is
    OptimizedAsynchronous (one synchronized initial signal operation,
    then the async schedule — reference ``ExecutionMode.scala:62-71``);
    ``run(continuous=True)`` / ``start(...)`` is ContinuousAsynchronous
    (keeps running even when the computation has stalled, for continuous
    querying — ``ExecutionMode.scala:73-78``)."""

    def __init__(
        self, config: Optional[EngineConfig] = None,
        num_workers: Optional[int] = None,
    ):
        import ray

        self.config = config or EngineConfig()
        if num_workers is None:
            num_workers = max(
                1, min(8, int(ray.cluster_resources().get("CPU", 4)) - 2)
            )
        self.W = num_workers

    def _spawn(
        self,
        graph,
        algo: Algorithm,
        run_dir: Optional[str],
        signal_threshold: Optional[float],
        mode: str,
    ):
        """Shared setup: validate, spawn the worker actors, and (for the
        optimized mode) run the synchronized initial signal phase."""
        import ray

        if mode not in ("pure", "optimized"):
            raise ValueError(f"mode must be 'pure' or 'optimized', got {mode!r}")
        if algo.always_signal:
            raise NotImplementedError(
                f"{algo.name} needs a full neighborhood snapshot per round "
                "(always_signal) — not async-eligible; run a synchronous "
                "executor (reference ExecutionMode.scala:52-60 caveat)"
            )
        if algo.emits_mutations:
            raise NotImplementedError(
                f"{algo.name} emits graph mutations (GraphEditor surface) "
                "— the async executor binds CSR blocks at start; run the "
                "durable SuperstepEngine"
            )
        if algo.has_global:
            raise NotImplementedError(
                f"{algo.name} uses the per-superstep global aggregator "
                "(has_global) — a superstep-synchronized value has no "
                "async meaning; run the durable SuperstepEngine"
            )
        cfg = self.config
        threshold = (
            cfg.signal_threshold if signal_threshold is None else signal_threshold
        )
        run_dir = run_dir or os.path.join(
            cfg.checkpoint_root,
            f"{algo.name}-{os.path.basename(graph.graph_dir)}-async",
        )
        final_dir = os.path.join(run_dir, "final")
        os.makedirs(final_dir, exist_ok=True)
        P = graph.num_partitions
        W = max(1, min(self.W, P))

        csr_refs = graph.csr_refs()
        vfiles = {
            int(os.path.basename(f).split("-")[1].split(".")[0]): f
            for f in graph.vertex_files()
        }
        # threaded actor: one slot is held by the long-running run_local
        # loop; the rest serve peer push() deliveries and the driver's
        # status()/stop_loop()/aggregate_states() concurrently
        Actor = ray.remote(max_concurrency=8)(_AsyncWorker)
        workers = [
            Actor.remote(
                w, [p for p in range(P) if p % W == w], [csr_refs], algo, P, W,
                threshold, vfiles, cfg.on_undeliverable, graph.part_fn,
            )
            for w in range(W)
        ]
        ray.get([w.set_peers.remote(workers) for w in workers])
        if mode == "optimized":
            # one synchronous signal operation before switching to the
            # async schedule: every worker signals its initial frontier,
            # then we wait for all of those pushes to land, so no vertex
            # collects before its full first-round inbox has arrived
            # (the PageRank-oscillation avoidance the reference's
            # default mode exists for, ExecutionMode.scala:62-71)
            ray.get([w.signal_only.remote() for w in workers])
            _await_delivery(workers)
        return workers, run_dir, final_dir

    def run(
        self,
        graph,
        algo: Algorithm,
        run_dir: Optional[str] = None,
        resume: bool = False,  # signature parity; async runs are one-shot
        max_rounds: int = 100_000,
        signal_threshold: Optional[float] = None,
        time_limit_s: Optional[float] = None,
        mode: str = "pure",
        continuous: bool = False,
    ) -> ExecutionInformation:
        import ray

        cfg = self.config
        time_limit_s = cfg.time_limit_s if time_limit_s is None else time_limit_s
        if continuous and time_limit_s is None:
            raise ValueError(
                "ContinuousAsynchronous keeps running when the computation "
                "stalls (ExecutionMode.scala:73-78) — a blocking run needs "
                "time_limit_s; use start() for the non-blocking handle"
            )
        workers, run_dir, final_dir = self._spawn(
            graph, algo, run_dir, signal_threshold, mode
        )
        try:
            return self._run_loop(
                workers, run_dir, final_dir, algo, max_rounds,
                time_limit_s, continuous,
            )
        finally:
            # explicit kill is REQUIRED here, not just an optimization:
            # every worker holds handles to all its peers (set_peers), so
            # the actor graph is cyclic and handle-GC alone would never
            # reclaim the pool's CPU slots — and it must run on error
            # paths too, or a failed run leaks the pool for the session
            for w in workers:
                ray.kill(w, no_restart=True)

    def _run_loop(
        self, workers, run_dir, final_dir, algo, max_rounds, time_limit_s,
        continuous,
    ) -> ExecutionInformation:
        import ray

        t0 = time.monotonic()
        # start every worker's own scheduling loop; from here the driver
        # is OUT of the dispatch path — it only polls for quiescence
        loop_refs = [w.run_local.remote() for w in workers]
        converged = False
        reason = None
        prev_key = None
        stats = None
        try:
            while True:
                # a loop task finishing before stop_loop() means it raised
                # (on_undeliverable='raise', algo bugs) — surface it now
                # instead of polling a dead loop forever
                done, _ = ray.wait(
                    loop_refs, num_returns=len(loop_refs), timeout=0
                )
                if done:
                    ray.get(done)
                stats = ray.get([w.status.remote() for w in workers])
                key = tuple(
                    (s["sent"], s["received"], s["rounds"]) for s in stats
                )
                idle = (
                    not any(s["has_work"] for s in stats)
                    and sum(s["sent"] for s in stats)
                    == sum(s["received"] for s in stats)
                )
                if not continuous and idle and key == prev_key:
                    # double-confirmed quiescence (see module docstring)
                    converged = True
                    reason = "Converged"
                    break
                prev_key = key if idle else None
                if (
                    not continuous
                    and max(s["rounds"] for s in stats) >= max_rounds
                ):
                    reason = "StepsLimitReached"
                    break
                if (
                    time_limit_s is not None
                    and time.monotonic() - t0 > time_limit_s
                ):
                    reason = "TimeLimitReached"
                    break
                time.sleep(0.002)
        finally:
            ray.get([w.stop_loop.remote() for w in workers])
            ray.get(loop_refs)  # join the loops; propagate worker errors

        if not converged:
            _drain(workers)
        ray.get([w.write_final.remote(final_dir) for w in workers])
        stats = ray.get([w.status.remote() for w in workers])
        rounds = max(s["rounds"] for s in stats)
        return _async_info(
            algo, rounds, converged, reason, t0, stats, run_dir, final_dir
        )

    def start(
        self,
        graph,
        algo: Algorithm,
        run_dir: Optional[str] = None,
        max_rounds: int = 100_000,
        signal_threshold: Optional[float] = None,
        time_limit_s: Optional[float] = None,
        mode: str = "pure",
    ) -> "ContinuousComputation":
        """ContinuousAsynchronous: return control immediately while the
        computation keeps running (even when stalled); observe it with
        ``ContinuousComputation.aggregate`` / ``status`` and finalize
        with ``stop()`` (reference ``ExecutionMode.scala:73-78``)."""
        workers, run_dir, final_dir = self._spawn(
            graph, algo, run_dir, signal_threshold, mode
        )
        loop_refs = [w.run_local.remote() for w in workers]
        return ContinuousComputation(
            workers, loop_refs, algo, run_dir, final_dir, max_rounds,
            time_limit_s,
        )


class ContinuousComputation:
    """Handle for a running ContinuousAsynchronous computation: the
    workers self-schedule their own loops (``run_local``) — there is no
    driver in the dispatch path; a light monitor thread only enforces
    the optional rounds/time limits. The caller can query aggregates
    mid-flight (continuous querying). Per-worker reads run on another
    concurrency slot of the threaded actor while the loop is live, so a
    snapshot may interleave with a local round — the same chaotic
    read-consistency the reference's continuous mode offers."""

    def __init__(
        self, workers, loop_refs, algo, run_dir, final_dir, max_rounds,
        time_limit_s,
    ):
        self._final_status: Optional[dict] = None
        self._final_info: Optional[ExecutionInformation] = None
        self._pool_released = False
        self._workers = workers
        self._loop_refs = loop_refs
        self._algo = algo
        self._run_dir = run_dir
        self._final_dir = final_dir
        self._max_rounds = max_rounds
        self._time_limit_s = time_limit_s
        self._t0 = time.monotonic()
        self._stop = threading.Event()
        self._reason: Optional[str] = None
        self._thread = threading.Thread(target=self._monitor, daemon=True)
        self._thread.start()

    def _monitor(self):
        """Limits watchdog only — dispatch belongs to the workers. When a
        limit trips it parks the worker loops (pool stays alive for
        status/aggregate reads until stop())."""
        import ray

        while not self._stop.is_set():
            if (
                self._time_limit_s is not None
                and time.monotonic() - self._t0 > self._time_limit_s
            ):
                self._reason = "TimeLimitReached"
                break
            stats = ray.get([w.status.remote() for w in self._workers])
            if max(s["rounds"] for s in stats) >= self._max_rounds:
                self._reason = "StepsLimitReached"
                break
            self._stop.wait(0.02)
        if self._reason is not None and not self._pool_released:
            ray.get([w.stop_loop.remote() for w in self._workers])

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def status(self) -> dict:
        import ray

        if self._final_status is not None:  # pool released by stop()
            return self._final_status
        if self._pool_released:
            raise RuntimeError(
                "pool released but the final snapshot failed on a prior "
                "stop() — no final status is available"
            )
        stats = ray.get([w.status.remote() for w in self._workers])
        return {
            "rounds": max(s["rounds"] for s in stats),
            "running": self.running,
            "sent": sum(s["sent"] for s in stats),
            "received": sum(s["received"] for s in stats),
            "n_active": sum(s["n_active"] for s in stats),
            "residual_max": max(s["residual_max"] for s in stats),
            "quiescent": not any(s["has_work"] for s in stats)
            and sum(s["sent"] for s in stats)
            == sum(s["received"] for s in stats),
        }

    def aggregate(self, agg):
        """Run a global aggregation over the live vertex states (the
        continuous-querying read path). ``agg`` follows the
        GlobalTermination protocol: ``aggregate_partition(cols) ->
        partial`` and ``reduce(partials) -> value``."""
        import ray

        if self._final_status is not None or self._pool_released:
            raise RuntimeError(
                "computation stopped — the worker pool is released; read "
                "the final state from the ExecutionInformation returned "
                "by stop() (final_state_ds / state_table)"
            )
        partials = [
            x
            for part in ray.get(
                [w.aggregate_states.remote(agg) for w in self._workers]
            )
            for x in part
        ]
        return agg.reduce(partials)

    def stop(self) -> ExecutionInformation:
        """Stop driving, close on a consistent boundary, snapshot final
        state, and return the execution information. Idempotent; after
        stop() the pool is released — ``status()`` returns the cached
        final snapshot and ``aggregate()`` raises (read the final state
        from the returned ExecutionInformation instead)."""
        import ray

        if self._final_info is not None:
            return self._final_info
        if self._pool_released:
            # a prior stop() killed the pool but failed before caching the
            # final info — the actors are dead; re-driving them would fail
            # with a confusing RayActorError
            raise RuntimeError(
                "pool already released but the final snapshot failed on a "
                "prior stop(); the computation cannot be resumed — read any "
                f"partial state from {self._final_dir!r}"
            )
        self._stop.set()
        self._thread.join()
        try:
            # park the worker loops and join them so no round can race
            # the consistent-boundary drain below
            ray.get([w.stop_loop.remote() for w in self._workers])
            ray.get(self._loop_refs)
            _drain(self._workers)
            ray.get(
                [w.write_final.remote(self._final_dir) for w in self._workers]
            )
            stats = ray.get([w.status.remote() for w in self._workers])
        finally:
            # cyclic peer handles — see AsyncEngine.run; must also run
            # when the drain/snapshot fails or the pool leaks for good
            self._pool_released = True
            for w in self._workers:
                ray.kill(w, no_restart=True)
        quiesced = not any(s["has_work"] for s in stats)
        rounds = max(s["rounds"] for s in stats)
        self._final_status = {
            "rounds": rounds,
            "running": False,
            "sent": sum(s["sent"] for s in stats),
            "received": sum(s["received"] for s in stats),
            "n_active": sum(s["n_active"] for s in stats),
            "residual_max": max(s["residual_max"] for s in stats),
            "quiescent": quiesced,
        }
        self._final_info = _async_info(
            self._algo,
            rounds,
            quiesced,
            self._reason or "Stopped",
            self._t0,
            stats,
            self._run_dir,
            self._final_dir,
        )
        return self._final_info


def _await_delivery(workers, tries: int = 200):
    """Wait until every in-flight push has landed (sent == received)."""
    import ray

    for _ in range(tries):
        stats = ray.get([w.status.remote() for w in workers])
        if sum(s["sent"] for s in stats) == sum(s["received"] for s in stats):
            return
        time.sleep(0.01)


def _drain(workers):
    """Close a limit-terminated run on a consistent boundary — wait for
    in-flight pushes to land, then fold the delivered-but-unprocessed
    inboxes WITHOUT further signaling (no new sends, so one drain
    reaches a stable snapshot)."""
    import ray

    _await_delivery(workers)
    ray.get([w.drain_inbox.remote() for w in workers])


def _async_info(
    algo, rounds, converged, reason, t0, stats, run_dir, final_dir
) -> ExecutionInformation:
    return ExecutionInformation(
        algorithm=algo.name,
        supersteps=rounds,
        converged=converged,
        termination_reason=reason or "Converged",
        wall_s=time.monotonic() - t0,
        residual_max=max(s["residual_max"] for s in stats),
        n_active=sum(s["n_active"] for s in stats),
        edges_traversed_total=sum(s["sent"] for s in stats),
        run_dir=run_dir,
        final_step_dir=final_dir,
        per_step=[
            {
                "superstep": rounds,
                "undeliverable": sum(s["undeliverable"] for s in stats),
                "signal_rows": sum(s["sent"] for s in stats),
                "parts": [],
            }
        ],
    )
