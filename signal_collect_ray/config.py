"""Engine configuration.

Mirrors the knobs of the reference's ``ExecutionConfiguration.scala``
(signalThreshold default 0.01, collectThreshold 0.0, steps/time limits —
lines 31, 46-52, 86-97) plus the Ray-Data-specific physical knobs
(partition count, checkpoint cadence and retention, round-task
retries).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineConfig:
    # Number of graph partitions (hash(vid) % P for vertices AND edge
    # sources AND the signal shuffle key). On a real cluster: ~2-4x total
    # cores. Kept moderate by default so per-superstep task overhead is
    # amortized at test scale.
    num_partitions: int = 8

    # Score-guided scheduling: a vertex signals only when its residual
    # (algorithm-defined scoreSignal) exceeds this. Reference default is
    # 0.01 (ExecutionConfiguration.scala:31); we default to 0.0 so tests
    # converge to the exact fixed point, and callers relax it for speed.
    signal_threshold: float = 0.0

    # Convergence: stop when max residual over all vertices <= eps AND the
    # active frontier is empty (WorkerImplementation.scala:293-297
    # "toSignal.isEmpty" semantics).
    eps: float = 1e-6

    # Bounds (withStepsLimit / withTimeLimit, ExecutionConfiguration.scala:86-97).
    max_supersteps: int = 500
    time_limit_s: float | None = None

    # Resident-executor sync batching: the driver submits this many
    # superstep rounds before fetching metrics (round tasks chain
    # through object-ref dependencies). 1 (default) = one metrics fetch
    # per superstep; > 1 amortizes the driver barrier over short
    # supersteps. Either way the run ends at the first converged round:
    # the rounds submitted past it are dropped. Checkpoint /
    # global-termination cadences force syncs at their own multiples.
    convergence_check_interval: int = 1

    # Resident-executor checkpoint cadence: every superstep by default
    # (the north rule requires per-superstep resumable checkpoints).
    # Raise to trade durability for speed on long runs. The durable
    # engine keeps its state in its step checkpoints, so it writes one
    # every superstep whatever this says.
    checkpoint_interval: int = 1

    # Keep only the newest N COMPLETE checkpoints (None = keep all).
    # Resume only ever reads the latest complete step, so retain=2
    # (resume point + one predecessor) is safe; at 10^12 vertices a
    # 100-superstep run cannot afford 100 full state copies. Pruning
    # happens strictly after the newer manifest lands (crash-safe).
    checkpoint_retain: int | None = None

    # Undeliverable-signal handler (reference Handlers.scala:26-64 /
    # DefaultHandlerFactory): "drop" (count in manifests — our default),
    # "raise" (reference default: throw), or "create" (auto-create the
    # missing vertex via algo.init with no out-edges and deliver —
    # NonExistentVertexHandlerSpec behavior). Every executor honours all
    # three (one handler, partition.deliver). The dense exchange needs a
    # closed vertex set, so the synchronous executors pick it only under
    # "drop" on a graph without dangling edges.
    on_undeliverable: str = "drop"

    # Fault tolerance of the synchronous executors: a round task whose
    # worker process dies (node loss, OOM kill) is retried up to this
    # many times (its max_retries), and Ray rebuilds lost state objects
    # from their lineage. 0 disables recovery (fail fast).
    max_worker_restarts: int = 2

    # Where runs live unless an explicit run_dir is passed.
    checkpoint_root: str = "/tmp/scray_runs"
