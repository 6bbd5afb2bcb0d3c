"""signal_collect_ray — a Ray-Data-native link-graph analytics engine.

A from-scratch reimplementation of the query / data-processing
capabilities of uzh/signal-collect (vertex-centric signal/collect model,
reference at /root/reference) re-expressed Ray-Data-first:

* each superstep = one round of W workers (``engine_resident._Worker
  .collect_and_signal``): collect the signals addressed to a worker's
  partitions (vectorized per-partition state update), then signal over
  its CSR edge partitions with a per-destination combiner, exchanging
  pre-combined signal blocks through the object store. The durable
  engine's round tasks read and write per-partition Parquet checkpoints;
  the resident engine's keep step state in the object store. An
  algorithm may opt into pointer jumping (``Algorithm.pointer``): gather
  requests and their replies ride the same exchange, which gives
  connected components its O(log n) supersteps.
* score-guided scheduling mirrors signalThreshold / collectThreshold
  (reference ``ExecutionConfiguration.scala:31,46-52``)
* per-superstep per-partition Parquet checkpoints with lineage+metrics
  make every run resumable mid-iteration.

Nothing in this package calls ``ray.init`` — sessions are owned by the
caller (driver, bench.py, or the pytest fixture).
"""

from signal_collect_ray.config import EngineConfig
from signal_collect_ray.graph import Graph
from signal_collect_ray.engine import SuperstepEngine, ExecutionInformation
from signal_collect_ray.engine_resident import ResidentEngine
from signal_collect_ray.engine_async import AsyncEngine
from signal_collect_ray.modes import ExecutionMode, execute
from signal_collect_ray.algorithm import Algorithm, GlobalTermination, SumStatesTermination
from signal_collect_ray.sinks import write_partitioned, read_partitioned

__all__ = [
    "write_partitioned",
    "read_partitioned",
    "EngineConfig",
    "Graph",
    "SuperstepEngine",
    "ResidentEngine",
    "AsyncEngine",
    "ExecutionMode",
    "execute",
    "ExecutionInformation",
    "Algorithm",
    "GlobalTermination",
    "SumStatesTermination",
]

__version__ = "0.1.0"
