"""Algorithm interface — the rebuild of the reference's user surface.

The reference's algorithm API is "subclass DataGraphVertex/DataFlowVertex
+ DefaultEdge" (``/root/reference/src/main/scala/com/signalcollect/
DataGraphVertex.scala:35-103``, ``DataFlowVertex.scala:36-89``,
``DefaultEdge.scala:33-78``). Here an algorithm is a small vectorized
spec over numpy arrays; the executors run its hooks once per partition
per superstep. All hooks operate on whole partitions (columns), never
rows.

Semantics mapping:

* ``init``            ≙ vertex constructor + ``afterInitialization``
* ``src_values``      ≙ per-vertex part of the edge ``signal`` function
* ``edge_values``     ≙ per-edge part (weight application,
                        ``DefaultEdge.scala:70-72``)
* ``combine``         ≙ the associative+commutative pre-aggregation that
                        replaces BulkMessageBus batching
                        (``messaging/BulkMessageBus.scala:30-51``) — it
                        runs once per sending partition (combiner) and
                        once per receiving partition (final), so it must
                        be idempotent under re-application.
* ``collect``         ≙ ``DataGraphVertex.collect`` / ``DataFlowVertex
                        .collect`` + ``scoreSignal`` residual scoring
                        (``examples/PageRank.scala:59-68``).
* ``pointer``         — opt-in pointer jumping (no reference
                        counterpart): a vertex also collects the signal
                        value of the vertex its state names.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa

from signal_collect_ray.util import isin_sorted

StateDict = Dict[str, np.ndarray]


class Algorithm:
    """Base vertex-centric algorithm (vectorized signal/collect spec)."""

    name: str = "base"
    #: Arrow type of the vertex state column.
    state_pa_type: pa.DataType = pa.float64()
    #: Signal value columns (besides dst_part:int32, dst:int64).
    signal_fields: List[Tuple[str, pa.DataType]] = [("val", pa.float64())]
    #: If True, every vertex signals every superstep (gating off) — used
    #: by algorithms whose collect is not reconstructible from fresh
    #: signals alone (e.g. Chinese Whispers weighted mode, which relies
    #: on the reference's most-recent-signal retention,
    #: DataGraphVertex.scala:66-77).
    always_signal: bool = False

    #: ResetStateAfterSignaling mixin (reference
    #: ``ResetStateAfterSignaling.scala:22-33``): when True, every vertex
    #: that executed its signal operation this superstep has its state
    #: overwritten with ``reset_value`` BEFORE the collect phase sees it —
    #: PathQuery-style message-passing algorithms (tokens forwarded, not
    #: accumulated). Applied by every executor through
    #: ``partition.reset_after_signal``.
    reset_after_signal: bool = False
    reset_value = 0.0

    #: Vertex-program-initiated mutation (reference ``GraphEditor.scala:
    #: 37-201`` passed into signal/collect; ``examples/WebCrawler.scala:
    #: 38-47`` grows the graph DURING PageRank). When True the durable
    #: engine calls ``emit_edges`` after every partition collect and
    #: applies the union of emitted edges at the next superstep boundary
    #: through its ``Graph.update`` mutation path (new targets are
    #: auto-created, state migrates, every vertex re-enqueued).
    emits_mutations: bool = False

    #: When True, a mutation boundary re-initializes EVERY vertex
    #: (``algo.init``) instead of migrating survivor state. Needed by
    #: delta-formulated algorithms (PageRank): their state implicitly
    #: encodes Σ(retained signal per in-edge) under the OLD topology;
    #: the reference fixes stale retained signals by most-recent-signal
    #: REPLACEMENT as sources re-signal (``DataGraphVertex.scala:66-77``),
    #: which a delta increment cannot reproduce after out-degrees change.
    #: Monotone-fold algorithms (min-label CC, SSSP under adds) keep
    #: their warm start with the default False.
    fresh_state_on_mutation: bool = False

    #: Pregel-style per-superstep GLOBAL AGGREGATOR (reference parity:
    #: ``AggregationOperation.scala:27-59``'s worker-partial/coordinator-
    #: merge shape, but fed BACK into the computation each superstep —
    #: the aggregator channel Pregel exposes and plain Signal/Collect
    #: reads only between executions). When True the durable engine
    #: computes ``global_partial`` over every state shard it writes
    #: (piggybacked on the collect metrics rows — no extra pass), folds
    #: the partials with ``reduce_global``, records the value in the
    #: step manifest (JSON-serializable ⇒ resume-safe), and assigns
    #: ``self.global_value`` before the next collect, so collect sees
    #: the PREVIOUS step's aggregate — exactly the dangling-mass term of
    #: textbook PageRank. ``src_values`` must not read it: a round's
    #: signal half runs right after its collect, before that step's
    #: aggregate exists. Durable engine only (like ``edge_deltas``).
    has_global: bool = False
    #: The reduced aggregate of the previous superstep's state (None at
    #: superstep 1 only if the engine didn't compute an init value).
    global_value = None

    def global_partial(self, sub: StateDict):
        """Per-partition partial over one written state shard (keys:
        vid/out_degree/sum_out_weight/state/last/active)."""
        raise NotImplementedError

    def reduce_global(self, partials: list):
        """Fold the per-partition partials (driver side, O(partitions))."""
        raise NotImplementedError

    #: Dense scatter aggregation (synchronous executors' fast path): "sum",
    #: "min" or "max" when the per-edge signal is a single value combined with a
    #: commutative monoid — aggregation becomes bincount/minimum.at over
    #: the global dense vertex index (no sorting in the superstep hot
    #: path) and the exchange ships dense per-partition vectors. None →
    #: sparse rows always (e.g. Chinese Whispers' (label, weight) mode).
    dense_agg: Optional[str] = None
    #: Identity element of the dense monoid (0.0 for sum; +inf / an
    #: int sentinel for min).
    dense_identity: float = 0.0
    #: numpy dtype of the dense vector.
    dense_dtype = np.float64

    def collect_dense(
        self, prev: StateDict, inc: np.ndarray, signal_threshold: float
    ) -> StateDict:
        """Collect from a dense aggregated-incoming vector aligned with
        the partition's sorted vid array (identity where no signal)."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------
    def init(
        self,
        vid: np.ndarray,
        out_degree: np.ndarray,
        sum_out_weight: np.ndarray,
    ) -> StateDict:
        """Initial {"state", "last", "active"} arrays for a partition."""
        raise NotImplementedError

    # -- signal phase ------------------------------------------------------
    def src_values(self, sub: StateDict) -> StateDict:
        """Per-source-vertex quantities the signal depends on.

        ``sub`` holds state/last/out_degree/sum_out_weight for the active
        sources of one partition. Returned arrays are expanded (repeated
        per out-edge) before ``edge_values``.
        """
        raise NotImplementedError

    def edge_values(self, expanded: StateDict, weight: np.ndarray) -> StateDict:
        """Per-edge signal values from expanded src values + edge weight."""
        raise NotImplementedError

    def combine(
        self, dst: np.ndarray, values: StateDict
    ) -> Tuple[np.ndarray, StateDict]:
        """Associative pre-aggregation of signal rows by destination."""
        raise NotImplementedError

    # -- collect phase -----------------------------------------------------
    def collect(
        self,
        prev: StateDict,
        dst: np.ndarray,
        sig: StateDict,
        signal_threshold: float,
    ) -> StateDict:
        """New {"state", "last", "active", "residual"} for a partition.

        ``prev`` is the full previous state of the partition (sorted by
        vid); ``(dst, sig)`` are the final-combined incoming signals
        (dst sorted ascending, subset of prev["vid"]).
        """
        raise NotImplementedError

    def pointer(self, shard: StateDict) -> Optional[np.ndarray]:
        """Opt-in gather-by-id (pointer jumping) for the synchronous
        executors: for every vertex of a collected partition (full
        shard columns, sorted by vid), the id of the vertex whose signal
        value it should also collect. None (the default) means no
        gather. A vertex whose state changed in a collect and whose
        pointer is not its own id sends one request row to the
        pointer's partition in that round's outbox; the next round's
        signal half answers it as an ordinary signal row (the target's
        ``src_values`` → ``edge_values`` with weight 1), so the
        requester collects it two rounds after its change through the
        normal combine → collect. Sound only when a collected target
        value is one the vertex could also have received by propagation
        (min-label CC: the label names an ancestor, so ``label[label]``
        is an ancestor's label). A dense round carries its requests and
        replies as sparse rows beside its dense slices; the async
        executor ignores the hook."""
        return None

    def emit_edges(
        self, prev: StateDict, new: StateDict
    ) -> Optional[StateDict]:
        """Edges this partition's vertex program wants ADDED — the
        GraphEditor surface (``GraphEditor.scala:37-201``). Called after
        ``collect`` with the pre-collect (``prev``: vid/out_degree/
        sum_out_weight/state/last/active) and post-collect (``new``)
        partition arrays; return ``{"src", "dst"[, "weight"]}`` numpy
        arrays or None. MUST be self-quiescing — emit only on a state
        transition (e.g. a vertex's first visit, out_degree still 0), or
        the run mutates forever. Requires ``emits_mutations = True``;
        honored by the durable SuperstepEngine (the resident/async
        executors bind CSR blocks at start and refuse, like
        ``run(edge_deltas=...)``)."""
        return None

    # -- helpers shared by implementations --------------------------------
    @staticmethod
    def _align(prev_vid: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Positions of dst ids inside the partition's sorted vid array.

        Ids not present are undeliverable signals (reference default
        handler would raise, ``interfaces/Handlers.scala:26-64``; we drop
        and count). Returns an int index array with -1 for missing.
        """
        ok, idx = isin_sorted(prev_vid, dst)
        return np.where(ok, idx, -1)


class GlobalTermination:
    """User predicate on a global state aggregate, checked every
    ``interval`` supersteps — the rebuild of the reference's
    ``GlobalTerminationDetection`` (``ExecutionConfiguration.scala:147-180``:
    ``aggregationOperation`` + ``aggregationInterval`` + ``shouldTerminate``).

    Two-phase like every reference aggregation
    (``interfaces/AggregationOperation.scala:27-59``): a worker-local
    ``aggregate_partition`` over each partition's state arrays, then a
    coordinator-side ``reduce`` over the partials.
    """

    interval: int = 1

    def __init__(self, interval: int = 1):
        self.interval = interval

    def aggregate_partition(self, state: StateDict):
        """Partial aggregate of one partition ({vid, state, ...} arrays)."""
        raise NotImplementedError

    def reduce(self, partials: list):
        raise NotImplementedError

    def should_terminate(self, aggregate) -> bool:
        raise NotImplementedError


class SumStatesTermination(GlobalTermination):
    """Terminate when Σ state ≥ threshold (mirrors the reference's
    ComputationTerminationSpec global-termination test, which stops
    PageRank once the rank sum crosses a bound)."""

    def __init__(self, threshold: float, interval: int = 1):
        super().__init__(interval)
        self.threshold = threshold

    def aggregate_partition(self, state: StateDict):
        return float(np.asarray(state["state"], dtype=np.float64).sum())

    def reduce(self, partials: list):
        return float(sum(partials))

    def should_terminate(self, aggregate) -> bool:
        return aggregate >= self.threshold
