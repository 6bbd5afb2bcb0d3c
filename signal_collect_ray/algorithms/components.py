"""Connected components — min-label propagation with shortcutting.

Not an explicit reference example; realized as the reference's SSSP
pattern (``examples/Sssp.scala:64-69``) with ``StateForwarderEdge``
(``StateForwarderEdge.scala:28-33``): state₀ = own id, signal = state,
collect = min(state, signals). Min is monotone, so fresh-only signaling
(score-gated frontier) is exact. Run over a symmetrized edge table for
undirected components.

Plain propagation moves a label one hop per superstep, so a path of
length L costs L supersteps. ``pointer`` = the label opts into the
synchronous executors' gather (``Algorithm.pointer``): a vertex whose
label changed also collects ``label[label]``, so CC computes
``label := min(label, label[label])`` along with the neighbour
signals — the label + shortcut scheme of Hash-to-Min (ICDE 2013) and
Stergiou et al. (WSDM 2018), which needs O(log n) rounds.

Exactness: every label is the id of an ancestor of its vertex (a
vertex with a path to it), because it reached the vertex along edges
or through a gather; ``label[label]`` is the label of an ancestor, so
it names an ancestor too. Labels stay ≥ the minimum ancestor id, and at
the fixpoint (no label changed, every signal collected) ``label[v] ≤
label[u]`` on every edge u → v, which forces ``label[v]`` = the
minimum ancestor id — the component minimum on a symmetric graph. A
reply still in flight at that point is a no-op: the minimum ancestor
of the minimum ancestor is itself.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from signal_collect_ray.algorithm import Algorithm, StateDict
from signal_collect_ray.util import segment_min


_SENTINEL = np.int64(2**62)


class ConnectedComponents(Algorithm):
    name = "connected_components"
    state_pa_type = pa.int64()
    signal_fields = [("val", pa.int64())]
    dense_agg = "min"
    dense_identity = float(2**62)
    dense_dtype = np.int64

    def init(self, vid, out_degree, sum_out_weight) -> StateDict:
        n = len(vid)
        return {
            "state": vid.astype(np.int64).copy(),
            "last": vid.astype(np.int64).copy(),
            "active": np.ones(n, dtype=bool),
            "residual": np.ones(n),
        }

    def src_values(self, sub: StateDict) -> StateDict:
        return {"val": sub["state"]}

    def edge_values(self, expanded: StateDict, weight) -> StateDict:
        return {"val": expanded["val"]}

    def combine(self, dst, values):
        d, v = segment_min(dst, values["val"])
        return d, {"val": v}

    def pointer(self, shard: StateDict):
        return shard["state"]

    def collect(self, prev, dst, sig, signal_threshold) -> StateDict:
        state = prev["state"].copy()
        if len(dst):
            idx = self._align(prev["vid"], dst)
            state[idx] = np.minimum(state[idx], sig["val"])
        changed = state != prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }

    def collect_dense(self, prev, inc, signal_threshold):
        state = np.minimum(prev["state"], inc.astype(np.int64))
        changed = state != prev["state"]
        return {
            "state": state,
            "last": state.copy(),
            "active": changed,
            "residual": changed.astype(np.float64),
        }
