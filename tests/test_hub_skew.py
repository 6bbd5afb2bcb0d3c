"""Hub skew: a star hub (in-degree = n-1) must give the same PageRank on
the durable executor, whose per-block combiners bound each hub's collect
group at the signal block count, and on the resident executor's
hub-oblivious exchange. Durable manifests keep their per-partition
group census keys; resident manifests count the signal rows each
partition received."""

import glob
import json
import os

import numpy as np

from signal_collect_ray import EngineConfig, Graph, SuperstepEngine
from signal_collect_ray.algorithms import PageRank
from signal_collect_ray.engine_resident import ResidentEngine


def _hub_graph(tmp_path, n=2000):
    # every leaf points at vertex 0 (extreme in-degree hub) + a chain
    leaves = np.arange(1, n, dtype=np.int64)
    src = np.concatenate([leaves, np.arange(0, n - 1, dtype=np.int64)])
    dst = np.concatenate([np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)])
    return Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), num_partitions=8)


def test_hub_pagerank_durable_equals_resident(tmp_path):
    g = _hub_graph(tmp_path)
    cfg = EngineConfig(num_partitions=8, eps=0.0, max_supersteps=6)
    durable_dir = str(tmp_path / "durable")
    a = SuperstepEngine(cfg).run(g, PageRank(), run_dir=durable_dir, resume=False)
    resident_dir = str(tmp_path / "resident")
    b = ResidentEngine(cfg).run(g, PageRank(), run_dir=resident_dir, resume=False)
    assert a.supersteps == b.supersteps == 6
    ta, tb = a.state_table(), b.state_table()
    assert ta.column("vid").to_pylist() == tb.column("vid").to_pylist()
    assert np.allclose(
        ta.column("state").to_numpy(), tb.column("state").to_numpy(),
        rtol=0, atol=1e-12,
    )
    manifests = sorted(glob.glob(os.path.join(durable_dir, "step=*", "manifest.json")))
    assert len(manifests) == 7
    for path in manifests:
        with open(path) as f:
            parts = json.load(f)["parts"]
        assert parts
        for p in parts:
            assert {"max_group_rows", "signal_rows_in"} <= set(p), (path, p)
    resident = sorted(glob.glob(os.path.join(resident_dir, "step=*", "manifest.json")))
    assert len(resident) == 7
    for path in resident[1:]:
        with open(path) as f:
            m = json.load(f)
        assert m["signal_rows"] > 0, path
        assert all("signal_rows_in" in p for p in m["parts"]), path
