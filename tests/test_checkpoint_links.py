"""Dormant partitions: a partition with no scheduled vertex that receives
no signal keeps its state, so the durable engine hard-links its
checkpoint shard from the previous step instead of rewriting it — the
checkpoint bytes of sparse-frontier runs (CC, SSSP) stay flat. A
partition without vertices has no shard to link."""

import os

import numpy as np

from signal_collect_ray import EngineConfig, Graph, SuperstepEngine
from signal_collect_ray.algorithms import SSSP, ConnectedComponents
from signal_collect_ray.util import part_of


def test_quiet_partition_shard_is_hard_linked(tmp_path):
    # a triangle that lives in partition 0 is never reached; SSSP from
    # the head of a 30-vertex path in partition 1 runs for ~30 supersteps
    # (CC's shortcut would settle the path in ~8)
    ids = np.arange(1000, dtype=np.int64)
    home = part_of(ids, 2)
    tri, path = ids[home == 0][:3], ids[home == 1][:30]
    src = np.concatenate([tri, path[:-1]])
    dst = np.concatenate([np.roll(tri, 1), path[1:]])
    g = Graph.from_edge_arrays(
        src, dst, str(tmp_path / "g"), num_partitions=2, symmetric=True
    )
    rdir = str(tmp_path / "r")
    info = SuperstepEngine(EngineConfig(num_partitions=2, max_supersteps=100)).run(
        g, SSSP(int(path[0])), run_dir=rdir, resume=False
    )
    assert info.converged and info.supersteps > 20

    def inodes(part):
        return [
            os.stat(
                os.path.join(
                    SuperstepEngine._step_dir(rdir, k), f"part-{part:05d}.parquet"
                )
            ).st_ino
            for k in range(info.supersteps + 1)
        ]

    quiet, busy = inodes(0), inodes(1)
    # from step 5 on, partition 0's shard is the one file, linked forward
    assert len(set(quiet[5:])) == 1
    assert quiet[-1] == quiet[-2]
    # partition 1 is rewritten every superstep
    assert len(set(busy)) == len(busy)


def test_vertexless_partition_going_quiet(tmp_path):
    # the head of a 6-path also points at a missing vertex that hashes to
    # a partition without vertices: under "drop" that partition receives
    # signals in step 1 only, then has nothing to carry forward or link
    ids = np.arange(2000, dtype=np.int64)
    home = part_of(ids, 4)
    live, ghost = ids[home < 2][:6], ids[home == 3][:1]
    src = np.concatenate([live[:-1], live[1:], live[:1]])
    dst = np.concatenate([live[1:], live[:-1], ghost])
    g = Graph.from_edge_arrays(
        src, dst, str(tmp_path / "g"), num_partitions=4, exclude_vertices=ghost
    )
    info = SuperstepEngine(EngineConfig(num_partitions=4, max_supersteps=50)).run(
        g, ConnectedComponents(), run_dir=str(tmp_path / "r"), resume=False
    )
    assert info.converged
    assert [m["undeliverable"] for m in info.per_step][:3] == [0, 1, 0]
    t = info.state_table()
    assert t.column("vid").to_pylist() == sorted(live.tolist())
    assert set(t.column("state").to_pylist()) == {int(live.min())}


def test_dormant_link_replaces_a_retried_rounds_link(tmp_path):
    # Ray retries a round whose worker died, and the retry checkpoints
    # into the same staging dir: linking the dormant shard again must
    # replace the first attempt's link, not raise FileExistsError
    from signal_collect_ray import partition
    from signal_collect_ray.engine_resident import _Worker

    algo = ConnectedComponents()
    shard = partition.init_shard(algo, {
        "vid": np.arange(3, dtype=np.int64),
        "out_degree": np.zeros(3, dtype=np.int64),
        "sum_out_weight": np.zeros(3),
    })
    prev, out = tmp_path / "step-prev", tmp_path / "staging"
    prev.mkdir()
    out.mkdir()
    partition.write_shard(str(prev), 0, algo, shard)
    w = _Worker(0, [0, 1], {}, algo, 2, 1, 0.0)
    w.shards = {0: shard, 1: shard}
    w._dormant = {0}
    for _ in range(2):
        w.checkpoint(str(out), prev_dir=str(prev))
    name = "part-00000.parquet"
    assert os.stat(out / name).st_ino == os.stat(prev / name).st_ino
    assert (out / "part-00001.parquet").exists()
