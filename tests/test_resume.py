"""Checkpoint/resume: a bounded run continued from its checkpoints must
equal an uninterrupted run (north rule: resumable mid-iteration;
richer than reference snapshot/restore, WorkerImplementation.scala:457-510)."""

import json
import os

import numpy as np

from signal_collect_ray import EngineConfig, Graph, SuperstepEngine
from signal_collect_ray.algorithms import PageRank

from tests import fixtures as fx


def test_resume_equals_uninterrupted(tmp_path):
    # bounded to 14 supersteps: bit-identical state after interrupt at 5
    # + resume proves mid-iteration resumability; convergence-length
    # resume parity runs in test_resident.py::test_cross_executor_resume.
    src, dst = fx.torus(4, 4)
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), num_partitions=4)
    eng = SuperstepEngine(EngineConfig(num_partitions=4, eps=1e-8, max_supersteps=14))

    # uninterrupted
    full = eng.run(g, PageRank(), run_dir=str(tmp_path / "full"), resume=False)
    # interrupted after 5 supersteps, then resumed
    part = eng.run(
        g, PageRank(), run_dir=str(tmp_path / "resumed"), resume=False, max_supersteps=5
    )
    assert part.termination_reason == "StepsLimitReached"
    resumed = eng.run(g, PageRank(), run_dir=str(tmp_path / "resumed"), resume=True)
    assert resumed.supersteps == full.supersteps == 14

    a = full.state_table()
    b = resumed.state_table()
    assert a.column("vid").to_pylist() == b.column("vid").to_pylist()
    assert np.allclose(
        a.column("state").to_numpy(), b.column("state").to_numpy(), atol=0
    )


def test_manifest_lineage_and_metrics(tmp_path):
    src, dst = fx.cycle(8)
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), num_partitions=2)
    eng = SuperstepEngine(EngineConfig(num_partitions=2, max_supersteps=3))
    info = eng.run(g, PageRank(), run_dir=str(tmp_path / "r"), resume=False)
    man_path = os.path.join(info.final_step_dir, "manifest.json")
    with open(man_path) as f:
        m = json.load(f)
    assert m["superstep"] == 3
    assert m["lineage"]["algorithm"] == "pagerank"
    assert m["lineage"]["num_partitions"] == 2
    assert m["n_vertices"] == 8
    assert len(m["parts"]) >= 1
    for p in m["parts"]:
        assert {"part", "n_vertices", "n_active", "residual_max"} <= set(p)


def test_restart_ignores_incomplete_tmp_step(tmp_path):
    src, dst = fx.cycle(8)
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), num_partitions=2)
    eng = SuperstepEngine(EngineConfig(num_partitions=2, max_supersteps=4))
    eng.run(g, PageRank(), run_dir=str(tmp_path / "r"), resume=False)
    # simulate a crash mid-write: a stale tmp dir must not break resume
    os.makedirs(str(tmp_path / "r" / ".tmp-step=00005"), exist_ok=True)
    info = eng.run(
        g, PageRank(), run_dir=str(tmp_path / "r"), resume=True, max_supersteps=6
    )
    assert info.supersteps == 6


def test_resume_with_resized_worker_pool(tmp_path):
    """Elastic resume: checkpoints are per-PARTITION, so a run
    interrupted under one worker-pool size resumes bit-identically
    under another (the cluster-resize-between-runs story — partitions,
    not workers, are the durable unit)."""
    from signal_collect_ray.engine_resident import ResidentEngine

    src, dst = fx.torus(4, 4)
    g = Graph.from_edge_arrays(
        src, dst, str(tmp_path / "g"), num_partitions=4
    )
    cfg = EngineConfig(num_partitions=4, eps=1e-8, max_supersteps=14)

    full = ResidentEngine(cfg, num_workers=2).run(
        g, PageRank(), run_dir=str(tmp_path / "full"), resume=False,
        checkpoint_interval=1,
    )
    part = ResidentEngine(cfg, num_workers=2).run(
        g, PageRank(), run_dir=str(tmp_path / "resumed"), resume=False,
        max_supersteps=5, checkpoint_interval=1,
    )
    assert part.termination_reason == "StepsLimitReached"
    # resume the same run_dir with TWICE the workers
    resumed = ResidentEngine(cfg, num_workers=4).run(
        g, PageRank(), run_dir=str(tmp_path / "resumed"), resume=True,
        checkpoint_interval=1,
    )
    assert resumed.supersteps == full.supersteps == 14
    a = full.state_table()
    b = resumed.state_table()
    assert a.column("vid").to_pylist() == b.column("vid").to_pylist()
    assert np.allclose(
        a.column("state").to_numpy(), b.column("state").to_numpy(), atol=0
    )


def test_checkpoint_retention(tmp_path, ray_session):
    """checkpoint_retain=2 keeps only the newest two complete steps on
    the durable, resident and interactive executors, and resume from the
    survivor still works."""
    import glob
    import os

    import numpy as np

    from signal_collect_ray import EngineConfig, Graph, SuperstepEngine
    from signal_collect_ray.algorithms import PageRank
    from signal_collect_ray.engine_resident import ResidentEngine
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(2)
    src = rng.randint(0, 30, 120).astype(np.int64)
    dst = rng.randint(0, 30, 120).astype(np.int64)
    keep = src != dst
    edges = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
            }
        )
    )
    g = Graph.build(
        edges, os.path.join(str(tmp_path), "g"), num_partitions=4
    )

    def steps_on_disk(run_dir):
        return sorted(
            int(os.path.basename(d).split("=")[1])
            for d in glob.glob(os.path.join(run_dir, "step=*"))
            if os.path.exists(os.path.join(d, "manifest.json"))
        )

    def run(name, cfg, run_dir, resume):
        if name == "durable":
            return SuperstepEngine(cfg).run(
                g, PageRank(), run_dir=run_dir, resume=resume
            )
        if name == "resident":
            return ResidentEngine(cfg).run(
                g, PageRank(), run_dir=run_dir, resume=resume,
                checkpoint_interval=1,
            )
        # interactive: step to the limit, then finish()
        comp = ResidentEngine(cfg).interactive(
            g, PageRank(), run_dir=run_dir, resume=resume,
            checkpoint_interval=1,
        )
        comp.step(cfg.max_supersteps)
        return comp.finish()

    for name in ("durable", "resident", "interactive"):
        cfg = EngineConfig(
            num_partitions=4, eps=0.0, max_supersteps=6,
            checkpoint_retain=2,
        )
        rd_ = os.path.join(str(tmp_path), f"run_{name}")
        info = run(name, cfg, rd_, resume=False)
        on_disk = steps_on_disk(rd_)
        assert len(on_disk) == 2, (name, on_disk)
        assert on_disk[-1] == info.supersteps
        # resume from the survivor: continue two more supersteps
        cfg2 = EngineConfig(
            num_partitions=4, eps=0.0, max_supersteps=8,
            checkpoint_retain=2,
        )
        info2 = run(name, cfg2, rd_, resume=True)
        assert info2.supersteps == 8
        assert len(steps_on_disk(rd_)) == 2


def test_densest_peel_resume_structured_global(tmp_path):
    """Interrupt a DensestPeel run mid-peel and resume: the STRUCTURED
    [2E, V] global aggregates must carry through the manifest JSON so
    the resumed run's full peel trajectory equals the uninterrupted
    one's (resume restores algo.global_value from the last manifest)."""
    import pyarrow as pa
    import ray.data as rd

    from signal_collect_ray.algorithms import DensestPeel, peel_profile

    rng = np.random.default_rng(5)
    src = rng.integers(0, 24, 160).astype(np.int64)
    dst = rng.integers(0, 24, 160).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    sym_src = np.concatenate([src, dst])
    sym_dst = np.concatenate([dst, src])
    g = Graph.build(
        rd.from_arrow(pa.table({"src": sym_src, "dst": sym_dst})),
        str(tmp_path / "g"),
        num_partitions=4,
        dedup=True,
    )
    rounds = 8
    eng = SuperstepEngine(
        EngineConfig(num_partitions=4, eps=0.0, max_supersteps=2 * rounds + 1)
    )
    full = eng.run(
        g, DensestPeel(), run_dir=str(tmp_path / "full"), resume=False
    )
    part = eng.run(
        g,
        DensestPeel(),
        run_dir=str(tmp_path / "res"),
        resume=False,
        max_supersteps=5,  # stop right after a measure step
    )
    assert part.termination_reason == "StepsLimitReached"
    resumed = eng.run(
        g, DensestPeel(), run_dir=str(tmp_path / "res"), resume=True
    )
    # bit-identical final state: alive flags AND last-measured degrees
    a, b = full.state_table(), resumed.state_table()
    assert a.column("vid").to_pylist() == b.column("vid").to_pylist()
    assert a.column("state").to_pylist() == b.column("state").to_pylist()
    assert a.column("last").to_pylist() == b.column("last").to_pylist()
    # post-resume rounds (r >= 2, supersteps > 5) carry the same exact
    # [2E, V] trajectory — the structured global survived the manifest
    fp = peel_profile(full, rounds)
    rp = peel_profile(resumed, rounds)
    assert rp[3:] == fp[3:]
    assert any(v > 0 for _, v, _ in rp[3:4]) or fp[3][1] == 0
