"""Resident executor ≡ Ray Data executor: identical results, shared
checkpoint format (cross-executor resume)."""

import os

import numpy as np
import pytest

from signal_collect_ray import EngineConfig, Graph, SuperstepEngine
from signal_collect_ray.algorithms import SSSP, ChineseWhispers, ConnectedComponents, PageRank
from signal_collect_ray.engine_resident import ResidentEngine

from tests import fixtures as fx


def _graph(tmp_path, P=4):
    rng = np.random.RandomState(5)
    n = 300
    src = rng.randint(0, n, 1500).astype(np.int64)
    dst = rng.randint(0, n, 1500).astype(np.int64)
    keep = src != dst
    return Graph.from_edge_arrays(src[keep], dst[keep], str(tmp_path / "g"), num_partitions=P)


def test_pagerank_identical_per_step(tmp_path):
    # 12 bounded supersteps: per-step state equality pins both executors
    # to the same semantics (convergence-length parity is covered by the
    # cheaper CC case below and cross-executor resume).
    g = _graph(tmp_path)
    cfg = EngineConfig(num_partitions=4, eps=1e-8, max_supersteps=12)
    a = SuperstepEngine(cfg).run(g, PageRank(), run_dir=str(tmp_path / "rd"), resume=False)
    b = ResidentEngine(cfg, num_workers=3).run(
        g, PageRank(), run_dir=str(tmp_path / "res"), resume=False
    )
    assert a.supersteps == b.supersteps == 12
    ta, tb = a.state_table(), b.state_table()
    assert ta.column("vid").to_pylist() == tb.column("vid").to_pylist()
    # float sums differ only in summation order between executors
    assert np.allclose(
        ta.column("state").to_numpy(), tb.column("state").to_numpy(),
        rtol=0, atol=1e-12,
    )
    assert ta.column("active").to_pylist() == tb.column("active").to_pylist()


def test_cc_identical_at_convergence(tmp_path):
    g = _graph(tmp_path)
    from signal_collect_ray.pipelines.queries import _sym_dedup
    gs = Graph.build(
        _sym_dedup(g.edges_ds()), str(tmp_path / "gs"), num_partitions=4
    )
    cfg = EngineConfig(num_partitions=4, max_supersteps=50)
    a = SuperstepEngine(cfg).run(gs, ConnectedComponents(), run_dir=str(tmp_path / "rdc"), resume=False)
    b = ResidentEngine(cfg, num_workers=3).run(
        gs, ConnectedComponents(), run_dir=str(tmp_path / "resc"), resume=False
    )
    assert a.converged and b.converged
    assert a.supersteps == b.supersteps
    assert a.state_table().column("state").to_pylist() == b.state_table().column(
        "state"
    ).to_pylist()


def test_cw_identical(tmp_path):
    src, dst = fx.two_clusters()
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4, max_supersteps=20)
    a = SuperstepEngine(cfg).run(g, ChineseWhispers(), run_dir=str(tmp_path / "rd"), resume=False)
    b = ResidentEngine(cfg, num_workers=2).run(
        g, ChineseWhispers(), run_dir=str(tmp_path / "res"), resume=False
    )
    assert a.state_table().column("state").to_pylist() == b.state_table().column(
        "state"
    ).to_pylist()


def test_cross_executor_resume(tmp_path):
    g = _graph(tmp_path)
    cfg = EngineConfig(num_partitions=4, eps=1e-8, max_supersteps=300)
    full = ResidentEngine(cfg, num_workers=2).run(
        g, PageRank(), run_dir=str(tmp_path / "full"), resume=False
    )
    # start under the Ray Data executor, resume under the resident one
    SuperstepEngine(cfg).run(
        g, PageRank(), run_dir=str(tmp_path / "x"), resume=False, max_supersteps=4
    )
    resumed = ResidentEngine(cfg, num_workers=2).run(
        g, PageRank(), run_dir=str(tmp_path / "x"), resume=True
    )
    assert resumed.converged
    assert resumed.supersteps == full.supersteps
    assert np.allclose(
        resumed.state_table().column("state").to_numpy(),
        full.state_table().column("state").to_numpy(),
        rtol=0, atol=1e-12,
    )


def test_resident_checkpoint_interval(tmp_path):
    import glob
    import os

    g = _graph(tmp_path)
    cfg = EngineConfig(num_partitions=4, eps=1e-8, max_supersteps=50)
    info = ResidentEngine(cfg, num_workers=2).run(
        g, PageRank(), run_dir=str(tmp_path / "r"), resume=False,
        checkpoint_interval=10,
    )
    steps = sorted(
        int(os.path.basename(d).split("=")[1])
        for d in glob.glob(str(tmp_path / "r" / "step=*"))
    )
    # step 0, every 10th, and the terminal step
    assert 0 in steps
    assert info.supersteps == steps[-1]
    assert all(s % 10 == 0 or s == info.supersteps for s in steps)


class _CrashOnce(SSSP):
    """SSSP whose collect kills the process running its round, once: the
    first time signals reach vertex 10. ``marker`` records the crash."""

    def __init__(self, source_vid, marker):
        super().__init__(source_vid)
        self.marker = marker

    def collect(self, prev, dst, sig, signal_threshold):
        if len(dst) and dst.max() >= 10:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return super().collect(prev, dst, sig, signal_threshold)


def test_worker_failure_recovers(tmp_path):
    """Fault tolerance: a process that dies mid-round must not lose the
    run — Ray retries the round task (EngineConfig.max_worker_restarts
    times), so the run converges to the same states as a clean one;
    with no retries allowed the run fails fast."""
    import ray

    # a directed chain: one superstep per hop
    n = 40
    src = np.arange(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "gchain"), num_partitions=4)
    cfg = EngineConfig(num_partitions=4, eps=0.0, max_supersteps=500)

    def run_resident(algo, name, config=cfg):
        return ResidentEngine(config, num_workers=2).run(
            g, algo, run_dir=str(tmp_path / name), resume=False,
            checkpoint_interval=5,
        )

    want = run_resident(SSSP(0), "clean").state_table().column("state").to_pylist()
    durable = SuperstepEngine(cfg).run(
        g, SSSP(0), run_dir=str(tmp_path / "durable"), resume=False
    )
    assert durable.state_table().column("state").to_pylist() == want

    marker = str(tmp_path / "crashed")
    info = run_resident(_CrashOnce(0, marker), "faulty")
    assert os.path.exists(marker), "the round never crashed"
    assert info.converged
    assert info.state_table().column("state").to_pylist() == want
    # the durable engine retries its round task the same way
    marker = str(tmp_path / "crashed-durable")
    info = SuperstepEngine(cfg).run(
        g, _CrashOnce(0, marker), run_dir=str(tmp_path / "faulty-durable"), resume=False
    )
    assert os.path.exists(marker), "the round never crashed"
    assert info.state_table().column("state").to_pylist() == want

    no_retry = EngineConfig(num_partitions=4, eps=0.0, max_supersteps=500,
                            max_worker_restarts=0)
    with pytest.raises(ray.exceptions.RayError):
        run_resident(_CrashOnce(0, str(tmp_path / "crashed-again")), "fail", no_retry)


@pytest.mark.parametrize("num_workers", [None, 2])
def test_convergence_check_interval_is_exact(tmp_path, num_workers):
    # batching the metrics fetch must not move an eps run's result: the
    # run ends at the first converged round, not at the batch boundary.
    # The interval has no effect at W = 1 (one segment per sync point);
    # num_workers=2 keeps the batching path covered.
    g = _graph(tmp_path)
    cfg = EngineConfig(num_partitions=4, eps=1e-6, max_supersteps=300)
    a, b = (
        ResidentEngine(cfg, num_workers=num_workers).run(
            g, PageRank(), run_dir=str(tmp_path / f"every{i}"), resume=False,
            checkpoint_interval=0, convergence_check_interval=i,
        )
        for i in (1, 7)
    )
    assert a.converged and a.supersteps % 7
    assert (a.supersteps, a.termination_reason) == (b.supersteps, b.termination_reason)
    assert len(a.per_step) == len(b.per_step)
    assert a.state_table().equals(b.state_table())
