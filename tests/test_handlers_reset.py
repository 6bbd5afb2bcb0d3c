"""ResetStateAfterSignaling, recalculateScores and undeliverable-signal
handler conformance (reference ``ResetStateAfterSignaling.scala:22-33``,
``WorkerImplementation.scala:396-414``, ``Handlers.scala:26-64`` /
``NonExistentVertexHandlerSpec``)."""

import numpy as np
import pytest

from signal_collect_ray import EngineConfig, Graph
from signal_collect_ray.algorithms import ConnectedComponents, TokenDiffusion
from signal_collect_ray.engine import SuperstepEngine
from signal_collect_ray.engine_resident import ResidentEngine

from tests import fixtures as fx


def _token_run(tmp_path, src, dst, steps, tag, resident, P=2):
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / f"g{tag}"), num_partitions=P)
    cfg = EngineConfig(num_partitions=P, max_supersteps=steps, eps=1e-12)
    eng = ResidentEngine(cfg, num_workers=2) if resident else SuperstepEngine(cfg)
    info = eng.run(g, TokenDiffusion(0), run_dir=str(tmp_path / f"r{tag}"), resume=False)
    t = info.state_table()
    return dict(zip(t.column("vid").to_pylist(), t.column("state").to_pylist()))


@pytest.mark.parametrize("resident", [True, False])
def test_token_forwarding_on_path(tmp_path, resident):
    # 0 -> 1 -> 2 -> 3: after k steps the whole token sits at vertex k
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 3], dtype=np.int64)
    for k in (1, 2, 3):
        out = _token_run(tmp_path, src, dst, k, f"p{k}{resident}", resident)
        want = {v: (1.0 if v == k else 0.0) for v in range(4)}
        assert out == want, (k, out)


@pytest.mark.parametrize("resident", [True, False])
def test_token_split_and_merge_diamond(tmp_path, resident):
    # 0 -> {1,2} -> 3: mass splits 0.5/0.5 then rejoins at the sink
    src = np.array([0, 0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 3, 3], dtype=np.int64)
    out1 = _token_run(tmp_path, src, dst, 1, f"d1{resident}", resident)
    assert out1 == {0: 0.0, 1: 0.5, 2: 0.5, 3: 0.0}
    out2 = _token_run(tmp_path, src, dst, 2, f"d2{resident}", resident)
    assert out2 == {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0}
    assert abs(sum(out2.values()) - 1.0) < 1e-12  # conservation


@pytest.mark.parametrize("engine_cls", [SuperstepEngine, ResidentEngine])
def test_recalculate_scores_reenqueues_and_reconverges(tmp_path, engine_cls):
    src, dst = fx.disconnected()
    g = Graph.from_edge_arrays(
        src, dst, str(tmp_path / f"g{engine_cls.__name__}"), num_partitions=2,
        symmetric=True,
    )
    cfg = EngineConfig(num_partitions=2, max_supersteps=50)
    eng = engine_cls(cfg) if engine_cls is SuperstepEngine else engine_cls(cfg, num_workers=2)
    rd_dir = str(tmp_path / f"r{engine_cls.__name__}")
    info1 = eng.run(g, ConnectedComponents(), run_dir=rd_dir, resume=False)
    assert info1.converged
    t1 = info1.state_table()
    labels1 = dict(zip(t1.column("vid").to_pylist(), t1.column("state").to_pylist()))

    n = eng.recalculate_scores(rd_dir)
    assert n == len(labels1)
    info2 = eng.run(g, ConnectedComponents(), run_dir=rd_dir, resume=True)
    assert info2.converged
    assert info2.supersteps > info1.supersteps  # extra full round replayed
    t2 = info2.state_table()
    labels2 = dict(zip(t2.column("vid").to_pylist(), t2.column("state").to_pylist()))
    assert labels2 == labels1  # fixpoint is stable under re-scoring


def _dangling_graph(tmp_path, tag):
    # 0 -> 1 -> 2 and 1 -> 99, but vertex 99 was never added
    src = np.array([0, 1, 1], dtype=np.int64)
    dst = np.array([1, 2, 99], dtype=np.int64)
    return Graph.from_edge_arrays(
        src, dst, str(tmp_path / f"g{tag}"), num_partitions=2,
        exclude_vertices=np.array([99], dtype=np.int64),
    )


def test_dangling_graph_metadata(tmp_path):
    g = _dangling_graph(tmp_path, "meta")
    assert g.meta.get("n_dangling", 0) == 1
    t = g.vertices_ds().to_pandas()
    assert 99 not in set(t["vid"])


def test_undeliverable_drop_counts(tmp_path):
    g = _dangling_graph(tmp_path, "drop")
    eng = SuperstepEngine(EngineConfig(num_partitions=2, max_supersteps=20))
    info = eng.run(g, ConnectedComponents(), run_dir=str(tmp_path / "rdrop"), resume=False)
    assert info.converged
    labels = dict(
        zip(
            info.state_table().column("vid").to_pylist(),
            info.state_table().column("state").to_pylist(),
        )
    )
    assert labels == {0: 0, 1: 0, 2: 0}
    assert sum(m.get("undeliverable", 0) for m in info.per_step) >= 1


def test_undeliverable_raise(tmp_path):
    g = _dangling_graph(tmp_path, "raise")
    eng = SuperstepEngine(
        EngineConfig(num_partitions=2, max_supersteps=20, on_undeliverable="raise")
    )
    with pytest.raises(Exception, match="undeliverable"):
        eng.run(g, ConnectedComponents(), run_dir=str(tmp_path / "rraise"), resume=False)


def test_undeliverable_create_vertex(tmp_path):
    g = _dangling_graph(tmp_path, "create")
    eng = SuperstepEngine(
        EngineConfig(num_partitions=2, max_supersteps=20, on_undeliverable="create")
    )
    info = eng.run(g, ConnectedComponents(), run_dir=str(tmp_path / "rcreate"), resume=False)
    assert info.converged
    labels = dict(
        zip(
            info.state_table().column("vid").to_pylist(),
            info.state_table().column("state").to_pylist(),
        )
    )
    # created vertex 99 joined the computation and received the component label
    assert labels == {0: 0, 1: 0, 2: 0, 99: 0}


def test_undeliverable_create_vertex_async(tmp_path):
    """on_undeliverable='create' under the ASYNC executor (reference
    DefaultHandlerFactory auto-creates under every mode): the receiving
    worker owns the target partition, so vertex creation is worker-local
    — same final labels as the durable engine's create path."""
    from signal_collect_ray.engine_async import AsyncEngine

    g = _dangling_graph(tmp_path, "acreate")
    eng = AsyncEngine(
        EngineConfig(num_partitions=2, on_undeliverable="create"),
        num_workers=2,
    )
    info = eng.run(
        g, ConnectedComponents(), run_dir=str(tmp_path / "racreate")
    )
    assert info.converged
    labels = dict(
        zip(
            info.state_table().column("vid").to_pylist(),
            info.state_table().column("state").to_pylist(),
        )
    )
    assert labels == {0: 0, 1: 0, 2: 0, 99: 0}


@pytest.mark.parametrize("handler", ["drop", "create", "raise"])
def test_dangling_durable_equals_resident(tmp_path, handler):
    """Both synchronous executors run the same round with the same
    undeliverable handler: equal state tables on a dangling graph, and
    "raise" raises on both."""
    g = _dangling_graph(tmp_path, handler)
    cfg = EngineConfig(num_partitions=2, max_supersteps=20, on_undeliverable=handler)
    engines = {
        "durable": SuperstepEngine(cfg),
        "resident": ResidentEngine(cfg, num_workers=2),
    }
    tables = {}
    for name, eng in engines.items():
        rdir = str(tmp_path / f"r{name}")
        if handler == "raise":
            with pytest.raises(Exception, match="undeliverable"):
                eng.run(g, ConnectedComponents(), run_dir=rdir, resume=False)
            continue
        info = eng.run(g, ConnectedComponents(), run_dir=rdir, resume=False)
        assert info.converged, name
        tables[name] = info.state_table().select(["vid", "state"])
    if handler != "raise":
        assert tables["durable"].equals(tables["resident"])
