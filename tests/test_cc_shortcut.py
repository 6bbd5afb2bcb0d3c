"""Shortcut connected components (``ConnectedComponents.pointer``: a
vertex whose label changed also collects ``label[label]``) on hostile
inputs: exact against union-find and a directed-reachability oracle,
durable ≡ resident step by step at several worker counts, the log-round
superstep count, and gather requests kept out of the undeliverable-
signal handler."""

import numpy as np
import pytest

from signal_collect_ray import EngineConfig, Graph, SuperstepEngine
from signal_collect_ray.algorithms import ConnectedComponents
from signal_collect_ray.engine_resident import ResidentEngine

_TOP = 2**62 - 1  # largest id below CC's dense sentinel 2**62


def _union_find(src, dst, vids):
    """Component minimum per vid (undirected), by union-find."""
    parent = {int(v): int(v) for v in vids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d in zip(src.tolist(), dst.tolist()):
        a, b = find(s), find(d)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return np.array([find(int(v)) for v in vids], dtype=np.int64)


def _min_ancestor(src, dst, vids):
    """Minimum id among each vertex's ancestors ∪ itself (directed),
    by a BFS from every vertex."""
    adj = {int(v): [] for v in vids}
    for s, d in zip(src.tolist(), dst.tolist()):
        adj[s].append(d)
    best = {int(v): int(v) for v in vids}
    for a in sorted(adj):
        seen, todo = {a}, [a]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        for w in seen:
            best[w] = min(best[w], a)
    return np.array([best[int(v)] for v in vids], dtype=np.int64)


def _path(ids):
    ids = np.asarray(ids, dtype=np.int64)
    return ids[:-1], ids[1:]


def _hostile(name):
    """Undirected edge lists (``symmetric=True`` adds the reverse edges)."""
    rng = np.random.default_rng(7)
    if name == "isolated_and_self_loops":
        # vertices 10..19 have only a self-loop; 1 has one beside its edges
        loops = np.arange(10, 20, dtype=np.int64)
        return (np.concatenate([[0, 1, 1], loops]),
                np.concatenate([[1, 2, 1], loops]))
    if name == "duplicate_edges":
        s, d = _path(rng.permutation(60) + 100)
        return np.tile(s, 3), np.tile(d, 3)
    if name == "dominant_hub":
        spokes = np.arange(1, 301, dtype=np.int64) * 7
        tail_s, tail_d = _path(np.arange(5000, 5080))
        return (np.concatenate([np.full(300, 4000), [spokes[-1]], tail_s, [9000]]),
                np.concatenate([spokes, [5000], tail_d, [9001]]))
    if name == "partitions_without_vertices":
        return np.array([3, 8], dtype=np.int64), np.array([8, 5], dtype=np.int64)
    if name == "ascending_path":
        return _path(np.arange(300))
    if name == "descending_path":
        return _path(np.arange(300)[::-1])
    if name == "shuffled_path":
        return _path(rng.permutation(300))
    if name == "ids_near_sentinel":
        big = _TOP - rng.choice(10_000, size=80, replace=False)
        s, d = _path(np.concatenate([big[:40], [0], big[40:]]))
        return (np.concatenate([s, [_TOP, _TOP - 10_001]]),
                np.concatenate([d, [_TOP - 10_001, 12]]))
    raise KeyError(name)


HOSTILE = [
    "isolated_and_self_loops", "duplicate_edges", "dominant_hub",
    "partitions_without_vertices", "ascending_path", "descending_path",
    "shuffled_path", "ids_near_sentinel",
]


def _labels(info):
    t = info.state_table()
    return (t.column("vid").to_numpy(), t.column("state").to_numpy())


@pytest.mark.parametrize("name", HOSTILE)
def test_shortcut_cc_equals_union_find(tmp_path, name):
    src, dst = _hostile(name)
    P = 16 if name == "partitions_without_vertices" else 4
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"),
                               num_partitions=P, symmetric=True)
    info = ResidentEngine(
        EngineConfig(num_partitions=P, max_supersteps=500), num_workers=2
    ).run(g, ConnectedComponents(), run_dir=str(tmp_path / "r"), resume=False)
    assert info.converged
    vid, label = _labels(info)
    np.testing.assert_array_equal(vid, np.unique(np.concatenate([src, dst])))
    np.testing.assert_array_equal(label, _union_find(src, dst, vid))


@pytest.mark.parametrize("shape", ["random", "ascending_chain", "descending_chain"])
def test_directed_label_is_min_ancestor(tmp_path, shape):
    rng = np.random.default_rng(11)
    if shape == "random":
        src, dst = rng.integers(0, 150, 260), rng.integers(0, 150, 260)
    else:
        ids = np.arange(120) if shape == "ascending_chain" else np.arange(120)[::-1]
        src, dst = _path(ids)
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), num_partitions=4)
    info = ResidentEngine(
        EngineConfig(num_partitions=4, max_supersteps=500), num_workers=2
    ).run(g, ConnectedComponents(), run_dir=str(tmp_path / "r"), resume=False)
    assert info.converged
    vid, label = _labels(info)
    np.testing.assert_array_equal(label, _min_ancestor(src, dst, vid))


def test_durable_equals_resident_per_step(tmp_path):
    # a long path (sparse rounds) welded to a random core (dense rounds)
    rng = np.random.default_rng(5)
    ps, pd = _path(rng.permutation(np.arange(200, 460)))
    cs, cd = rng.integers(0, 220, 700), rng.integers(0, 220, 700)
    g = Graph.from_edge_arrays(np.concatenate([ps, cs]), np.concatenate([pd, cd]),
                               str(tmp_path / "g"), num_partitions=5, symmetric=True)
    cfg = EngineConfig(num_partitions=5, max_supersteps=500)

    def trace(info):
        # (a dense round's signal_rows counts one slice per sender, so
        # it depends on W; the active and gather counts must not)
        return [(m["n_active"], m["gather_rows"]) for m in info.per_step]

    ref = SuperstepEngine(cfg).run(g, ConnectedComponents(),
                                   run_dir=str(tmp_path / "d"), resume=False)
    assert ref.converged and sum(m["gather_rows"] for m in ref.per_step) > 0
    for W in (1, 2, 3):
        res = ResidentEngine(cfg, num_workers=W).run(
            g, ConnectedComponents(), run_dir=str(tmp_path / f"w{W}"), resume=False
        )
        assert res.supersteps == ref.supersteps, W
        assert trace(res) == trace(ref), W
        assert res.state_table().select(["vid", "state"]).equals(
            ref.state_table().select(["vid", "state"])
        ), W


def test_ascending_path_converges_in_log_rounds(tmp_path):
    src, dst = _path(np.arange(1000))
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"),
                               num_partitions=4, symmetric=True)
    info = ResidentEngine(
        EngineConfig(num_partitions=4, max_supersteps=2000), num_workers=2
    ).run(g, ConnectedComponents(), run_dir=str(tmp_path / "r"), resume=False)
    assert info.converged and info.supersteps <= 30
    assert set(_labels(info)[1].tolist()) == {0}


class _NoGather(ConnectedComponents):
    def pointer(self, shard):
        return None


class _GhostPointer(ConnectedComponents):
    """Every changed vertex asks vertex 77, which does not exist."""

    def pointer(self, shard):
        return np.full(len(shard["vid"]), 77, dtype=np.int64)


@pytest.mark.parametrize("handler", ["drop", "create", "raise"])
def test_requests_are_never_undeliverable(tmp_path, handler):
    # 0 -> 1 -> 2 and 1 -> 99, vertex 99 excluded
    g = Graph.from_edge_arrays(
        np.array([0, 1, 1]), np.array([1, 2, 99]), str(tmp_path / "g"),
        num_partitions=2, exclude_vertices=np.array([99], dtype=np.int64),
    )
    cfg = EngineConfig(num_partitions=2, max_supersteps=20, on_undeliverable=handler)
    for algo in (ConnectedComponents(), _GhostPointer(), _NoGather()):
        for eng in (SuperstepEngine(cfg), ResidentEngine(cfg, num_workers=2)):
            rdir = str(tmp_path / f"r-{type(eng).__name__}-{type(algo).__name__}")
            if handler == "raise":
                with pytest.raises(RuntimeError, match="undeliverable") as err:
                    eng.run(g, algo, run_dir=rdir, resume=False)
                assert "77" not in str(err.value)
                continue
            info = eng.run(g, algo, run_dir=rdir, resume=False)
            assert info.converged
            vid, label = _labels(info)
            if handler == "create":
                assert vid.tolist() == [0, 1, 2, 99]  # 77 was never created
                assert sum(m["undeliverable"] for m in info.per_step) == 0
            else:
                assert vid.tolist() == [0, 1, 2]
                # the two signals of vertex 1 to 99, and nothing else
                assert sum(m["undeliverable"] for m in info.per_step) == 2
            assert set(label.tolist()) == {0}
            gathered = sum(m["gather_rows"] for m in info.per_step)
            assert (gathered > 0) == (not isinstance(algo, _NoGather))
