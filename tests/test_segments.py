"""One-worker segments (``engine._run_segment``): a resident run with
W = 1 runs its supersteps back to back in one round task up to the next
sync point. The control is the same run at ``checkpoint_interval=1``,
whose segments are one step each, so every superstep passes through
the driver. Both must agree bit for bit: per-step manifests (apart from
timing and ``round_steps``), checkpointed states and final states."""

import json
import math
import os
import time

import numpy as np
import pyarrow.parquet as pq
import pytest

from signal_collect_ray import EngineConfig, Graph
from signal_collect_ray.algorithm import SumStatesTermination
from signal_collect_ray.algorithms import (
    SSSP, ChineseWhispers, ConnectedComponents, PageRank,
)
from signal_collect_ray.engine import SuperstepEngine, _Rounds
from signal_collect_ray.engine_resident import ResidentEngine, _exchange_mode

from tests import fixtures as fx

P = 4
_TIMING = ("wall_s", "round_steps")
_PART_TIMING = ("signal_s", "collect_s")


def _edges():
    """A random core plus a dominant hub, self-loop-only vertices,
    self-loops beside real edges and every core edge duplicated."""
    rng = np.random.default_rng(3)
    cs, cd = rng.integers(0, 120, 400), rng.integers(0, 120, 400)
    hub_d = np.arange(200, 260)
    loops = np.arange(300, 306)
    src = np.concatenate([cs, cs[:80], np.full(len(hub_d), 150), hub_d, loops, [5, 9]])
    dst = np.concatenate([cd, cd[:80], hub_d, np.full(len(hub_d), 150), loops, [5, 9]])
    return src.astype(np.int64), dst.astype(np.int64)


def _graph(tmp_path, tag, symmetric=False, dangling=False, fan=False):
    src, dst = _edges()
    excl = None
    if fan:
        # 1000 -> 1001..1010, each -> 40 core vertices: a frontier that
        # grows from one source, so the exchange turns sparse -> dense
        mid = np.arange(1001, 1011)
        src = np.concatenate([src, np.full(10, 1000), np.repeat(mid, 40)])
        dst = np.concatenate([dst, mid, np.random.default_rng(4).integers(0, 120, 400)])
    if dangling:
        # edges into 500..502, which are not vertices of the graph
        src = np.concatenate([src, [1, 2, 150]])
        dst = np.concatenate([dst, [500, 501, 502]])
        excl = np.array([500, 501, 502], dtype=np.int64)
    return Graph.from_edge_arrays(
        src, dst, str(tmp_path / f"g-{tag}"), num_partitions=P,
        symmetric=symmetric, exclude_vertices=excl,
    )


def _run(g, algo, tmp_path, tag, ckpt, handler="drop", resume=False, workers=1,
         eps=1e-6, max_supersteps=200, threshold=0.0, **kw):
    cfg = EngineConfig(num_partitions=P, eps=eps, max_supersteps=max_supersteps,
                       signal_threshold=threshold, on_undeliverable=handler)
    return ResidentEngine(cfg, num_workers=workers).run(
        g, algo, run_dir=str(tmp_path / tag), resume=resume,
        checkpoint_interval=ckpt, **kw,
    )


def _strip(m):
    m = {k: v for k, v in m.items() if k not in _TIMING}
    m["parts"] = [
        {k: v for k, v in p.items() if k not in _PART_TIMING} for p in m["parts"]
    ]
    return m


def _step_table(info, k):
    d = SuperstepEngine._step_dir(info.run_dir, k)
    files = sorted(f for f in os.listdir(d) if f.startswith("part-"))
    return [pq.read_table(os.path.join(d, f)) for f in files]


def _assert_same_tables(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.equals(y)
        for name in x.column_names:
            xs, ys = x.column(name).to_numpy(), y.column(name).to_numpy()
            assert xs.tobytes() == ys.tobytes(), name


def _assert_equivalent(seg, ctl):
    assert (seg.supersteps, seg.converged, seg.termination_reason) == (
        ctl.supersteps, ctl.converged, ctl.termination_reason
    )
    assert [_strip(m) for m in seg.per_step] == [_strip(m) for m in ctl.per_step]
    _assert_same_tables(_step_table(seg, seg.supersteps), _step_table(ctl, ctl.supersteps))
    assert all(m["round_steps"] == 1 for m in ctl.per_step)


# name -> (_graph options, algorithm factory, undeliverable handler, _run options)
CASES = {
    # dense at first, sparse once signal_threshold thins the frontier
    "pagerank": ({}, PageRank, "drop", dict(threshold=1e-3)),
    "pagerank_dangling_drop": (dict(dangling=True), PageRank, "drop", {}),
    "pagerank_dangling_create": (dict(dangling=True), PageRank, "create", {}),
    # sparse rounds plus the Algorithm.pointer gather requests
    "cc": (dict(symmetric=True), ConnectedComponents, "drop", {}),
    "cc_dangling_create": (dict(dangling=True), ConnectedComponents, "create", {}),
    "chinese_whispers": (dict(symmetric=True), ChineseWhispers, "drop",
                         dict(max_supersteps=12)),
    "sssp": ({}, lambda: SSSP(int(_edges()[0][0])), "drop", {}),
    "sssp_dangling_drop": (dict(dangling=True), lambda: SSSP(1), "drop", {}),
    "sssp_fan": (dict(fan=True), lambda: SSSP(1000), "drop", {}),
}


@pytest.mark.parametrize("name", list(CASES))
def test_segments_equal_one_step_rounds(tmp_path, name):
    graph_kw, make_algo, handler, kw = CASES[name]
    g, algo = _graph(tmp_path, "g", **graph_kw), make_algo()
    ctl = _run(g, algo, tmp_path, "ctl", 1, handler, **kw)
    seg = _run(g, algo, tmp_path, "seg", 0, handler, **kw)
    _assert_equivalent(seg, ctl)
    # one segment ran the whole computation
    assert [m["round_steps"] for m in seg.per_step[1:]] == [seg.supersteps] * seg.supersteps
    # every third step is a sync point; each checkpoint equals the control's
    seg3 = _run(g, algo, tmp_path, "seg3", 3, handler, **kw)
    _assert_equivalent(seg3, ctl)
    for k in range(0, seg3.supersteps + 1, 3):
        _assert_same_tables(_step_table(seg3, k), _step_table(ctl, k))
    # the mode flips inside a segment, in both directions
    flip = {"pagerank": "Ds", "sssp_fan": "sD"}.get(name)
    if flip:
        modes = "".join(
            "D" if _exchange_mode(True, m, g.num_vertices) == "dense" else "s"
            for m in ctl.per_step
        )
        assert flip in modes
    if "create" in name:
        assert seg.state_table().num_rows > g.num_vertices


def test_raise_handler_raises_in_a_segment(tmp_path):
    g = _graph(tmp_path, "dr", dangling=True)
    for ckpt in (0, 1):
        with pytest.raises(Exception, match="undeliverable"):
            _run(g, ConnectedComponents(), tmp_path, f"r{ckpt}", ckpt, "raise")


def test_step_limit_ends_mid_segment(tmp_path):
    g = _graph(tmp_path, "g")
    ctl = _run(g, PageRank(), tmp_path, "ctl", 1, eps=0.0, max_supersteps=7)
    seg = _run(g, PageRank(), tmp_path, "seg", 5, eps=0.0, max_supersteps=7)
    _assert_equivalent(seg, ctl)
    assert seg.termination_reason == "StepsLimitReached"
    assert [m["round_steps"] for m in seg.per_step[1:]] == [5] * 5 + [2] * 2


def test_resume_from_a_segment_checkpoint(tmp_path):
    g = _graph(tmp_path, "g")
    full = _run(g, PageRank(), tmp_path, "full", 3, eps=0.0, max_supersteps=9)
    part = _run(g, PageRank(), tmp_path, "part", 3, eps=0.0, max_supersteps=3)
    # a run dir written before manifests carried round_steps still resumes
    mpath = os.path.join(SuperstepEngine._step_dir(part.run_dir, 3), "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    del m["round_steps"]
    with open(mpath, "w") as f:
        json.dump(m, f)
    resumed = _run(g, PageRank(), tmp_path, "part", 3, resume=True, eps=0.0,
                   max_supersteps=9)
    assert resumed.supersteps == full.supersteps == 9
    assert [_strip(m) for m in resumed.per_step[1:]] == [
        _strip(m) for m in full.per_step[4:]
    ]
    for k in (6, 9):
        _assert_same_tables(_step_table(resumed, k), _step_table(full, k))


def test_global_termination_interval_two(tmp_path):
    src, dst = fx.cycle(100)
    g = Graph.from_edge_arrays(src, dst, str(tmp_path / "g"), num_partitions=P)
    ctl, seg = (
        _run(g, PageRank(), tmp_path, f"c{ckpt}", ckpt, eps=1e-9, max_supersteps=300,
             global_termination=SumStatesTermination(40.0, interval=2))
        for ckpt in (1, 0)
    )
    assert seg.termination_reason == "GlobalConstraintMet"
    assert seg.supersteps % 2 == 0
    _assert_equivalent(seg, ctl)
    assert {m["round_steps"] for m in seg.per_step[1:]} == {2}


class _SlowPageRank(PageRank):
    """PageRank whose every partition's fan-out sleeps 20 ms."""

    def edge_values(self, src_vals, weight):
        time.sleep(0.02)
        return super().edge_values(src_vals, weight)


def test_time_limit_ends_a_segment(tmp_path):
    g = _graph(tmp_path, "g")
    tiny = _run(g, PageRank(), tmp_path, "tiny", 0, eps=0.0, time_limit_s=1e-3)
    assert tiny.termination_reason == "TimeLimitReached"
    # ~80 ms a step: the segment stops after the step that used up the
    # time left at submission, far below the step limit
    info = _run(g, _SlowPageRank(), tmp_path, "slow", 0, eps=0.0,
                max_supersteps=500, time_limit_s=1.5)
    assert info.termination_reason == "TimeLimitReached"
    assert info.supersteps < 100
    # the state is the one an exact step limit gives
    ctl = _run(g, PageRank(), tmp_path, "ctl", 0, eps=0.0,
               max_supersteps=info.supersteps)
    _assert_same_tables(_step_table(info, info.supersteps),
                        _step_table(ctl, ctl.supersteps))


@pytest.mark.parametrize("workers", [None, 2])
def test_round_submissions(tmp_path, monkeypatch, workers):
    submits = []
    submit = _Rounds.submit

    def counting(self, *args, **kw):
        submits.append(self.W)
        return submit(self, *args, **kw)

    monkeypatch.setattr(_Rounds, "submit", counting)
    g = _graph(tmp_path, "g")
    info = _run(g, PageRank(), tmp_path, "r", 3, workers=workers)
    assert info.converged
    k, W = info.supersteps, submits[0]
    # init round + the first signal-only round + one round per segment,
    # which ends at a multiple of 3 or at the converged step
    if W == 1:
        assert workers is None
        assert len(submits) == 2 + math.ceil(k / 3)
    else:
        assert len(submits) == 2 + k
        assert all(m["round_steps"] == 1 for m in info.per_step)
