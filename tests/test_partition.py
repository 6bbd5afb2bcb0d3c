"""Unit tests for the per-partition kernels every executor shares
(signal_collect_ray/partition.py). Pure numpy: hand-built CSR blocks and
shards, no Ray calls."""

import numpy as np
import pytest

from signal_collect_ray import partition
from signal_collect_ray.algorithms import ConnectedComponents, PageRank, TokenDiffusion
from signal_collect_ray.util import part_of


def _csr(src, dst, weight=None):
    """CSR block in the layout Graph.csr_refs() ships (edges sorted by src)."""
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    w = np.ones(len(src)) if weight is None else np.asarray(weight, np.float64)
    order = np.argsort(src, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    src_ids, starts = np.unique(src, return_index=True)
    return {
        "src_ids": src_ids,
        "indptr": np.append(starts, len(src)).astype(np.int64),
        "dst": dst,
        "weight": w,
    }


def _shard(algo, vid, csr):
    vid = np.asarray(vid, np.int64)
    outd = np.zeros(len(vid), np.int64)
    sumw = np.zeros(len(vid))
    pos = np.searchsorted(vid, csr["src_ids"])
    outd[pos] = np.diff(csr["indptr"])
    sumw[pos] = np.add.reduceat(csr["weight"], csr["indptr"][:-1])
    return partition.init_shard(
        algo, {"vid": vid, "out_degree": outd, "sum_out_weight": sumw}
    )


@pytest.fixture
def block():
    rng = np.random.default_rng(3)
    vid = np.arange(0, 200, 2, dtype=np.int64)
    src = rng.choice(vid[:80], size=600)
    dst = rng.integers(0, 400, size=600)  # includes ids outside the shard
    csr = _csr(src, dst, rng.uniform(0.5, 2.0, size=600))
    return vid, csr


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint8).tobytes()


def test_full_frontier_matches_explicit_index(block):
    vid, csr = block
    algo = PageRank()
    shard = _shard(algo, vid, csr)
    dst, vals = partition.fan_out(algo, csr, shard)  # every CSR source sends
    # the same senders in two halves take the explicit-index path; CSR
    # storage order is sender order, so the halves concatenate to the
    # full-frontier edge list
    senders = partition.senders(algo, shard)
    cut = np.flatnonzero(senders)[len(csr["src_ids"]) // 2]
    lo, hi = senders.copy(), senders.copy()
    lo[cut:], hi[:cut] = False, False
    d1, v1 = partition.fan_out(algo, csr, shard, lo)
    d2, v2 = partition.fan_out(algo, csr, shard, hi)
    assert _bits(dst) == _bits(np.concatenate([d1, d2]))
    assert _bits(vals["val"]) == _bits(np.concatenate([v1["val"], v2["val"]]))
    full = partition.signal(algo, csr, shard)
    halves = algo.combine(
        np.concatenate([d1, d2]), {"val": np.concatenate([v1["val"], v2["val"]])}
    )
    assert _bits(full[0]) == _bits(halves[0])
    assert _bits(full[1]["val"]) == _bits(halves[1]["val"])


def test_empty_frontier(block):
    vid, csr = block
    algo = ConnectedComponents()
    shard = dict(_shard(algo, vid, csr), active=np.zeros(len(vid), bool))
    assert partition.fan_out(algo, csr, shard) is None
    assert partition.signal(algo, csr, shard) is None
    assert partition.fan_out(algo, None, _shard(algo, vid, csr)) is None
    out = partition.outbox(algo, {0: csr}, {0: shard}, part_of, 4, 2)
    assert out == {}
    # no senders → nothing resets either
    tok = TokenDiffusion(source=-1)
    s = _shard(tok, vid, csr)
    assert partition.reset_after_signal(tok, s)["state"].tolist() == s["state"].tolist()


def test_duplicate_dst_rows_are_combined_before_collect():
    algo = ConnectedComponents()
    shard = partition.init_shard(
        algo,
        {
            "vid": np.array([10, 20, 30], np.int64),
            "out_degree": np.zeros(3, np.int64),
            "sum_out_weight": np.zeros(3),
        },
    )
    sig = {
        "dst": np.array([30, 20, 30, 30, 20], np.int64),
        "val": np.array([25, 7, 3, 29, 21], np.int64),
    }
    shard2, dst, vals, n_rows, n_bad = partition.deliver(algo, 0, shard, sig, "raise")
    assert shard2 is shard
    assert (n_rows, n_bad) == (5, 0)
    assert dst.tolist() == [20, 30] and vals["val"].tolist() == [7, 3]
    st = algo.collect(shard2, dst, vals, 0.0)
    assert st["state"].tolist() == [10, 7, 3]


def _undeliverable_case():
    algo = ConnectedComponents()
    shard = partition.init_shard(
        algo,
        {
            "vid": np.array([4, 8], np.int64),
            "out_degree": np.array([1, 0], np.int64),
            "sum_out_weight": np.array([1.0, 0.0]),
        },
    )
    sig = {
        "dst": np.array([9, 1, 9, 5], np.int64),
        "val": np.array([2, 6, 0, 3], np.int64),
    }
    return algo, shard, sig


def test_all_undeliverable_raise():
    algo, shard, sig = _undeliverable_case()
    with pytest.raises(RuntimeError, match="3 undeliverable signals in partition 7"):
        partition.deliver(algo, 7, shard, sig, "raise")


def test_all_undeliverable_drop():
    algo, shard, sig = _undeliverable_case()
    shard2, dst, vals, n_rows, n_bad = partition.deliver(algo, 7, shard, sig, "drop")
    assert shard2 is shard
    assert (n_rows, n_bad) == (4, 3)
    assert len(dst) == 0 and len(vals["val"]) == 0
    st = algo.collect(shard2, dst, vals, 0.0)
    assert st["state"].tolist() == [4, 8]


def test_all_undeliverable_create():
    algo, shard, sig = _undeliverable_case()
    shard2, dst, vals, n_rows, n_bad = partition.deliver(algo, 7, shard, sig, "create")
    assert (n_rows, n_bad) == (4, 0)
    assert shard2["vid"].tolist() == [1, 4, 5, 8, 9]
    assert shard2["out_degree"].tolist() == [0, 1, 0, 0, 0]
    assert shard2["state"].dtype == np.int64
    st = algo.collect(shard2, dst, vals, 0.0)
    assert st["state"].tolist() == [1, 4, 3, 8, 0]


def test_signals_to_partition_without_vertices():
    algo = ConnectedComponents()
    sig = {"dst": np.array([5, 6, 5], np.int64), "val": np.array([1, 2, 3], np.int64)}
    assert partition.deliver(algo, 3, None, sig, "drop") == (None, None, None, 3, 3)
    with pytest.raises(RuntimeError, match="3 undeliverable signals to empty partition 3"):
        partition.deliver(algo, 3, None, sig, "raise")
    shard, dst, vals, n_rows, n_bad = partition.deliver(algo, 3, None, sig, "create")
    assert (n_rows, n_bad) == (3, 0)
    assert shard["vid"].tolist() == [5, 6]
    assert set(partition.SHARD_COLS) <= set(shard)
    st = algo.collect(shard, dst, vals, 0.0)
    assert st["state"].tolist() == [1, 2]
    # an empty partition with no signals stays empty without raising
    empty = partition.empty_signals(algo)
    assert empty["val"].dtype == np.int64
    assert partition.deliver(algo, 3, None, empty, "raise") == (None, None, None, 0, 0)


def test_create_vertices_unsorted_and_repeated_vids():
    algo = PageRank()
    shard = partition.init_shard(
        algo,
        {
            "vid": np.array([10, 20, 30], np.int64),
            "out_degree": np.array([2, 0, 1], np.int64),
            "sum_out_weight": np.array([2.0, 0.0, 1.0]),
        },
    )
    shard["state"] = np.array([0.5, 0.25, 0.125])
    out = partition.create_vertices(
        algo, shard, np.array([35, 5, 25, 5, 35, 15], np.int64)
    )
    assert out["vid"].tolist() == [5, 10, 15, 20, 25, 30, 35]
    assert out["out_degree"].tolist() == [0, 2, 0, 0, 0, 1, 0]
    b = algo.baseline
    assert out["state"].tolist() == [b, 0.5, b, 0.25, b, 0.125, b]
    assert set(out) == set(partition.SHARD_COLS)
    assert all(len(v) == 7 for v in out.values())


def test_reset_after_signal_mask():
    algo = TokenDiffusion(source=0)
    shard = {
        "vid": np.arange(4, dtype=np.int64),
        "out_degree": np.array([1, 0, 2, 3], np.int64),
        "sum_out_weight": np.ones(4),
        "state": np.array([1.0, 2.0, 3.0, 4.0]),
        "last": np.zeros(4),
        "active": np.array([True, True, False, True]),
        "residual": np.ones(4),
    }
    out = partition.reset_after_signal(algo, shard)
    # scheduled AND ≥1 out-edge resets; the scheduled sink (vid 1) keeps
    assert out["state"].tolist() == [0.0, 2.0, 3.0, 0.0]
    assert shard["state"].tolist() == [1.0, 2.0, 3.0, 4.0]  # not mutated


def test_outbox_routes_to_owner_workers(block):
    vid, csr = block
    algo = ConnectedComponents()
    shard = _shard(algo, vid, csr)
    P, W = 5, 2
    out = partition.outbox(algo, {0: csr}, {0: shard}, part_of, P, W)
    dst_u, combined = partition.signal(algo, csr, shard)
    got = np.concatenate([out[w]["dst"] for w in sorted(out)])
    assert sorted(got.tolist()) == dst_u.tolist()
    for w, blk in out.items():
        assert (blk["part"] % W == w).all()
        assert (part_of(blk["dst"], P) == blk["part"]).all()
    per_part = partition.by_partition(out.values(), P)
    for p, sig in per_part.items():
        assert (part_of(sig["dst"], P) == p).all()
    assert sum(len(s["dst"]) for s in per_part.values()) == len(dst_u)


def test_gather_requests_route_to_the_target_owner():
    algo = ConnectedComponents()
    vid = np.arange(10, 20, dtype=np.int64)
    shard = _shard(algo, vid, _csr([], []))
    before = shard["state"].copy()
    # 12 and 15 changed to labels naming other vertices; 18's label is
    # not its own id either, but it did not change: only 12 and 15 ask
    state = before.copy()
    state[[2, 5, 8]] = [3, 11, 4]
    shard = dict(shard, state=state)
    before[8] = 4
    target, requester = partition.requests(algo, shard, before)
    assert target.tolist() == [3, 11] and requester.tolist() == [12, 15]
    assert partition.requests(algo, shard, None) is None
    assert partition.requests(algo, shard, state) is None  # nothing changed

    P, W = 4, 2
    out = partition.outbox(algo, {}, {0: shard}, part_of, P, W, before={0: before})
    got = []
    for w, entry in out.items():
        assert set(entry) == {partition.GATHER}  # no signal rows: no senders
        req = entry[partition.GATHER]
        assert (req["part"] == part_of(req["dst"], P)).all()
        assert (req["part"] % W == w).all()
        got += list(zip(req["dst"].tolist(), req["src"].tolist()))
    assert sorted(got) == [(3, 12), (11, 15)]
    assert partition.by_partition(out.values(), P) == {}
    asked = partition.requests_by_partition(out.values(), P)
    want = {}
    for t in (3, 11):
        want.setdefault(int(part_of(np.array([t]), P)[0]), []).append(t)
    assert {p: b["dst"].tolist() for p, b in asked.items()} == want


def test_gather_replies_become_signal_rows():
    algo = ConnectedComponents()
    vid = np.array([3, 5, 11], dtype=np.int64)
    csr = _csr([5], [40])
    shard = dict(_shard(algo, vid, csr), state=np.array([1, 2, 4], np.int64))
    # 99 is no vertex here: its request is dropped, not undeliverable
    asked = {"dst": np.array([11, 99, 3, 11]), "src": np.array([20, 21, 40, 22])}
    dst, vals = partition.replies(algo, shard, asked)
    assert dst.tolist() == [20, 40, 22] and vals["val"].tolist() == [4, 1, 4]
    assert partition.replies(algo, shard, None) is None
    # the replies combine with the partition's fan-out: vertex 5 sends 2
    # to 40, the reply to 40 carries 1
    out = partition.outbox(algo, {0: csr}, {0: shard}, part_of, 3, 1, asked={0: asked})
    sig = partition.by_partition(out.values(), 3)
    rows = sorted(
        (d, v) for s in sig.values() for d, v in zip(s["dst"].tolist(), s["val"].tolist())
    )
    assert rows == [(20, 4), (22, 4), (40, 1)]


def test_no_pointer_no_gather():
    from signal_collect_ray.algorithms.scc import _BackMark

    algo = _BackMark(np.array([3], dtype=np.int64))
    shard = _shard(algo, np.array([3, 4], dtype=np.int64), _csr([], []))
    before = np.array([1, 0], dtype=np.int64)
    assert partition.requests(algo, shard, before) is None
    assert partition.requests(PageRank(), _shard(PageRank(), [3], _csr([], [])), np.zeros(1)) is None
