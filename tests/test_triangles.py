"""Triangle counts & clustering coefficient vs brute-force oracle
(ClusteringCoefficient.scala:24-47 formula; FIXTURES.md cc_graph6)."""

import numpy as np
import pytest
import ray.data as rd
import pyarrow as pa

from signal_collect_ray.algorithms import (
    clustering_coefficient,
    edge_support,
    total_triangles,
    triangle_counts,
    triangle_list,
)
from signal_collect_ray.algorithms.triangles import diamond_count

from tests import fixtures as fx


def _edges_ds(src, dst):
    return rd.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    )


def test_cc_graph6_counts():
    src, dst = fx.cc_graph6()
    ovid, otri, ototal = fx.triangle_oracle(src, dst)
    got = {r["vid"]: r["triangles"] for r in triangle_counts(_edges_ds(src, dst)).take_all()}
    for v, t in zip(ovid, otri):
        assert got.get(int(v), 0) == t, (v, t, got)
    assert total_triangles(_edges_ds(src, dst)) == ototal


def test_clustering_coefficient_formula():
    src, dst = fx.cc_graph6()
    ovid, otri, _ = fx.triangle_oracle(src, dst)
    # undirected degree
    deg = {}
    for a, b in zip(*fx.cc_graph6()):
        deg[int(a)] = deg.get(int(a), 0)
    import collections

    und = collections.defaultdict(set)
    for a, b in zip(src, dst):
        und[int(a)].add(int(b))
        und[int(b)].add(int(a))
    got = {
        r["vid"]: r["coefficient"]
        for r in clustering_coefficient(_edges_ds(src, dst)).take_all()
    }
    for v, t in zip(ovid, otri):
        d = len(und[int(v)])
        expect = 2.0 * t / (d * (d - 1)) if d > 1 else 0.0
        assert abs(got[int(v)] - expect) < 1e-12, v


def test_random_graph_vs_oracle():
    rng = np.random.RandomState(3)
    n = 60
    src = rng.randint(0, n, 400).astype(np.int64)
    dst = rng.randint(0, n, 400).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    ovid, otri, ototal = fx.triangle_oracle(src, dst)
    got = {r["vid"]: r["triangles"] for r in triangle_counts(_edges_ds(src, dst)).take_all()}
    for v, t in zip(ovid, otri):
        assert got.get(int(v), 0) == t
    assert total_triangles(_edges_ds(src, dst)) == ototal


def test_triangle_free_graph():
    src, dst = fx.cycle(6)  # directed 6-cycle has no triangles
    assert total_triangles(_edges_ds(src, dst)) == 0


def test_cocitation_top_pairs(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from signal_collect_ray.algorithms.cocitation import cocitation_top_pairs

    # sources 0/1 both link {10,11,12}; source 2 links {10,11}
    src = np.array([0, 0, 0, 1, 1, 1, 2, 2], dtype=np.int64)
    dst = np.array([10, 11, 12, 10, 11, 12, 10, 11], dtype=np.int64)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst}))
    t = cocitation_top_pairs(edges, k=10)
    rows = list(zip(t.column("id_a").to_pylist(),
                    t.column("id_b").to_pylist(),
                    t.column("n").to_pylist()))
    assert rows[0] == (10, 11, 3)
    assert set(rows[1:]) == {(10, 12, 2), (11, 12, 2)}
    # deterministic tie order: (10,12) before (11,12)
    assert rows[1] == (10, 12, 2)
    # out-degree cap keeps the lexically smallest dsts
    t2 = cocitation_top_pairs(edges, k=10, max_out_degree=2)
    pairs2 = set(zip(t2.column("id_a").to_pylist(),
                     t2.column("id_b").to_pylist()))
    assert pairs2 == {(10, 11)}


def test_adamic_adar_top_pairs(ray_session):
    import math

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from signal_collect_ray.algorithms.cocitation import adamic_adar_top_pairs

    # sources 0/1 both link {10,11,12} (outdeg 3); source 2 links
    # {10,11} (outdeg 2) — its weight 1/ln(2) is LARGER, so (10,11)
    # wins on Adamic-Adar even though co-citation counts tie on hubs
    src = np.array([0, 0, 0, 1, 1, 1, 2, 2], dtype=np.int64)
    dst = np.array([10, 11, 12, 10, 11, 12, 10, 11], dtype=np.int64)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(3)
    t = adamic_adar_top_pairs(edges, k=10)
    rows = list(zip(t.column("id_a").to_pylist(),
                    t.column("id_b").to_pylist(),
                    t.column("aa").to_pylist()))
    w3, w2 = 1.0 / math.log(3), 1.0 / math.log(2)
    assert rows[0][:2] == (10, 11)
    assert rows[0][2] == pytest.approx(2 * w3 + w2, abs=2e-6)
    assert rows[1] == (10, 12, round(2 * w3, 6))
    assert rows[2] == (11, 12, round(2 * w3, 6))
    # cap truncates emission but weights keep the TRUE out-degree:
    # sources 0/1 emit only (10,11) at weight 1/ln(3) each
    t2 = adamic_adar_top_pairs(edges, k=10, max_out_degree=2)
    rows2 = list(zip(t2.column("id_a").to_pylist(),
                     t2.column("id_b").to_pylist(),
                     t2.column("aa").to_pylist()))
    assert rows2 == [(10, 11, round(2 * w3 + w2, 6))]


def test_ktruss_peeling(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from signal_collect_ray.algorithms.ktruss import ktruss

    # K5 (a 5-truss... every edge in 3 triangles) plus a pendant
    # triangle attached by a bridge, plus a tail edge
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    extra = [(4, 10), (10, 11), (11, 12), (12, 10), (12, 20)]
    pairs = k5 + extra
    src = np.array([a for a, b in pairs], np.int64)
    dst = np.array([b for a, b in pairs], np.int64)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst}))

    def pairs_of(t):
        return set(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))

    # k=3: every edge on ≥1 triangle survives; bridge (4,10) and tail
    # (12,20) peel away
    t3 = pairs_of(ktruss(edges, 3))
    assert t3 == set(k5) | {(10, 11), (10, 12), (11, 12)}
    # k=4: each edge needs ≥2 triangles — only K5 (3 per edge) survives
    t4 = pairs_of(ktruss(edges, 4))
    assert t4 == set(k5)
    # k=5: K5 still qualifies (3 = 5-2)
    assert pairs_of(ktruss(edges, 5)) == set(k5)
    # k=6: needs 4 triangles/edge → empty
    assert pairs_of(ktruss(edges, 6)) == set()
    # k=2: everything incl. triangle-free edges survives (canonical a<b)
    canon = {(min(a, b), max(a, b)) for a, b in pairs}
    assert pairs_of(ktruss(edges, 2)) == canon


def test_jaccard_top_pairs(ray_session, monkeypatch):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from signal_collect_ray.algorithms import cocitation

    # sources 0/1 link {10,11,12}; source 2 links {10,11}:
    # indeg(10)=indeg(11)=3, indeg(12)=2
    # J(10,11)=3/(3+3-3)=1.0; J(10,12)=J(11,12)=2/(3+2-2)=2/3
    src = np.array([0, 0, 0, 1, 1, 1, 2, 2], dtype=np.int64)
    dst = np.array([10, 11, 12, 10, 11, 12, 10, 11], dtype=np.int64)
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(3)
    expected = [
        (10, 11, 1.0),
        (10, 12, round(2 / 3, 6)),
        (11, 12, round(2 / 3, 6)),
    ]
    t = cocitation.jaccard_top_pairs(edges, k=10)
    rows = list(zip(t.column("id_a").to_pylist(),
                    t.column("id_b").to_pylist(),
                    t.column("jac").to_pylist()))
    assert rows == expected
    # join fallback path (degree table "too large" to broadcast) must
    # produce the identical result
    monkeypatch.setattr(cocitation, "BROADCAST_INDEG_LIMIT", 0)
    t2 = cocitation.jaccard_top_pairs(edges, k=10)
    rows2 = list(zip(t2.column("id_a").to_pylist(),
                     t2.column("id_b").to_pylist(),
                     t2.column("jac").to_pylist()))
    assert rows2 == expected


def test_jaccard_random_vs_bruteforce(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from signal_collect_ray.algorithms.cocitation import jaccard_top_pairs

    rng = np.random.RandomState(11)
    src = rng.randint(0, 30, 300).astype(np.int64)
    dst = rng.randint(0, 30, 300).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # brute force over distinct edges
    uniq = set(zip(src.tolist(), dst.tolist()))
    in_sets = {}
    for s, d in uniq:
        in_sets.setdefault(d, set()).add(s)
    scores = []
    vs = sorted(in_sets)
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            common = len(in_sets[a] & in_sets[b])
            if common:
                union = len(in_sets[a] | in_sets[b])
                scores.append((round(common / union, 6), a, b))
    scores.sort(key=lambda r: (-r[0], r[1], r[2]))
    expected = [(a, b, j) for j, a, b in scores[:15]]
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(4)
    t = jaccard_top_pairs(edges, k=15)
    rows = list(zip(t.column("id_a").to_pylist(),
                    t.column("id_b").to_pylist(),
                    t.column("jac").to_pylist()))
    assert rows == expected


# -- hostile graphs: one oriented-adjacency builder, both degree paths -----

_BIG = 2**62  # ids just below it exercise the full int64 range


def _hostile(kind):
    """(src, dst) on compact ids 0..n-1, with self-loop-only vertices and
    duplicate edges in both directions; "hub" adds a dominant hub over a
    random graph, "tiny" is one triangle (fewer vertices than groups)."""
    rng = np.random.RandomState(17)
    if kind == "tiny":
        src, dst = [0, 1, 2, 1, 0], [1, 2, 0, 0, 2]
    else:
        n = 40
        src = list(rng.randint(1, n, 150))
        dst = list(rng.randint(1, n, 150))
        hub = [v for v in range(1, n) if rng.rand() < 0.8]
        src += [0] * len(hub) + hub
        dst += hub + [0] * len(hub)
    n = max(src + dst) + 1
    # duplicates both ways, then self-loop-only vertices n, n+1
    src, dst = src + dst[:10] + src[:10], dst + src[:10] + dst[:10]
    src, dst = src + [n, n + 1, n + 1], dst + [n, n + 1, n + 1]
    return np.array(src, np.int64), np.array(dst, np.int64)


def _brute(src, dst):
    """Dense numpy oracle over the undirected simple graph: (vids with a
    non-loop edge, degree, per-vertex triangles, sorted triangle rows,
    {(a, b): support} over every edge with a < b)."""
    ids = np.unique(np.concatenate([src, dst]))
    s, d = np.searchsorted(ids, src), np.searchsorted(ids, dst)
    A = np.zeros((len(ids), len(ids)), np.int64)
    A[s, d] = A[d, s] = 1
    np.fill_diagonal(A, 0)
    A2 = A @ A
    deg = A.sum(axis=1)
    tri = (A2 * A).sum(axis=1) // 2
    i, j, k = np.nonzero(A[:, :, None] & A[:, None, :] & A[None, :, :])
    m = (i < j) & (j < k)
    rows = sorted(zip(ids[i[m]].tolist(), ids[j[m]].tolist(), ids[k[m]].tolist()))
    a, b = np.nonzero(np.triu(A))
    supp = {(int(ids[x]), int(ids[y])): int(A2[x, y]) for x, y in zip(a, b)}
    has = deg > 0
    return ids[has], deg[has], tri[has], rows, supp


def _ds(src, dst, blocks=3):
    return rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(blocks)


def _everything(edges, P):
    """Every triangle consumer on one edge Dataset, as plain values."""
    return {
        "total": total_triangles(edges, P),
        "counts": {r["vid"]: r["triangles"] for r in triangle_counts(edges, P).take_all()},
        "coeff": {
            r["vid"]: r["coefficient"] for r in clustering_coefficient(edges, P).take_all()
        },
        "rows": sorted((r["a"], r["b"], r["c"]) for r in triangle_list(edges, P).take_all()),
        "supp": {(r["a"], r["b"]): r["supp"] for r in edge_support(edges, P).take_all()},
        "diamonds": diamond_count(edges, P),
    }


def _expected(src, dst):
    vid, deg, tri, rows, supp = _brute(src, dst)
    return {
        "total": len(rows),
        "counts": {int(v): int(t) for v, t in zip(vid, tri) if t},
        "coeff": {
            int(v): (2.0 * t / (d * (d - 1)) if d > 1 else 0.0)
            for v, d, t in zip(vid, deg, tri)
        },
        "rows": rows,
        "supp": {e: c for e, c in supp.items() if c},
        "diamonds": sum(c * (c - 1) // 2 for c in supp.values()),
    }


def _assert_matches(got, want):
    assert got.keys() == want.keys()
    for k in want:
        if k == "coeff":
            assert got[k].keys() == want[k].keys()
            for v, c in want[k].items():
                assert got[k][v] == pytest.approx(c, abs=1e-12)
        else:
            assert got[k] == want[k], k


def _blocks(src, dst, n):
    """``n`` blocks of the edges with two empty blocks among them."""
    cuts = np.linspace(0, len(src), n + 1).astype(int)
    tbls = [pa.table({"src": src[a:b], "dst": dst[a:b]}) for a, b in zip(cuts[:-1], cuts[1:])]
    empty = pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})
    return rd.from_arrow(tbls[:2] + [empty] + tbls[2:] + [empty])


@pytest.mark.parametrize("P", [1, 3, 8])
@pytest.mark.parametrize("kind", ["hub", "tiny"])
def test_hostile_graphs_vs_brute_force(kind, P, monkeypatch):
    from signal_collect_ray.algorithms import triangles

    src, dst = _hostile(kind)
    for ids in (src, dst), (_BIG - 1 - 7919 * src, _BIG - 1 - 7919 * dst):
        # 7 blocks, two of them empty: more blocks than reducers at any P
        edges = _blocks(*ids, 5)
        got = _everything(edges, P)
        _assert_matches(got, _expected(*ids))
        # the degree-announce exchange (no broadcast) gives the same answers
        monkeypatch.setattr(triangles, "BROADCAST_DEGREE_LIMIT", 0)
        assert _everything(edges, P) == got
        monkeypatch.undo()


def test_self_loops_only():
    src = dst = np.array([5, 5, 9], np.int64)
    assert total_triangles(_ds(src, dst)) == 0
    assert triangle_counts(_ds(src, dst)).take_all() == []
    assert clustering_coefficient(_ds(src, dst)).take_all() == []


# -- the object-ref exchange: no Ray Data shuffle, any block layout --------


@pytest.mark.parametrize("P", [1, 8])
def test_no_ray_data_groupby(P, monkeypatch):
    from signal_collect_ray.algorithms.triangles import _adjacency

    def refuse(*args, **kwargs):
        raise AssertionError("the triangle pipeline ran a Ray Data groupby")

    monkeypatch.setattr(rd.Dataset, "groupby", refuse)
    src, dst = _hostile("hub")
    edges = _blocks(src, dst, 12)
    # P = 8 in the 4-CPU test session: R = 4 reducers, fewer than blocks
    assert len(_adjacency(edges, P).rows) == min(P, 4)
    _assert_matches(_everything(edges, P), _expected(src, dst))


@pytest.mark.parametrize("P", [1, 8])
def test_self_loop_and_empty_edge_sets(P):
    loops = np.array([5, 5, 9, 2**62], np.int64)
    empty = np.array([], np.int64)
    none = {"total": 0, "counts": {}, "coeff": {}, "rows": [], "supp": {}, "diamonds": 0}
    for src in loops, empty:
        edges = _ds(src, src.copy(), blocks=2)
        assert _everything(edges, P) == none
        # empty outputs are typed tables: the Datasets keep their schema
        assert triangle_counts(edges, P).schema().names == ["vid", "triangles"]
        assert clustering_coefficient(edges, P).schema().names == ["vid", "coefficient"]
        assert triangle_list(edges, P).schema().names == ["a", "b", "c"]
        assert edge_support(edges, P).schema().names == ["a", "b", "supp"]


def test_more_reducers_than_vertices():
    # one triangle over 3 vertices, P = 8: most reducers get no rows
    src, dst = np.array([10, 11, 12], np.int64), np.array([11, 12, 10], np.int64)
    want = _expected(src, dst)
    assert want["total"] == 1
    _assert_matches(_everything(_ds(src, dst), 8), want)


# -- the wedge kernel alone: numpy only, no Ray calls ----------------------


def _adjacency_rows(src, dst):
    """Exchange A's output for one group, built with numpy."""
    from signal_collect_ray.algorithms.triangles import _dedup_pairs, _list_column

    keep = src != dst
    s, d = src[keep], dst[keep]
    v, x = _dedup_pairs(np.concatenate([s, d]), np.concatenate([d, s]))
    vids, counts = np.unique(v, return_counts=True)
    return pa.table({"v": vids, "nbrs": _list_column(counts, x)})


def _groups(tbl, col):
    part = tbl.column(col).to_numpy()
    return [tbl.filter(pa.array(part == p)) for p in np.unique(part)]


def _kernel_triangles(src, dst, P, announce):
    from signal_collect_ray.algorithms import triangles as T

    adj = _adjacency_rows(src, dst)
    vids = adj.column("v").to_numpy()
    if announce:
        send, orient_ship = T._announce(P)
        shipped = pa.concat_tables(
            [orient_ship(g) for g in _groups(send(adj), "apart")]
        )
        n, back = None, lambda c: c
    else:
        deg = T._degree_rows(adj).column("deg").to_numpy()
        shipped = T._ship(*T._orient(adj, vids, deg), P)
        n, back = len(vids), lambda c: vids[c]
    found = []
    for g in _groups(shipped, "ipart"):
        u, v, w = (back(c) for c in T._closed_wedges(g, n))
        found += [tuple(sorted(t)) for t in zip(u.tolist(), v.tolist(), w.tolist())]
    return found


@pytest.mark.parametrize("announce", [False, True])
@pytest.mark.parametrize("P", [1, 3, 8])
def test_wedge_kernel_closes_each_triangle_once(P, announce):
    for src, dst in (_hostile("hub"), _hostile("tiny"), fx.cc_graph6()):
        src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
        for ids in (src, dst), (_BIG - 1 - 7919 * src, _BIG - 1 - 7919 * dst):
            assert sorted(_kernel_triangles(*ids, P, announce)) == _brute(*ids)[3]


def test_ship_sends_only_closable_suffixes():
    from signal_collect_ray.algorithms.triangles import _ship

    # vertex 7 has N+ = {3, 1, 2} with degrees {5, 4, 4}: (deg, id) order
    # is 1, 2, 3, so 1 carries [2, 3], 2 carries [3] and 3 is not sent
    t = _ship(np.array([7, 8]), np.array([3, 0]), np.array([3, 1, 2]),
              np.array([5, 4, 4]), 4)
    rows = list(zip(t.column("key").to_pylist(), t.column("other").to_pylist(),
                    t.column("nbrs").to_pylist()))
    assert rows == [(7, 7, [1, 2, 3]), (1, 7, [2, 3]), (2, 7, [3])]
