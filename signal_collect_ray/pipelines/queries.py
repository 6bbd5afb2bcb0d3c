"""Driver-facing query library: every operator as an sf_dir-parameterized
callable plus (where SQL-expressible) a DuckDB oracle string.

Graph queries run over a deterministic edge table derived from the
``lineitem`` table (``src = l_orderkey % V, dst = l_partkey % V``) so
the identical graph is reconstructible in ANSI SQL; iterative algorithms
get fixed-k oracles as unrolled CTE chains (k supersteps of the exact
engine semantics). Float-valued results are rounded identically on both
sides (column names match exactly — driver hashes sorted-by-name).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np
import pyarrow as pa

V_GRAPH = 500  # vertex-id space of the derived lineitem graph
_P = 8  # engine partitions for query-sized graphs
_HOST_MOD = 50  # vid -> "host" coarsening used by the host-graph queries

_E_SQL = (
    f"SELECT DISTINCT l_orderkey % {V_GRAPH} AS src, "
    f"l_partkey % {V_GRAPH} AS dst FROM lineitem "
    f"WHERE (l_orderkey % {V_GRAPH}) <> (l_partkey % {V_GRAPH})"
)

# the event-mutated edge set (Graph.update: click = add, error = remove)
_E_UPD_SQL = (
    f"WITH base AS ({_E_SQL}), "
    f"adds AS (SELECT DISTINCT user_id % {V_GRAPH} AS src, "
    f"(event_id * 7) % {V_GRAPH} AS dst FROM events "
    f"WHERE event_type = 'click' "
    f"AND user_id % {V_GRAPH} <> (event_id * 7) % {V_GRAPH}), "
    f"rems AS (SELECT user_id % {V_GRAPH} AS src, "
    f"(event_id * 7) % {V_GRAPH} AS dst FROM events "
    "WHERE event_type = 'error') "
    "SELECT src, dst FROM "
    "(SELECT src, dst FROM base UNION SELECT src, dst FROM adds) "
    "EXCEPT SELECT src, dst FROM rems"
)

# Oracle round counts for the to-convergence queries (engine side runs
# to its true fixpoint; the unrolled-CTE oracle must use enough rounds
# to reach the same fixpoint). The derived graph has a FIXED 500-vertex
# id space at every scale factor and only gets denser as sf grows, so
# its (un)directed diameter shrinks with scale: 12 rounds is a safe
# upper bound (sf0.001 converges in <=8; convergence is asserted by the
# engine's own termination detection, and extra oracle rounds past the
# fixpoint are idempotent).
_CC_K = 12
_BFS_K = 12

_GRAPH_CACHE: Dict[str, object] = {}
_RESULT_CACHE: Dict[tuple, object] = {}  # memo for reused query results

# Byte cap for small-side lookup broadcasts (capped_broadcast_join).
# None → joins._BROADCAST_JOIN_LIMIT; tests monkeypatch this to 0 to
# force the co-partitioned hash-join fallback and A/B the two paths.
_LOOKUP_CAP_BYTES: Optional[int] = None


def _LOOKUP_CAP() -> int:
    from signal_collect_ray.functions.joins import _BROADCAST_JOIN_LIMIT

    return (
        _BROADCAST_JOIN_LIMIT
        if _LOOKUP_CAP_BYTES is None
        else _LOOKUP_CAP_BYTES
    )


def _work_dir(sf_dir: str, name: str) -> str:
    key = sf_dir.strip("/").replace("/", "_")
    return f"/tmp/scray_queries/{key}/{name}"


def derived_edges_ds(sf_dir: str):
    """Distinct (src, dst) modulo-V edges from lineitem — Ray side of
    ``_E_SQL``. In-batch dedup, then exact dedup co-partitioned by src."""
    import ray.data as rd

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey"],
    )

    def mod(tbl: pa.Table) -> pa.Table:
        o = tbl.column("l_orderkey").to_numpy(zero_copy_only=False) % V_GRAPH
        p = tbl.column("l_partkey").to_numpy(zero_copy_only=False) % V_GRAPH
        keep = o != p
        pairs = np.unique(np.stack([o[keep], p[keep]], axis=1), axis=0)
        return pa.table(
            {
                "gpart": pa.array(part_of(pairs[:, 0], 32), pa.int32()),
                "src": pa.array(pairs[:, 0], pa.int64()),
                "dst": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def dedup(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([s, d], axis=1), axis=0)
        return pa.table(
            {
                "src": pa.array(pairs[:, 0], pa.int64()),
                "dst": pa.array(pairs[:, 1], pa.int64()),
                "weight": pa.array(np.ones(len(pairs)), pa.float64()),
            }
        )

    return (
        ds.map_batches(mod, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(dedup, batch_format="pyarrow")
    )


_EW_SQL = (
    f"SELECT l_orderkey % {V_GRAPH} AS src, l_partkey % {V_GRAPH} AS dst, "
    f"CAST(COUNT(*) AS DOUBLE) AS weight FROM lineitem "
    f"WHERE (l_orderkey % {V_GRAPH}) <> (l_partkey % {V_GRAPH}) GROUP BY 1, 2"
)


def derived_edges_weighted_ds(sf_dir: str):
    """Weighted variant: weight = multiplicity of the (src, dst) pair in
    lineitem — Ray side of ``_EW_SQL``. Per-batch partial counts, then a
    final combine co-partitioned by src (CompanyValuation-style weighted
    edges, reference examples/CompanyValuation.scala:25-33)."""
    import ray.data as rd

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        o = tbl.column("l_orderkey").to_numpy(zero_copy_only=False) % V_GRAPH
        p = tbl.column("l_partkey").to_numpy(zero_copy_only=False) % V_GRAPH
        keep = o != p
        pairs, counts = np.unique(
            np.stack([o[keep], p[keep]], axis=1), axis=0, return_counts=True
        )
        return pa.table(
            {
                "gpart": pa.array(part_of(pairs[:, 0], 32), pa.int32()),
                "src": pa.array(pairs[:, 0], pa.int64()),
                "dst": pa.array(pairs[:, 1], pa.int64()),
                "weight": pa.array(counts.astype(np.float64), pa.float64()),
            }
        )

    def final(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        w = tbl.column("weight").to_numpy(zero_copy_only=False)
        pairs, inv = np.unique(
            np.stack([s, d], axis=1), axis=0, return_inverse=True
        )
        tot = np.zeros(len(pairs))
        np.add.at(tot, inv, w)
        return pa.table(
            {
                "src": pa.array(pairs[:, 0], pa.int64()),
                "dst": pa.array(pairs[:, 1], pa.int64()),
                "weight": pa.array(tot, pa.float64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(final, batch_format="pyarrow")
    )


def sym_edges(edges_ds):
    """Shuffle-free symmetrization: emit each edge both ways (duplicates
    allowed — pair with ``Graph.build(..., dedup=True)``, which dedups
    inside the build's own shuffle)."""

    def sym(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, d]), pa.int64()),
                "dst": pa.array(np.concatenate([d, s]), pa.int64()),
                "weight": pa.array(np.ones(2 * len(s)), pa.float64()),
            }
        )

    return edges_ds.map_batches(sym, batch_format="pyarrow")


def _sym_dedup(edges_ds):
    """Symmetrize + dedup (matches SQL ``e UNION reverse(e)``)."""
    from signal_collect_ray.util import part_of

    def sym(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        ss = np.concatenate([s, d])
        dd = np.concatenate([d, s])
        pairs = np.unique(np.stack([ss, dd], axis=1), axis=0)
        return pa.table(
            {
                "gpart": pa.array(part_of(pairs[:, 0], 32), pa.int32()),
                "src": pa.array(pairs[:, 0], pa.int64()),
                "dst": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def dedup(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([s, d], axis=1), axis=0)
        return pa.table(
            {
                "src": pa.array(pairs[:, 0], pa.int64()),
                "dst": pa.array(pairs[:, 1], pa.int64()),
                "weight": pa.array(np.ones(len(pairs)), pa.float64()),
            }
        )

    return (
        edges_ds.map_batches(sym, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(dedup, batch_format="pyarrow")
    )


def _graph(sf_dir: str, symmetric: bool = False):
    """Build (once per process per sf_dir) the derived lineitem graph."""
    from signal_collect_ray import Graph

    key = (sf_dir, symmetric)
    g = _GRAPH_CACHE.get(key)
    if g is None:
        edges = derived_edges_ds(sf_dir)
        if symmetric:
            edges = sym_edges(edges)
        name = "graph_sym" if symmetric else "graph"
        g = Graph.build(
            edges, _work_dir(sf_dir, name), num_partitions=_P, dedup=symmetric
        )
        _GRAPH_CACHE[key] = g
    return g


def _engine(max_supersteps: int, eps: float = 1e-6):
    """Resident executor — bit-identical to the durable Ray Data
    executor (equality pinned in tests/test_resident.py) at ~5x lower
    per-superstep latency; the durable path is exercised by entry() and
    bench.py's pagerank_durable stage."""
    from signal_collect_ray import EngineConfig
    from signal_collect_ray.engine_resident import ResidentEngine

    return ResidentEngine(
        EngineConfig(num_partitions=_P, eps=eps, max_supersteps=max_supersteps)
    )  # auto pool sizing — query graphs are tiny, the cost model picks small W


def _state(sf_dir, algo, symmetric, max_supersteps, eps=1e-6, tag=""):
    g = _graph(sf_dir, symmetric)
    eng = _engine(max_supersteps, eps)
    info = eng.run(
        g, algo, run_dir=_work_dir(sf_dir, f"run_{algo.name}{tag}"), resume=False,
        checkpoint_interval=50,
    )
    return info.state_table()


# ---------------------------------------------------------------------------
# SQL generators for the iterative oracles (unrolled fixed-k CTE chains)
# ---------------------------------------------------------------------------

def _pr_sql(k: int, edges_sql: Optional[str] = None) -> str:
    ctes = [
        f"e AS MATERIALIZED ({edges_sql or _E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd FROM e GROUP BY src)",
        "r0 AS (SELECT vid, CAST(0.15 AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, 0.15 + 0.85 * COALESCE(SUM(r{i-1}.r / od.outd), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src "
            f"LEFT JOIN od ON od.src = e.src GROUP BY v.vid)"
        )
    return "WITH " + ", ".join(ctes) + f" SELECT vid, ROUND(r, 6) AS rank FROM r{k}"


_PPR_SOURCES = (0, 7)


def _ppr_sql(k: int) -> str:
    """Unrolled personalized-PageRank oracle: teleport baseline only on
    the source set (same recurrence as _pr_sql otherwise)."""
    srcs = ", ".join(str(s) for s in _PPR_SOURCES)
    base = f"CASE WHEN vid IN ({srcs}) THEN 0.15 ELSE 0.0 END"
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd FROM e GROUP BY src)",
        f"r0 AS (SELECT vid, CAST({base} AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, {base.replace('vid', 'v.vid')} "
            f"+ 0.85 * COALESCE(SUM(r{i-1}.r / od.outd), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src "
            f"LEFT JOIN od ON od.src = e.src GROUP BY v.vid)"
        )
    return "WITH " + ", ".join(ctes) + f" SELECT vid, ROUND(r, 6) AS rank FROM r{k}"


def q_ppr_sweep_cut(sf_dir: str):
    """Sweep-cut conductance profile over the 4-step personalized-
    PageRank scores (Andersen-Chung-Lang 2006, public literature — the
    local community detector): for every DISTINCT score level ℓ the
    set S(ℓ) = {v : score > ℓ} gets exact integer volume (symmetric
    degrees), exact integer cut (directed symmetric edges leaving S —
    each undirected crossing edge counts once), and conductance
    φ = cut / min(vol, 2m − vol). Scores quantize to micro-units
    (round(rank·1e6) — the same 6-dp rounding the ppr_k4 oracle pins),
    so tie groups enter the sweep together and both sides perform the
    identical integer walk. Distributed shape: the micro-score table
    attaches to the symmetric edges via capped_broadcast_join (hash
    fallback above the cap); cut deltas are per-level counts of edge
    endpoints (one groupby each side), volume is a per-level degree
    sum, and the driver walk is O(distinct levels) — never O(V)."""
    from ray.data.aggregate import Count, Sum

    from signal_collect_ray.algorithms import PersonalizedPageRank
    from signal_collect_ray.functions.joins import capped_broadcast_join

    t = _state(
        sf_dir, PersonalizedPageRank(_PPR_SOURCES), False, 4, eps=0.0,
        tag="_k4",
    )
    s6 = pa.table(
        {
            "vid": t.column("vid"),
            "s6": pa.array(
                _round_half_away(
                    _round_half_away(
                        t.column("state").to_numpy(zero_copy_only=False), 6
                    )
                    * 1e6,
                    0,
                ).astype(np.int64),
                pa.int64(),
            ),
        }
    )
    import ray.data as rd

    s6_ds = rd.from_arrow(s6).materialize()
    g = _graph(sf_dir, True)
    edges = g.edges_ds(columns=("src", "dst"))

    def keyed(key: str, out: str):
        def fn(tbl: pa.Table) -> pa.Table:
            return pa.table({key: tbl.column("vid"), out: tbl.column("s6")})

        return fn

    e = capped_broadcast_join(
        edges, s6_ds.map_batches(keyed("src", "su"), batch_format="pyarrow"),
        on="src", max_broadcast_bytes=_LOOKUP_CAP(),
    )
    e = capped_broadcast_join(
        e, s6_ds.map_batches(keyed("dst", "sw"), batch_format="pyarrow"),
        on="dst", max_broadcast_bytes=_LOOKUP_CAP(),
    )

    # per-level deltas: over the symmetric directed relation,
    # cut(ℓ) = #[src∈S ∧ dst∉S] = #[su > ℓ] − #[su > ℓ ∧ sw > ℓ]
    #        = #[su > ℓ] − #[min(su, sw) > ℓ]
    # — two single-key descending cumsums (the naive su/sw difference
    # cancels to 0 on a symmetric relation; the min-endpoint key is
    # what isolates the internal edges)
    def ends(tbl: pa.Table) -> pa.Table:
        su = tbl.column("su").to_numpy(zero_copy_only=False)
        sw = tbl.column("sw").to_numpy(zero_copy_only=False)
        mn = np.minimum(su, sw)
        t1 = pa.table(
            {
                "lvl": pa.array(np.concatenate([su, mn]), pa.int64()),
                "hi": pa.array(
                    np.concatenate(
                        [np.ones(len(su), np.int64),
                         np.zeros(len(mn), np.int64)]
                    ),
                    pa.int64(),
                ),
                "lo": pa.array(
                    np.concatenate(
                        [np.zeros(len(su), np.int64),
                         np.ones(len(mn), np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )
        return (
            t1.group_by("lvl").aggregate([("hi", "sum"), ("lo", "sum")])
            .rename_columns(["lvl", "hi", "lo"])
        )

    edge_rows = (
        e.map_batches(ends, batch_format="pyarrow")
        .groupby("lvl")
        .aggregate(Sum("hi", alias_name="hi"), Sum("lo", alias_name="lo"))
        .take_all()
    )
    # per-level volume deltas: Σ symmetric-degree of vertices AT level
    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    dj = capped_broadcast_join(
        deg.rename_columns({"src": "vid"}), s6_ds, on="vid",
        max_broadcast_bytes=_LOOKUP_CAP(),
    )
    vol_rows = (
        dj.map_batches(
            lambda tbl: pa.table(
                {"lvl": tbl.column("s6"), "d": tbl.column("d")}
            ),
            batch_format="pyarrow",
        )
        .groupby("lvl")
        .aggregate(Sum("d", alias_name="d"))
        .take_all()
    )
    # driver walk over DISTINCT levels, descending
    hi_at = {int(r["lvl"]): int(r["hi"]) for r in edge_rows}
    lo_at = {int(r["lvl"]): int(r["lo"]) for r in edge_rows}
    d_at = {int(r["lvl"]): int(r["d"]) for r in vol_rows}
    levels = sorted(d_at, reverse=True)
    two_m = sum(d_at.values())
    out_l, out_v, out_c, out_phi = [], [], [], []
    vol = cum_hi = cum_lo = 0
    for lvl in levels:
        # entering level lvl: vertices with s6 > lvl are those of
        # PREVIOUS (higher) levels — cumulate before emitting
        cut = cum_hi - cum_lo
        if 0 < vol < two_m:
            phi = cut / min(vol, two_m - vol)
            out_l.append(lvl)
            out_v.append(vol)
            out_c.append(cut)
            out_phi.append(
                float(_round_half_away(np.array([phi]), 6)[0])
            )
        vol += d_at[lvl]
        cum_hi += hi_at.get(lvl, 0)
        cum_lo += lo_at.get(lvl, 0)
    return pa.table(
        {
            "level_micro": pa.array(out_l, pa.int64()),
            "vol": pa.array(out_v, pa.int64()),
            "cut": pa.array(out_c, pa.int64()),
            "conductance": pa.array(out_phi, pa.float64()),
        }
    )


def _sweep_cut_sql() -> str:
    """Direct-definition oracle for q_ppr_sweep_cut: S(ℓ) and its
    cut/volume recomputed per distinct level from the symmetric edge
    relation and the unrolled PPR scores."""
    return f"""
WITH e0 AS MATERIALIZED ({_E_SQL}),
sym AS MATERIALIZED (SELECT src, dst FROM e0
                     UNION SELECT dst AS src, src AS dst FROM e0),
deg AS (SELECT src AS vid, CAST(COUNT(*) AS BIGINT) AS d
        FROM sym GROUP BY src),
ppr AS MATERIALIZED (SELECT * FROM ({_ppr_sql(4)})),
s AS MATERIALIZED (SELECT p.vid,
     CAST(ROUND(p.rank * 1000000, 0) AS BIGINT) AS s6,
     COALESCE(deg.d, 0) AS d
     FROM ppr p LEFT JOIN deg ON deg.vid = p.vid),
m AS (SELECT SUM(d) AS two_m FROM s),
lv AS (SELECT DISTINCT s6 AS lvl FROM s),
prof AS (SELECT lv.lvl,
  (SELECT CAST(COALESCE(SUM(x.d), 0) AS BIGINT) FROM s x
   WHERE x.s6 > lv.lvl) AS vol,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM sym e
   JOIN s su ON su.vid = e.src JOIN s sw ON sw.vid = e.dst
   WHERE su.s6 > lv.lvl AND sw.s6 <= lv.lvl) AS cut
  FROM lv)
SELECT lvl AS level_micro, vol, cut,
       ROUND(cut * 1.0 / LEAST(vol, m.two_m - vol), 6) AS conductance
FROM prof, m WHERE vol > 0 AND vol < m.two_m
"""


def q_trustrank_k4(sf_dir: str):
    """4-step teleport-weighted PageRank (algorithms.pagerank.
    TeleportWeightedPageRank): teleport mass ∝ (vid % 7 + 1)/4 — a
    deterministic stand-in for a per-page trust/quality prior."""
    from signal_collect_ray.algorithms.pagerank import (
        TeleportWeightedPageRank,
    )

    alg = TeleportWeightedPageRank(lambda v: (v % 7 + 1) / 4.0)
    t = _state(sf_dir, alg, False, 4, eps=0.0, tag="_k4")
    return _round_state(t, "rank", 6)


def _twpr_sql(k: int) -> str:
    base = "0.15 * ((vid % 7) + 1) / 4.0"
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd FROM e GROUP BY src)",
        f"r0 AS (SELECT vid, CAST({base} AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, "
            f"{base.replace('vid', 'v.vid')} "
            f"+ 0.85 * COALESCE(SUM(r{i-1}.r / od.outd), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src "
            f"LEFT JOIN od ON od.src = e.src GROUP BY v.vid)"
        )
    return "WITH " + ", ".join(ctes) + f" SELECT vid, ROUND(r, 6) AS rank FROM r{k}"


# Dyadic Katz constants (1/16, 1/8): every engine/oracle float op is
# then EXACT (values stay low-precision dyadic rationals, well under
# float64's 53 bits), so both sides compute bit-identical scores and no
# score can land exactly on a decimal .5 rounding boundary (dyadic
# rationals are never odd multiples of 5e-7). With α=0.05 the exact
# scores are terminating decimals that frequently sit ON the 6-digit
# half boundary, where ±1e-13 associativity noise flips ROUND.
_KATZ_A, _KATZ_B = 0.0625, 0.125


def q_katz_k4(sf_dir: str):
    """4-step Katz centrality (algorithms.pagerank.KatzCentrality):
    x = beta + alpha * A^T x over raw adjacency — delta-formulated,
    combiner pre-aggregated, dense fast path, exactly like PageRank."""
    from signal_collect_ray.algorithms import KatzCentrality

    t = _state(
        sf_dir, KatzCentrality(_KATZ_A, _KATZ_B), False, 4, eps=0.0, tag="_k4"
    )
    return _round_state(t, "score", 6)


def _katz_sql(k: int) -> str:
    """Unrolled Katz oracle: r_i = beta + alpha * Σ_{u→v} r_{i-1}(u)
    (no out-degree normalization — the only difference from _pr_sql)."""
    a, b = _KATZ_A, _KATZ_B
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        f"r0 AS (SELECT vid, CAST({b} AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, {b} + {a} * "
            f"COALESCE(SUM(r{i-1}.r), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src GROUP BY v.vid)"
        )
    return "WITH " + ", ".join(ctes) + f" SELECT vid, ROUND(r, 6) AS score FROM r{k}"


def q_eigenvector_k4(sf_dir: str):
    """4 power-iteration steps of eigenvector centrality
    (algorithms.hits.EigenvectorCentrality), L1-normalized at the end —
    the authority half of HITS over the plain directed graph."""
    from signal_collect_ray.algorithms import EigenvectorCentrality

    t = _state(sf_dir, EigenvectorCentrality(), False, 4, eps=0.0, tag="_k4")
    s = t.column("state").to_numpy(zero_copy_only=False)
    tot = s.sum()
    return pa.table(
        {
            "vid": t.column("vid"),
            "score": pa.array(
                np.round(s / tot if tot else s, 6), pa.float64()
            ),
        }
    )


def _eig_sql(k: int) -> str:
    """Unrolled power-iteration oracle: x_i(v) = Σ_{u→v} x_{i-1}(u),
    x_0 = 1, final L1 normalization (mirrors q_eigenvector_k4)."""
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "x0 AS (SELECT vid, CAST(1.0 AS DOUBLE) AS x FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"x{i} AS MATERIALIZED (SELECT v.vid, "
            f"COALESCE(SUM(x{i-1}.x), 0) AS x "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN x{i-1} ON x{i-1}.vid = e.src GROUP BY v.vid)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, ROUND(x / NULLIF((SELECT SUM(x) FROM x{k}), 0), 6) "
        f"AS score FROM x{k}"
    )


_KCORE_KS, _KCORE_ROUNDS = (12, 180), 8


def _kcore_sql() -> str:
    """Unrolled k-core peeling for both k values over the symmetric
    graph. Peeling is monotone, so rounds past the fixpoint are no-ops
    — the engine run at max_supersteps=R and the R-round unroll agree
    even when convergence lands early."""
    ctes = [
        f"e0 AS MATERIALIZED ({_E_SQL})",
        "e AS MATERIALIZED (SELECT src, dst FROM e0 "
        "UNION SELECT dst AS src, src AS dst FROM e0)",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
    ]
    for k in _KCORE_KS:
        ctes.append(f"a0_{k} AS (SELECT vid, 1 AS a FROM v)")
        for i in range(1, _KCORE_ROUNDS + 1):
            ctes.append(
                f"a{i}_{k} AS MATERIALIZED (SELECT v.vid, "
                f"CASE WHEN p.a = 1 AND COALESCE(SUM(n.a), 0) >= {k} "
                f"THEN 1 ELSE 0 END AS a "
                f"FROM v JOIN a{i-1}_{k} p ON p.vid = v.vid "
                f"LEFT JOIN e ON e.dst = v.vid "
                f"LEFT JOIN a{i-1}_{k} n ON n.vid = e.src "
                f"GROUP BY v.vid, p.a)"
            )
    r = _KCORE_ROUNDS
    sel = ", ".join(
        f"CAST(c{k}.a AS BIGINT) AS in_core_k{k}" for k in _KCORE_KS
    )
    joins = " ".join(
        f"JOIN a{r}_{k} c{k} ON c{k}.vid = v.vid" for k in _KCORE_KS
    )
    return (
        "WITH " + ", ".join(ctes) + f" SELECT v.vid, {sel} FROM v {joins}"
    )


def _prw_sql(k: int) -> str:
    """Weighted PageRank oracle: signal = r * weight / sum_out_weight
    (reference PageRank.scala:44-46 with non-unit edge weights)."""
    ctes = [
        f"e AS MATERIALIZED ({_EW_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "sw AS (SELECT src, SUM(weight) AS sw FROM e GROUP BY src)",
        "r0 AS (SELECT vid, CAST(0.15 AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, 0.15 + 0.85 * "
            f"COALESCE(SUM(r{i-1}.r * e.weight / sw.sw), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src "
            f"LEFT JOIN sw ON sw.src = e.src GROUP BY v.vid)"
        )
    return "WITH " + ", ".join(ctes) + f" SELECT vid, ROUND(r, 6) AS rank FROM r{k}"


def _cc_sql(k: int, edges_sql: Optional[str] = None) -> str:
    ctes = [
        f"e0 AS MATERIALIZED ({edges_sql or _E_SQL})",
        "e AS MATERIALIZED (SELECT src, dst FROM e0 UNION SELECT dst AS src, src AS dst FROM e0)",
        "v AS MATERIALIZED (SELECT src AS vid FROM e0 UNION SELECT dst FROM e0)",
        "l0 AS (SELECT vid, vid AS lab FROM v)",
    ]
    for i in range(1, k + 1):
        # MATERIALIZED is load-bearing: each level references the prior
        # one twice, and DuckDB inlines plain CTEs, so a non-materialized
        # chain is evaluated 2^k times (k=12 runs for >20 min at sf0.01).
        ctes.append(
            f"l{i} AS MATERIALIZED (SELECT v.vid, LEAST(own.lab, COALESCE(MIN(nb.lab), own.lab)) AS lab "
            f"FROM v JOIN l{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN l{i-1} nb ON nb.vid = e.src GROUP BY v.vid, own.lab)"
        )
    return "WITH " + ", ".join(ctes) + f" SELECT vid, lab AS label FROM l{k}"


def _hits_sql(k: int) -> str:
    """HITS oracle — simultaneous update, k rounds, final L1
    normalization (mirrors ``algorithms/hits.py`` exactly: hub_i(u) =
    Σ auth_{i-1}(v) over out-links u→v; auth_i(v) = Σ hub_{i-1}(u)
    over in-links)."""
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "ha0 AS (SELECT vid, CAST(1.0 AS DOUBLE) AS h, CAST(1.0 AS DOUBLE) AS a FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"ha{i} AS MATERIALIZED (SELECT v.vid, "
            f"COALESCE(hb.s, 0) AS h, COALESCE(ab.s, 0) AS a FROM v "
            f"LEFT JOIN (SELECT e.src AS vid, SUM(p.a) AS s FROM e "
            f"JOIN ha{i-1} p ON p.vid = e.dst GROUP BY e.src) hb ON hb.vid = v.vid "
            f"LEFT JOIN (SELECT e.dst AS vid, SUM(p.h) AS s FROM e "
            f"JOIN ha{i-1} p ON p.vid = e.src GROUP BY e.dst) ab ON ab.vid = v.vid)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, ROUND(h / NULLIF((SELECT SUM(h) FROM ha{k}), 0), 6) AS hub, "
        f"ROUND(a / NULLIF((SELECT SUM(a) FROM ha{k}), 0), 6) AS auth FROM ha{k}"
    )


def _sssp_sql(k: int, source: int = 0, edges_sql: Optional[str] = None) -> str:
    ctes = [
        f"e AS MATERIALIZED ({edges_sql or _E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        f"d0 AS (SELECT vid, CASE WHEN vid = {source} THEN CAST(0 AS DOUBLE) "
        "ELSE CAST(1e18 AS DOUBLE) END AS d FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"d{i} AS MATERIALIZED (SELECT v.vid, LEAST(own.d, COALESCE(MIN(nb.d + 1.0), 1e18)) AS d "
            f"FROM v JOIN d{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN d{i-1} nb ON nb.vid = e.src GROUP BY v.vid, own.d)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, CASE WHEN d >= 1e17 THEN NULL ELSE d END AS dist FROM d{k}"
    )


def _ssspw_sql(k: int, source: int = 0) -> str:
    """Weighted SSSP oracle over the multiplicity-weighted edges
    (reference Sssp.scala Path edge: signal = dist + weight)."""
    ctes = [
        f"e AS MATERIALIZED ({_EW_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        f"d0 AS (SELECT vid, CASE WHEN vid = {source} THEN CAST(0 AS DOUBLE) "
        "ELSE CAST(1e18 AS DOUBLE) END AS d FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"d{i} AS MATERIALIZED (SELECT v.vid, LEAST(own.d, COALESCE(MIN(nb.d + e.weight), 1e18)) AS d "
            f"FROM v JOIN d{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN d{i-1} nb ON nb.vid = e.src GROUP BY v.vid, own.d)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, CASE WHEN d >= 1e17 THEN NULL ELSE d END AS dist FROM d{k}"
    )


_CW1_SQL = f"""
WITH e0 AS ({_E_SQL}),
e AS (SELECT src, dst FROM e0 UNION SELECT dst AS src, src AS dst FROM e0),
v AS (SELECT src AS vid FROM e0 UNION SELECT dst FROM e0),
cand AS (
  SELECT e.dst AS vid, e.src AS label, CAST(1.0 AS DOUBLE) AS w FROM e
  UNION ALL
  SELECT vid, vid AS label, CAST(1.0 AS DOUBLE) AS w FROM v
),
agg AS (SELECT vid, label, SUM(w) AS s FROM cand GROUP BY vid, label),
ranked AS (SELECT vid, label,
           ROW_NUMBER() OVER (PARTITION BY vid ORDER BY s DESC, label ASC) AS rn
           FROM agg)
SELECT vid, label FROM ranked WHERE rn = 1
"""

_TRI_SQL_BASE = f"""
WITH e0 AS ({_E_SQL}),
u AS (SELECT LEAST(src, dst) AS a, GREATEST(src, dst) AS b FROM e0 GROUP BY 1, 2),
tri AS (SELECT x.a AS u, x.b AS v, y.b AS w
        FROM u x JOIN u y ON y.a = x.b JOIN u z ON z.a = x.a AND z.b = y.b)
"""


# ---------------------------------------------------------------------------
# query callables
# ---------------------------------------------------------------------------

def q_graph_edges(sf_dir: str):
    return derived_edges_ds(sf_dir).select_columns(["src", "dst"])


def q_out_degrees(sf_dir: str):
    g = _graph(sf_dir)
    ds = g.vertices_ds()

    def flt(tbl: pa.Table) -> pa.Table:
        outd = tbl.column("out_degree").to_numpy(zero_copy_only=False)
        keep = np.flatnonzero(outd > 0)
        t = tbl.take(pa.array(keep, pa.int64()))
        return pa.table({"vid": t.column("vid"), "out_degree": t.column("out_degree")})

    return ds.map_batches(flt, batch_format="pyarrow")


def _round_state(tbl: pa.Table, col_out: str, digits: int) -> pa.Table:
    vals = np.round(tbl.column("state").to_numpy(zero_copy_only=False), digits)
    return pa.table(
        {"vid": tbl.column("vid"), col_out: pa.array(vals, pa.float64())}
    )


def q_pagerank_k4(sf_dir: str):
    from signal_collect_ray.algorithms import PageRank

    t = _state(sf_dir, PageRank(), False, 4, eps=0.0, tag="_k4")
    return _round_state(t, "rank", 6)


def q_rank_sum_k4(sf_dir: str):
    from signal_collect_ray.algorithms import PageRank

    t = _state(sf_dir, PageRank(), False, 4, eps=0.0, tag="_k4")
    s = float(t.column("state").to_numpy().sum())
    return pa.table({"rank_sum": pa.array([round(s, 4)], pa.float64())})


def q_top10_pagerank_k4(sf_dir: str):
    t = q_pagerank_k4(sf_dir)
    vid = t.column("vid").to_numpy(zero_copy_only=False)
    r = t.column("rank").to_numpy(zero_copy_only=False)
    order = np.lexsort((vid, -r))[:10]
    return t.take(pa.array(order, pa.int64()))


def hits_edges(edges_ds):
    """Signed bidirected doubling of a link table for HITS: every link
    u→v becomes (u, v, +1) carrying hub forward and (v, u, -1) carrying
    authority backward (see ``algorithms/hits.py``). Pure per-batch
    transform — no shuffle; the build's own exchange partitions both
    directions together."""

    def double(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        n = len(s)
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, d]), pa.int64()),
                "dst": pa.array(np.concatenate([d, s]), pa.int64()),
                "weight": pa.array(
                    np.concatenate([np.ones(n), -np.ones(n)]), pa.float64()
                ),
            }
        )

    return edges_ds.map_batches(double, batch_format="pyarrow")


def _hits_graph(sf_dir: str):
    from signal_collect_ray import Graph

    key = (sf_dir, "hits")
    g = _GRAPH_CACHE.get(key)
    if g is None:
        g = Graph.build(
            hits_edges(derived_edges_ds(sf_dir)),
            _work_dir(sf_dir, "graph_hits"),
            num_partitions=_P,
        )
        _GRAPH_CACHE[key] = g
    return g


def q_hits_k4(sf_dir: str):
    from signal_collect_ray.algorithms import Hits

    g = _hits_graph(sf_dir)
    info = _engine(4, eps=0.0).run(
        g, Hits(), run_dir=_work_dir(sf_dir, "run_hits_k4"), resume=False,
        checkpoint_interval=50,
    )
    t = info.state_table()
    hub = t.column("state").to_numpy(zero_copy_only=False)
    auth = t.column("last").to_numpy(zero_copy_only=False)
    hs, as_ = hub.sum(), auth.sum()
    return pa.table(
        {
            "vid": t.column("vid"),
            "hub": pa.array(np.round(hub / hs if hs else hub, 6), pa.float64()),
            "auth": pa.array(np.round(auth / as_ if as_ else auth, 6), pa.float64()),
        }
    )


def q_in_degrees(sf_dir: str):
    from ray.data.aggregate import Count

    return (
        derived_edges_ds(sf_dir)
        .select_columns(["src", "dst"])
        .groupby("dst")
        .aggregate(Count(alias_name="in_degree"))
        .rename_columns({"dst": "vid"})
    )


def q_intra_cluster_stats(sf_dir: str):
    """Per-label mean squared distance to the label centroid
    (functions.similarity.intra_cluster_stats)."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import intra_cluster_stats

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label", "embedding"],
    )
    return intra_cluster_stats(emb)


_INTRA_CLUSTER_SQL = (
    "WITH x AS (SELECT vec_id, CAST(label AS BIGINT) AS label, r.pos, "
    "CAST(embedding[r.pos] AS DOUBLE) AS v "
    "FROM embeddings, unnest(range(1, len(embedding) + 1)) AS r(pos)), "
    "c AS (SELECT label, pos, ROUND(SUM(v) / COUNT(*), 6) AS mv "
    "FROM x GROUP BY label, pos), "
    "d AS (SELECT x.vec_id, x.label, SUM(POW(x.v - c.mv, 2)) AS d2 "
    "FROM x JOIN c ON c.label = x.label AND c.pos = x.pos "
    "GROUP BY x.vec_id, x.label) "
    "SELECT label, COUNT(*) AS n_vectors, ROUND(AVG(d2), 6) AS avg_sq_dist "
    "FROM d GROUP BY label"
)


_AQ_QS = (0.25, 0.5, 0.9, 0.99)
_AQ_BINS = 4096


def q_value_quantiles_approx(sf_dir: str):
    """Mergeable binned approximate quantiles of the events value
    column (functions.sketches.approx_quantiles_binned) — the
    histogram-sketch definition is deterministic, so the SQL mirror
    reproduces it bit-for-bit."""
    import ray.data as rd

    from signal_collect_ray.functions.sketches import approx_quantiles_binned

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )
    return approx_quantiles_binned(ev, "value", _AQ_QS, bins=_AQ_BINS)


def _aq_sql() -> str:
    qs = ", ".join(str(q) for q in _AQ_QS)
    B = _AQ_BINS
    return (
        "WITH v AS (SELECT value AS x FROM events WHERE value IS NOT NULL), "
        "s AS (SELECT MIN(x) AS mn, MAX(x) AS mx, COUNT(*) AS n FROM v), "
        f"b AS (SELECT LEAST(CAST(FLOOR((x - s.mn) / ((s.mx - s.mn) / {B}.0)) "
        f"AS BIGINT), {B} - 1) AS bin FROM v, s), "
        "h AS (SELECT bin, COUNT(*) AS c FROM b GROUP BY bin), "
        "c AS (SELECT bin, SUM(c) OVER (ORDER BY bin) AS cum FROM h), "
        f"qq AS (SELECT unnest([{qs}]) AS q) "
        "SELECT q, ROUND(s.mn + (SELECT MIN(bin) FROM c "
        "WHERE cum >= CEIL(q * s.n)) "
        f"* ((s.mx - s.mn) / {B}.0), 6) AS approx_value FROM qq, s"
    )


def q_value_buckets(sf_dir: str):
    """Equi-depth quartile bucket per event (functions.sketches.
    quantile_bucket over the same binned sketch as
    value_quantiles_approx)."""
    import ray.data as rd

    from signal_collect_ray.functions.sketches import quantile_bucket

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "value"]
    )
    return quantile_bucket(ev, "event_id", "value", n_buckets=4,
                           bins=_AQ_BINS)


def _value_buckets_sql() -> str:
    B = _AQ_BINS
    return (
        "WITH v AS (SELECT value AS x FROM events WHERE value IS NOT NULL), "
        "s AS (SELECT MIN(x) AS mn, MAX(x) AS mx, COUNT(*) AS n FROM v), "
        f"b AS (SELECT LEAST(CAST(FLOOR((x - s.mn) / ((s.mx - s.mn) / {B}.0)) "
        f"AS BIGINT), {B} - 1) AS bin FROM v, s), "
        "h AS (SELECT bin, COUNT(*) AS c FROM b GROUP BY bin), "
        "c AS (SELECT bin, SUM(c) OVER (ORDER BY bin) AS cum FROM h), "
        "qq AS (SELECT unnest([0.25, 0.5, 0.75]) AS q), "
        "ed AS (SELECT ROUND(s.mn + (SELECT MIN(bin) FROM c "
        "WHERE cum >= CEIL(q * s.n)) "
        f"* ((s.mx - s.mn) / {B}.0), 6) AS e FROM qq, s) "
        "SELECT ev.event_id, CAST(SUM(CASE WHEN ed.e <= ev.value THEN 1 "
        "ELSE 0 END) AS BIGINT) AS bucket "
        "FROM events ev CROSS JOIN ed GROUP BY ev.event_id"
    )


def q_fd_checks(sf_dir: str):
    """Functional-dependency probes (functions.aggregations.
    functional_dependency): o_orderkey→o_custkey on orders (a true key
    dependency) and user_id→event_type on events (violated)."""
    import ray.data as rd

    from signal_collect_ray.functions.aggregations import (
        functional_dependency,
    )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type"],
    )
    a = functional_dependency(orders, "o_orderkey", "o_custkey")
    b = functional_dependency(ev, "user_id", "event_type")

    def row(t):
        return (
            int(t.column("n_lhs")[0].as_py()),
            int(t.column("n_violating_lhs")[0].as_py()),
            bool(t.column("holds")[0].as_py()),
        )

    ra, rb = row(a), row(b)
    return pa.table(
        {
            "dependency": pa.array(
                ["o_orderkey->o_custkey", "user_id->event_type"], pa.string()
            ),
            "n_lhs": pa.array([ra[0], rb[0]], pa.int64()),
            "n_violating_lhs": pa.array([ra[1], rb[1]], pa.int64()),
            "holds": pa.array([ra[2], rb[2]], pa.bool_()),
        }
    )


_FD_SQL = (
    "SELECT 'o_orderkey->o_custkey' AS dependency, "
    "COUNT(DISTINCT o_orderkey) AS n_lhs, "
    "CAST(COALESCE(SUM(CASE WHEN nr > 1 THEN 1 ELSE 0 END), 0) AS BIGINT) "
    "AS n_violating_lhs, "
    "COALESCE(SUM(CASE WHEN nr > 1 THEN 1 ELSE 0 END), 0) = 0 AS holds "
    "FROM (SELECT o_orderkey, COUNT(DISTINCT o_custkey) AS nr FROM orders "
    "GROUP BY o_orderkey) s "
    "UNION ALL "
    "SELECT 'user_id->event_type', COUNT(DISTINCT user_id), "
    "CAST(COALESCE(SUM(CASE WHEN nr > 1 THEN 1 ELSE 0 END), 0) AS BIGINT), "
    "COALESCE(SUM(CASE WHEN nr > 1 THEN 1 ELSE 0 END), 0) = 0 "
    "FROM (SELECT user_id, COUNT(DISTINCT event_type) AS nr FROM events "
    "GROUP BY user_id) s2"
)


def q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood blocking candidate pairs (functions.dedup.
    sorted_neighborhood_pairs, 16-bit md5-prefix key, window 3)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import sorted_neighborhood_pairs

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return sorted_neighborhood_pairs(docs, window=3, chunk=64)


_SORTED_NEIGHBORHOOD_SQL = (
    "WITH k AS (SELECT doc_id, CAST(('0x' || substr(md5(trim("
    "regexp_replace(COALESCE(text, ''), '\\s+', ' ', 'g'))), 1, 4)) "
    "AS UBIGINT) AS bk FROM documents), "
    "r AS (SELECT doc_id, ROW_NUMBER() OVER (ORDER BY bk, doc_id) - 1 "
    "AS rn FROM k) "
    "SELECT a.doc_id AS id_a, b.doc_id AS id_b FROM r a JOIN r b "
    "ON b.rn BETWEEN a.rn + 1 AND a.rn + 3"
)


def q_louvain_communities(sf_dir: str):
    """One-level Louvain modularity-greedy communities on the
    symmetric page graph (algorithms.modularity.louvain_one_level).
    Deterministic (alternating hash classes, min-label ties) but an
    iterative greedy fixed point: rows-only."""
    from signal_collect_ray.algorithms.modularity import louvain_one_level

    g = _graph(sf_dir, True)
    return louvain_one_level(
        g.edges_ds().select_columns(["src", "dst"]), rounds=4,
        num_partitions=16,
    )


def q_avg_neighbor_degree(sf_dir: str):
    """Per-vertex mean out-degree of out-neighbors (the local
    assortativity profile; Barrat et al. 2004, public). Degree lookup
    via capped_broadcast_join — broadcast under the byte cap,
    co-partitioned hash-join fallback above it (never an unconditional
    O(V) driver take); one vectorized pass emits per-block (src, sum,
    n) partials and a tiny groupby folds them."""
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import capped_broadcast_join

    g = _graph(sf_dir)

    def as_deg(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "dst": tbl.column("vid"),
                "nbr_deg": tbl.column("out_degree").cast(pa.float64()),
            }
        )

    deg = g.vertices_ds().select_columns(["vid", "out_degree"]).map_batches(
        as_deg, batch_format="pyarrow"
    )
    joined = capped_broadcast_join(
        derived_edges_ds(sf_dir).select_columns(["src", "dst"]),
        deg, on="dst", how="inner",  # every dst is a graph vertex
        max_broadcast_bytes=_LOOKUP_CAP(),
    )

    def partial(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        nd = tbl.column("nbr_deg").to_numpy(zero_copy_only=False)
        u, inv = np.unique(s, return_inverse=True)
        return pa.table(
            {
                "vid": pa.array(u, pa.int64()),
                "s": pa.array(np.bincount(inv, weights=nd), pa.float64()),
                "n": pa.array(np.bincount(inv), pa.int64()),
            }
        )

    agg = (
        joined
        .map_batches(partial, batch_format="pyarrow")
        .groupby("vid")
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
    )

    def final(tbl: pa.Table) -> pa.Table:
        s = tbl.column("s").to_numpy(zero_copy_only=False)
        n = tbl.column("n").to_numpy(zero_copy_only=False)
        # integer-degree averages land EXACTLY on .5 ulp boundaries
        # (dyadic rationals), where numpy rounds half-to-even but
        # DuckDB ROUND goes half-away — match DuckDB (values positive)
        v = np.floor((s / n) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "vid": tbl.column("vid"),
                "avg_nbr_deg": pa.array(v, pa.float64()),
            }
        )

    return agg.map_batches(final, batch_format="pyarrow")


_AVG_NBR_DEG_SQL = (
    f"WITH e AS ({_E_SQL}), "
    "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd FROM e GROUP BY src) "
    "SELECT e.src AS vid, "
    "ROUND(AVG(COALESCE(od.outd, 0)), 6) AS avg_nbr_deg "
    "FROM e LEFT JOIN od ON od.src = e.dst GROUP BY e.src"
)


def q_host_communities(sf_dir: str):
    """Weighted one-level Louvain over the CONTRACTED host graph
    (Graph.contracted sums parallel-edge weights; the weighted
    candidate masses then see multi-link host affinity). Rows-only —
    the host coarsening + greedy fixed point has no SQL mirror."""
    from signal_collect_ray.algorithms.modularity import louvain_one_level

    key = (sf_dir, "host_sym")
    gc = _GRAPH_CACHE.get(key)
    if gc is None:
        gc = _graph(sf_dir, True).contracted(
            lambda v: v % _HOST_MOD, _work_dir(sf_dir, "graph_host_sym"),
            num_partitions=4,
        )
        _GRAPH_CACHE[key] = gc
    return louvain_one_level(
        gc.edges_ds().select_columns(["src", "dst", "weight"]),
        rounds=4, weight_col="weight", num_partitions=8,
    )


def q_degree_histogram(sf_dir: str):
    """Log2-binned in-degree distribution of the page graph — the
    classic power-law web-graph diagnostic. Per-block bincount
    partials over the in_degrees aggregate; one tiny groupby(bin)."""
    from ray.data.aggregate import Sum

    def bins(tbl: pa.Table) -> pa.Table:
        d = tbl.column("in_degree").to_numpy(zero_copy_only=False)
        b = np.floor(np.log2(np.maximum(d, 1))).astype(np.int64)
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bin": pa.array(u, pa.int64()),
                         "n_vertices": pa.array(c, pa.int64())})

    return (
        q_in_degrees(sf_dir)
        .map_batches(bins, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n_vertices", alias_name="n_vertices"))
    )


_DEGREE_HIST_SQL = (
    f"WITH e AS ({_E_SQL}), "
    "d AS (SELECT dst, COUNT(*) AS ind FROM e GROUP BY dst) "
    "SELECT CAST(FLOOR(LOG2(GREATEST(ind, 1))) AS BIGINT) AS bin, "
    "COUNT(*) AS n_vertices FROM d GROUP BY 1"
)


def q_kcore(sf_dir: str):
    """k-core membership at both probe k values after 8 peel rounds
    (algorithms.cellular.KCore over the symmetric graph)."""
    from signal_collect_ray.algorithms import KCore

    cols = {}
    for k in _KCORE_KS:
        t = _state(
            sf_dir, KCore(k), True, _KCORE_ROUNDS, eps=0.0, tag=f"_k{k}"
        )
        cols["vid"] = t.column("vid")
        cols[f"in_core_k{k}"] = t.column("state")
    return pa.table(cols)


_CORENESS_ROUNDS = 16  # fixpoint measured at 8-9 rounds; extras idempotent


def q_coreness(sf_dir: str):
    """Full core decomposition — coreness per vertex via the h-index
    fixpoint (algorithms/coreness.py), generalizing the fixed-k kcore
    membership query to the whole onion in one engine run. All-integer,
    so the unrolled SQL mirror is bit-exact; monotone + idempotent at
    the fixpoint, so an R-round engine cap equals an R-round unroll
    regardless of where either side converges."""
    from signal_collect_ray.algorithms.coreness import Coreness

    t = _state(sf_dir, Coreness(), True, _CORENESS_ROUNDS, eps=1e-9)
    return pa.table(
        {
            "vid": t.column("vid"),
            "coreness": t.column("state").cast(pa.int64()),
        }
    )


def _coreness_sql(r: int) -> str:
    ctes = [
        f"e0 AS MATERIALIZED ({_E_SQL})",
        "e AS MATERIALIZED (SELECT src, dst FROM e0 "
        "UNION SELECT dst AS src, src AS dst FROM e0)",
        "h0 AS MATERIALIZED (SELECT src AS vid, "
        "CAST(COUNT(*) AS BIGINT) AS c FROM e GROUP BY src)",
    ]
    for i in range(1, r + 1):
        ctes.append(
            f"h{i} AS MATERIALIZED (SELECT t.dst AS vid, "
            "CAST(MAX(LEAST(t.val, t.rn)) AS BIGINT) AS c FROM ("
            f"SELECT e.dst, p.c AS val, ROW_NUMBER() OVER "
            "(PARTITION BY e.dst ORDER BY p.c DESC) AS rn "
            f"FROM e JOIN h{i-1} p ON p.vid = e.src) t GROUP BY t.dst)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, c AS coreness FROM h{r}"
    )


def q_ppr_k4(sf_dir: str):
    """4-step personalized PageRank from a 2-vertex seed set."""
    from signal_collect_ray.algorithms import PersonalizedPageRank

    t = _state(
        sf_dir, PersonalizedPageRank(_PPR_SOURCES), False, 4, eps=0.0, tag="_k4"
    )
    return _round_state(t, "rank", 6)


def q_pagerank_weighted_k4(sf_dir: str):
    from signal_collect_ray.algorithms import PageRank

    g = _graph_weighted(sf_dir)
    eng = _engine(4, eps=0.0)
    info = eng.run(
        g, PageRank(), run_dir=_work_dir(sf_dir, "run_prw_k4"), resume=False,
        checkpoint_interval=50,
    )
    return _round_state(info.state_table(), "rank", 6)


def q_component_sizes(sf_dir: str):
    t = q_cc_labels(sf_dir)
    lab = t.column("label").to_numpy(zero_copy_only=False)
    u, c = np.unique(lab, return_counts=True)
    return pa.table(
        {
            "label": pa.array(u, pa.int64()),
            "n_vertices": pa.array(c.astype(np.int64), pa.int64()),
        }
    )


def q_cc_labels(sf_dir: str):
    from signal_collect_ray.algorithms import ConnectedComponents

    key = (sf_dir, "cc_labels")
    out = _RESULT_CACHE.get(key)
    if out is None:
        # Capped at the oracle's round count, but only as a runaway
        # guard: the SQL oracle unrolls _CC_K rounds of plain min-label
        # propagation, while CC's shortcut (label[label]) runs ahead of
        # it, so the two agree only where both reach the fixpoint. Every
        # _CC_K CC run converges in 3 supersteps on sf0.01 and sf0.1; a
        # scale factor whose graph needed more rounds than the oracle
        # unrolls would fail the oracle check (and show
        # converged=False) rather than agree on partial labels.
        t = _state(sf_dir, ConnectedComponents(), True, _CC_K)
        out = pa.table({"vid": t.column("vid"), "label": t.column("state")})
        _RESULT_CACHE[key] = out
    return out


def q_sssp_from0(sf_dir: str):
    from signal_collect_ray.algorithms import SSSP

    t = _state(sf_dir, SSSP(0), False, 50)
    d = t.column("state").to_numpy(zero_copy_only=False)
    dist = [None if not np.isfinite(x) else float(x) for x in d]
    return pa.table({"vid": t.column("vid"), "dist": pa.array(dist, pa.float64())})


def q_sp_counts_from0(sf_dir: str):
    """Shortest-path counts from source 0 (Brandes σ): (vid, dist,
    n_paths) for every vertex REACHABLE from 0. Level-synchronous
    engine BFS with a two-field min/conditional-sum combiner
    (algorithms/sssp.py SPCount) — all-integer, so the unrolled SQL
    mirror is bit-exact."""
    from signal_collect_ray.algorithms import SPCount

    t = _state(sf_dir, SPCount(0), False, _BFS_K, eps=0.0)
    dist = t.column("state").to_numpy(zero_copy_only=False)
    sigma = t.column("last").to_numpy(zero_copy_only=False)
    keep = dist < SPCount.INF
    return pa.table(
        {
            "vid": pa.array(
                t.column("vid").to_numpy(zero_copy_only=False)[keep],
                pa.int64(),
            ),
            "dist": pa.array(dist[keep], pa.int64()),
            "n_paths": pa.array(sigma[keep], pa.int64()),
        }
    )


def _spcount_sql(k: int, source: int = 0) -> str:
    """Unrolled BFS with path counting: per round, nd = 1 + min
    neighbor level, ns = Σ σ over neighbors AT that minimum — exactly
    the level-synchronous recurrence of SPCount (all-integer)."""
    inf = 1 << 40
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        f"b0 AS (SELECT vid, CASE WHEN vid = {source} THEN 0 "
        f"ELSE {inf} END AS dist, "
        f"CASE WHEN vid = {source} THEN 1 ELSE 0 END AS sigma FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"m{i} AS MATERIALIZED (SELECT e.dst AS vid, "
            f"MIN(nb.dist) + 1 AS nd FROM e "
            f"JOIN b{i-1} nb ON nb.vid = e.src AND nb.dist < {inf} "
            f"GROUP BY e.dst)"
        )
        ctes.append(
            f"s{i} AS MATERIALIZED (SELECT e.dst AS vid, "
            f"CAST(SUM(nb.sigma) AS BIGINT) AS ns FROM e "
            f"JOIN b{i-1} nb ON nb.vid = e.src "
            f"JOIN m{i} m ON m.vid = e.dst AND nb.dist + 1 = m.nd "
            f"GROUP BY e.dst)"
        )
        ctes.append(
            f"b{i} AS MATERIALIZED (SELECT own.vid, "
            f"CASE WHEN m.nd IS NOT NULL AND m.nd < own.dist "
            f"THEN m.nd ELSE own.dist END AS dist, "
            f"CASE WHEN m.nd IS NOT NULL AND m.nd < own.dist "
            f"THEN s.ns ELSE own.sigma END AS sigma "
            f"FROM b{i-1} own LEFT JOIN m{i} m ON m.vid = own.vid "
            f"LEFT JOIN s{i} s ON s.vid = own.vid)"
        )
    return (
        "WITH "
        + ", ".join(ctes)
        + f" SELECT CAST(vid AS BIGINT) AS vid, CAST(dist AS BIGINT) AS dist, "
        f"sigma AS n_paths FROM b{k} WHERE dist < {inf}"
    )


_TEMPORAL_K = 12


def q_temporal_reachability(sf_dir: str):
    """Earliest-arrival temporal reachability (Wu et al. 2014) over the
    event-derived TEMPORAL edge stream (user → clicked page, departure
    = event timestamp): arr(v) = min t over edges (u,v,t) with
    t ≥ arr(u), from source vertex 0 at t₀ = 0. Monotone min-fold on
    the delta engine with per-edge timestamps as CSR weights
    (algorithms/sssp.py EarliestArrival); integer-microsecond floats
    are exact under 2^53, so the unrolled oracle is bit-exact."""
    import ray.data as rd

    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import EarliestArrival

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def edges(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        src = uid % V_GRAPH
        dst = (eid * 7) % V_GRAPH
        keep = src != dst
        return pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
                "weight": pa.array(ts[keep].astype(np.float64), pa.float64()),
            }
        )

    g = Graph.build(
        ds.map_batches(edges, batch_format="pyarrow"),
        _work_dir(sf_dir, "graph_temporal"),
        num_partitions=_P,
    )
    from signal_collect_ray import EngineConfig
    from signal_collect_ray.engine_resident import ResidentEngine

    eng = ResidentEngine(
        EngineConfig(num_partitions=_P, eps=1e-6, max_supersteps=_TEMPORAL_K)
    )
    info = eng.run(
        g,
        EarliestArrival(0, t0=0.0),
        run_dir=_work_dir(sf_dir, "run_temporal"),
        resume=False,
    )
    t = info.state_table()
    arr = t.column("state").to_numpy(zero_copy_only=False)
    out = [None if not np.isfinite(x) else int(x) for x in arr]
    return pa.table(
        {"vid": t.column("vid"), "arrival_us": pa.array(out, pa.int64())}
    )


def _temporal_sql(k: int, source: int = 0) -> str:
    inf = "1e30"
    ctes = [
        f"e AS MATERIALIZED (SELECT user_id % {V_GRAPH} AS src, "
        f"(event_id * 7) % {V_GRAPH} AS dst, "
        f"CAST(epoch_us(ts) AS DOUBLE) AS t FROM events "
        f"WHERE (user_id % {V_GRAPH}) <> ((event_id * 7) % {V_GRAPH}))",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        f"a0 AS (SELECT vid, CASE WHEN vid = {source} "
        f"THEN CAST(0 AS DOUBLE) ELSE {inf} END AS a FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"a{i} AS MATERIALIZED (SELECT v.vid, LEAST(own.a, "
            f"COALESCE(MIN(CASE WHEN e.t >= nb.a THEN e.t END), {inf})) AS a "
            f"FROM v JOIN a{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN a{i-1} nb ON nb.vid = e.src "
            f"GROUP BY v.vid, own.a)"
        )
    return (
        "WITH "
        + ", ".join(ctes)
        + f" SELECT vid, CASE WHEN a >= 1e29 THEN NULL "
        f"ELSE CAST(a AS BIGINT) END AS arrival_us FROM a{k}"
    )


_LD_TARGET = 7  # page vertex (event_id=1 → 7·1 mod V) — always present
_LD_DEADLINE = float(2**52)  # past any epoch-µs timestamp; exact float


def q_latest_departure(sf_dir: str):
    """Reverse temporal reachability: latest time one can LEAVE each
    vertex and still reach the target page by the (unbounded) deadline
    — the dual of temporal_reachability, a max-fold over REVERSED
    timestamped edges (algorithms/sssp.py LatestDeparture). A crawl /
    influence question: 'until when could a session still have routed
    into this page'. Integer-µs floats exact under 2^53."""
    import ray.data as rd

    from signal_collect_ray import EngineConfig, Graph
    from signal_collect_ray.algorithms import LatestDeparture
    from signal_collect_ray.engine_resident import ResidentEngine

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def rev_edges(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        src = uid % V_GRAPH
        dst = (eid * 7) % V_GRAPH
        keep = src != dst
        # REVERSED: propagation flows target → predecessors
        return pa.table(
            {
                "src": pa.array(dst[keep], pa.int64()),
                "dst": pa.array(src[keep], pa.int64()),
                "weight": pa.array(ts[keep].astype(np.float64), pa.float64()),
            }
        )

    g = Graph.build(
        ds.map_batches(rev_edges, batch_format="pyarrow"),
        _work_dir(sf_dir, "graph_temporal_rev"),
        num_partitions=_P,
    )
    eng = ResidentEngine(
        EngineConfig(num_partitions=_P, eps=1e-6, max_supersteps=_TEMPORAL_K)
    )
    info = eng.run(
        g,
        LatestDeparture(_LD_TARGET, _LD_DEADLINE),
        run_dir=_work_dir(sf_dir, "run_temporal_rev"),
        resume=False,
    )
    t = info.state_table()
    dep = t.column("state").to_numpy(zero_copy_only=False)
    out = [
        None
        if not np.isfinite(x)
        else (None if int(x) == int(_LD_DEADLINE) else int(x))
        for x in dep
    ]
    # the target itself reports NULL (deadline sentinel), like the SQL
    return pa.table(
        {"vid": t.column("vid"), "departure_us": pa.array(out, pa.int64())}
    )


def _latest_departure_sql(k: int, target: int, deadline: float) -> str:
    ninf = "-1e30"
    dl = int(deadline)
    ctes = [
        f"e AS MATERIALIZED (SELECT user_id % {V_GRAPH} AS src, "
        f"(event_id * 7) % {V_GRAPH} AS dst, "
        f"CAST(epoch_us(ts) AS DOUBLE) AS t FROM events "
        f"WHERE (user_id % {V_GRAPH}) <> ((event_id * 7) % {V_GRAPH}))",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        f"a0 AS (SELECT vid, CASE WHEN vid = {target} "
        f"THEN CAST({dl} AS DOUBLE) ELSE {ninf} END AS a FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"a{i} AS MATERIALIZED (SELECT v.vid, GREATEST(own.a, "
            f"COALESCE(MAX(CASE WHEN e.t <= nb.a THEN e.t END), {ninf})) AS a "
            f"FROM v JOIN a{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.src = v.vid "
            f"LEFT JOIN a{i-1} nb ON nb.vid = e.dst "
            f"GROUP BY v.vid, own.a)"
        )
    return (
        "WITH "
        + ", ".join(ctes)
        + f" SELECT vid, CASE WHEN a <= -1e29 OR a >= {dl} THEN NULL "
        f"ELSE CAST(a AS BIGINT) END AS departure_us FROM a{k}"
    )


def q_dedup_keep_best(sf_dir: str):
    """Exact dedup with a QUALITY retention policy: normalized-text
    duplicate groups keep the HIGHEST-quality member (tie → min
    doc_id) instead of blindly the min id — the curation-grade variant
    of doc_dedup_exact. One hash exchange; quality is computed inside
    the same pass (functions/text.py QualityScore)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import _ExactKey
    from signal_collect_ray.functions.text import QualityScore

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    keyed = docs.map_batches(QualityScore(), batch_format="pyarrow").map_batches(
        _ExactKey(), batch_format="pyarrow"
    )

    def best(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        q = np.round(
            tbl.column("quality").to_numpy(zero_copy_only=False), 6
        )
        i = int(np.lexsort((ids, -q))[0])
        return pa.table(
            {
                "doc_id": pa.array([int(ids[i])], pa.int64()),
                "quality": pa.array([float(q[i])], pa.float64()),
            }
        )

    return (
        keyed.groupby("content_hash")
        .map_groups(best, batch_format="pyarrow")
        .select_columns(["doc_id", "quality"])
    )


def q_page_revisit_rate(sf_dir: str):
    """Per-page revisit behavior over the temporal click edges: total
    visits, distinct visitors, and the revisit fraction
    Σ(v_up − 1)/Σ v_up — the engagement-vs-discovery signal a crawler
    uses for recrawl scheduling. Two pre-combined exchanges: (user,
    page) visit counts, then per-page fold."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id"],
    )

    def pair_counts(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        page = (eid * 7) % V_GRAPH
        user = uid % V_GRAPH
        keep = user != page
        code = user[keep] * np.int64(V_GRAPH) + page[keep]
        uc, n = np.unique(code, return_counts=True)
        return pa.table(
            {
                "user": pa.array(uc // V_GRAPH, pa.int64()),
                "page": pa.array(uc % V_GRAPH, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(pair_counts, batch_format="pyarrow")
        .groupby(["user", "page"])
        .aggregate(Sum("n", alias_name="n"))
    )

    from signal_collect_ray.util import segment_starts

    def per_page(tbl: pa.Table) -> pa.Table:
        page = tbl.column("page").to_numpy(zero_copy_only=False)
        n = tbl.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(page, kind="stable")
        page, n = page[order], n[order]
        starts = segment_starts(page)
        visits = np.add.reduceat(n, starts)
        visitors = np.diff(np.append(starts, len(page)))
        revisits = visits - visitors
        return pa.table(
            {
                "page": pa.array(page[starts], pa.int64()),
                "visits": pa.array(visits.astype(np.int64), pa.int64()),
                "visitors": pa.array(visitors.astype(np.int64), pa.int64()),
                "revisit_rate": pa.array(
                    _round_half_away(revisits / visits, 6), pa.float64()
                ),
            }
        )

    from signal_collect_ray.util import part_of as part_of_np

    def shard(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "ppart",
            pa.array(
                part_of_np(tbl.column("page").to_numpy(zero_copy_only=False), 16),
                pa.int32(),
            ),
        )

    return (
        pairs.map_batches(shard, batch_format="pyarrow")
        .groupby("ppart")
        .map_groups(per_page, batch_format="pyarrow")
    )


_REVISIT_SQL = f"""
WITH p AS (SELECT user_id % {V_GRAPH} AS u, (event_id * 7) % {V_GRAPH} AS pg,
           COUNT(*) AS n FROM events
           WHERE (user_id % {V_GRAPH}) <> ((event_id * 7) % {V_GRAPH})
           GROUP BY 1, 2)
SELECT pg AS page, CAST(SUM(n) AS BIGINT) AS visits,
       CAST(COUNT(*) AS BIGINT) AS visitors,
       ROUND((SUM(n) - COUNT(*)) * 1.0 / SUM(n), 6) AS revisit_rate
FROM p GROUP BY pg
"""


def q_user_burstiness(sf_dir: str):
    """Goh-Barabási burstiness coefficient B = (σ−μ)/(σ+μ) of each
    user's inter-event gaps (≥ 3 events ⇒ ≥ 2 gaps): B → −1 periodic,
    0 Poisson, → 1 bursty. Gap moments are EXACT integers (Python-int
    Σg and Σg² per user, immune to the 2^63 overflow of µs²), cast to
    double once — the same expression the oracle computes from HUGEINT
    sums, so both sides round identically."""
    import ray.data as rd

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def keyed(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": pa.array(
                    part_of(
                        tbl.column("user_id").to_numpy(zero_copy_only=False),
                        16,
                    ),
                    pa.int32(),
                ),
                "user_id": tbl.column("user_id"),
                "ts_us": pa.array(
                    tbl.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.int64(),
                ),
                "event_id": tbl.column("event_id"),
            }
        )

    from signal_collect_ray.util import segment_starts

    def burst(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts_us").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t = uid[order], ts[order]
        same = u[1:] == u[:-1]
        gu, g = u[1:][same], (t[1:] - t[:-1])[same]
        starts = segment_starts(gu)
        ends = np.append(starts[1:], len(gu))
        users, bs = [], []
        for a, b in zip(starts, ends):
            if b - a < 2:
                continue
            gaps = [int(x) for x in g[a:b]]
            n = len(gaps)
            s1, s2 = sum(gaps), sum(x * x for x in gaps)
            m = s1 / n
            var = s2 / n - m * m
            sd = float(np.sqrt(max(var, 0.0)))
            users.append(int(gu[a]))
            bs.append(round((sd - m) / (sd + m), 6) if sd + m > 0 else 0.0)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "burstiness": pa.array(bs, pa.float64()),
            }
        )

    return (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby("part")
        .map_groups(burst, batch_format="pyarrow")
    )


_BURSTINESS_SQL = """
WITH s AS (SELECT user_id, ts,
           LEAD(epoch_us(ts)) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id)
           - epoch_us(ts) AS gap FROM events),
g AS (SELECT user_id, gap FROM s WHERE gap IS NOT NULL),
m AS (SELECT user_id, COUNT(*) AS n, SUM(gap) AS s1,
      SUM(CAST(gap AS HUGEINT) * gap) AS s2 FROM g GROUP BY user_id HAVING COUNT(*) >= 2),
x AS (SELECT user_id, CAST(s1 AS DOUBLE) / n AS mu,
      SQRT(GREATEST(CAST(s2 AS DOUBLE) / n
           - (CAST(s1 AS DOUBLE) / n) * (CAST(s1 AS DOUBLE) / n), 0)) AS sd
      FROM m)
SELECT user_id, CASE WHEN sd + mu > 0
       THEN ROUND((sd - mu) / (sd + mu), 6) ELSE 0.0 END AS burstiness
FROM x
"""


_MIX_TARGET = 10_000


def q_mixture_allocation(sf_dir: str):
    """Hamilton (largest-remainder) apportionment of a fixed sample
    budget across language buckets by document counts — the integer
    allocation step a mixture builder runs after choosing weights:
    base = ⌊N·c/C⌋ exactly (integer division), the N − Σbase leftover
    seats go to the largest remainders N·c mod C (tie → lang order).
    All-integer, bit-exact; the distributed part is the count groupby."""
    import ray.data as rd
    from ray.data.aggregate import Count

    counts = (
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["lang"]
        )
        .groupby("lang")
        .count()
        .take_all()
    )
    langs = sorted(r["lang"] for r in counts)
    c = {r["lang"]: int(r["count()"]) for r in counts}
    total = sum(c.values())
    base = {l: (_MIX_TARGET * c[l]) // total for l in langs}
    rem = {l: (_MIX_TARGET * c[l]) % total for l in langs}
    left = _MIX_TARGET - sum(base.values())
    for l in sorted(langs, key=lambda l: (-rem[l], l))[:left]:
        base[l] += 1
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "docs": pa.array([c[l] for l in langs], pa.int64()),
            "alloc": pa.array([base[l] for l in langs], pa.int64()),
        }
    )


_MIX_ALLOC_SQL = f"""
WITH c AS (SELECT lang, COUNT(*) AS docs FROM documents GROUP BY lang),
t AS (SELECT SUM(docs) AS total FROM c),
q AS (SELECT lang, docs, ({_MIX_TARGET} * docs) // t.total AS base,
      ({_MIX_TARGET} * docs) % t.total AS rem FROM c, t),
l AS (SELECT {_MIX_TARGET} - SUM(base) AS left_ FROM q),
r AS (SELECT lang, docs, base, rem,
      ROW_NUMBER() OVER (ORDER BY rem DESC, lang) AS rk FROM q)
SELECT lang, CAST(docs AS BIGINT) AS docs,
       CAST(base + CASE WHEN rk <= l.left_ THEN 1 ELSE 0 END AS BIGINT)
       AS alloc
FROM r, l
"""


def q_widest_path_from0(sf_dir: str):
    """Maximum-bottleneck ('widest') path capacity from vertex 0 over
    the multiplicity-weighted graph — the (max, min) semiring on the
    delta engine (algorithms/sssp.py WidestPath, dense max fast path).
    Integer weights exact in float64; unreachable → NULL."""
    from signal_collect_ray import EngineConfig, Graph
    from signal_collect_ray.algorithms import WidestPath
    from signal_collect_ray.engine_resident import ResidentEngine

    g = _graph_weighted(sf_dir)
    eng = ResidentEngine(
        EngineConfig(num_partitions=_P, eps=1e-9, max_supersteps=_BFS_K)
    )
    info = eng.run(
        g,
        WidestPath(0),
        run_dir=_work_dir(sf_dir, "run_widest"),
        resume=False,
    )
    t = info.state_table()
    cap = t.column("state").to_numpy(zero_copy_only=False)
    out = [
        None if not np.isfinite(x) else float(x) for x in cap
    ]
    return pa.table(
        {"vid": t.column("vid"), "capacity": pa.array(out, pa.float64())}
    )


def _widest_sql(k: int, source: int = 0) -> str:
    ninf = "-1e18"
    ctes = [
        f"e AS MATERIALIZED ({_EW_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        f"c0 AS (SELECT vid, CASE WHEN vid = {source} "
        f"THEN CAST(1e18 AS DOUBLE) ELSE {ninf} END AS c FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"c{i} AS MATERIALIZED (SELECT v.vid, GREATEST(own.c, "
            f"COALESCE(MAX(LEAST(nb.c, e.weight)), {ninf})) AS c "
            f"FROM v JOIN c{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN c{i-1} nb ON nb.vid = e.src "
            f"GROUP BY v.vid, own.c)"
        )
    return (
        "WITH "
        + ", ".join(ctes)
        + f" SELECT vid, CASE WHEN c <= -1e17 THEN NULL "
        f"WHEN c >= 1e17 THEN NULL ELSE c END AS capacity FROM c{k}"
    )


def q_conversion_latency(sf_dir: str):
    """Per-user signup→purchase conversion latency (first signup to
    first purchase AFTER it): min-fold per (user, type) in one
    pre-combined exchange, then a tiny per-user join. Users who never
    convert are absent. All-integer microseconds."""
    import ray.data as rd
    from ray.data.aggregate import Min

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )

    def keyed(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        keep = (et == "signup") | (et == "purchase")
        sub = tbl.filter(pa.array(keep))
        return pa.table(
            {
                "user_id": sub.column("user_id"),
                "event_type": sub.column("event_type"),
                "ts_us": pa.array(
                    sub.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.int64(),
                ),
            }
        )

    firsts = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Min("ts_us", alias_name="first_us"))
        .take_all()
    )
    sign = {}
    for r in firsts:
        if r["event_type"] == "signup":
            sign[int(r["user_id"])] = int(r["first_us"])
    # first purchase AT/AFTER the first signup needs a second bounded
    # pass (the global min purchase may precede signup)
    sref = sign

    def purch_after(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = et == "purchase"
        uid, ts = uid[keep], ts[keep]
        ok = np.array(
            [u in sref and t >= sref[u] for u, t in zip(uid, ts)], dtype=bool
        )
        return pa.table(
            {
                "user_id": pa.array(uid[ok], pa.int64()),
                "ts_us": pa.array(ts[ok], pa.int64()),
            }
        )

    purch = (
        ds.map_batches(purch_after, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("ts_us", alias_name="first_purchase"))
        .take_all()
    )
    rows = sorted(
        (int(r["user_id"]), int(r["first_purchase"]) - sign[int(r["user_id"])])
        for r in purch
    )
    return pa.table(
        {
            "user_id": pa.array([u for u, _ in rows], pa.int64()),
            "latency_us": pa.array([l for _, l in rows], pa.int64()),
        }
    )


_CONVERSION_SQL = """
WITH s AS (SELECT user_id, MIN(epoch_us(ts)) AS t0 FROM events
           WHERE event_type = 'signup' GROUP BY user_id),
p AS (SELECT e.user_id, MIN(epoch_us(e.ts)) AS t1 FROM events e
      JOIN s ON s.user_id = e.user_id
      WHERE e.event_type = 'purchase' AND epoch_us(e.ts) >= s.t0
      GROUP BY e.user_id)
SELECT s.user_id, CAST(p.t1 - s.t0 AS BIGINT) AS latency_us
FROM s JOIN p USING (user_id)
"""


def q_degree_powerlaw_alpha(sf_dir: str):
    """Hill maximum-likelihood power-law exponent of the in-degree
    distribution: α = 1 + n / Σ ln(d / d_min) over vertices with
    in-degree ≥ d_min = 2 (ln of the 1-degree mass is 0 and carries no
    information, so the standard estimator conditions on d ≥ d_min).
    Per-block partial (n, Σln) fold — one tiny exchange."""
    ds = q_in_degrees(sf_dir)

    def partial(tbl: pa.Table) -> pa.Table:
        d = tbl.column("in_degree").to_numpy(zero_copy_only=False)
        d = d[d >= 2]
        return pa.table(
            {
                "n": pa.array([int(len(d))], pa.int64()),
                "s": pa.array(
                    [float(np.log(d / 2.0).sum())], pa.float64()
                ),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(int(r["n"]) for r in rows)
    s = sum(float(r["s"]) for r in rows)
    alpha = 1.0 + n / s if s > 0 else float("nan")
    return pa.table(
        {
            "n_tail": pa.array([n], pa.int64()),
            "alpha": pa.array([round(alpha, 6)], pa.float64()),
        }
    )


_POWERLAW_SQL = f"""
WITH e AS ({_E_SQL}),
d AS (SELECT dst, COUNT(*) AS deg FROM e GROUP BY dst),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, SUM(LN(deg / 2.0)) AS s
      FROM d WHERE deg >= 2)
SELECT n AS n_tail, ROUND(1.0 + n / s, 6) AS alpha FROM t
"""


def q_weekly_novel_ngrams(sf_dir: str):
    """Corpus novelty over time: how many distinct word 5-grams are
    FIRST SEEN in each week of the event stream — the
    freshness-vs-repetition signal a continuously-crawled corpus is
    monitored by. Documents are assigned to weeks round-robin by
    doc_id (the synthetic docs carry no timestamp; the assignment is
    deterministic and mirrored), 5-grams hash through the same
    min-week groupby a 100-TB run would use — except the oracle keeps
    the strings, so the Ray side does too (hashing is the documented
    sketch path)."""
    import ray.data as rd
    from ray.data.aggregate import Min

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def grams(tbl: pa.Table) -> pa.Table:
        import re as _re

        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        out_g, out_w = [], []
        for i, t in enumerate(tbl.column("text").to_pylist()):
            words = _re.findall(r"[^ \t\n\f\r]+", (t or "").lower())
            week = int(ids[i]) % 8
            seen = {
                " ".join(words[j : j + 5])
                for j in range(len(words) - 4)
            }
            out_g.extend(seen)
            out_w.extend([week] * len(seen))
        return pa.table(
            {
                "ng": pa.array(out_g, pa.string()),
                "week": pa.array(out_w, pa.int64()),
            }
        )

    first = (
        docs.map_batches(grams, batch_format="pyarrow")
        .groupby("ng")
        .aggregate(Min("week", alias_name="first_week"))
    )

    def count_week(tbl: pa.Table) -> pa.Table:
        w = tbl.column("first_week").to_numpy(zero_copy_only=False)
        uc, n = np.unique(w, return_counts=True)
        return pa.table(
            {
                "week": pa.array(uc, pa.int64()),
                "novel_ngrams": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    rows = (
        first.map_batches(count_week, batch_format="pyarrow")
        .groupby("week")
        .aggregate(Sum("novel_ngrams", alias_name="novel_ngrams"))
        .take_all()
    )
    rows.sort(key=lambda r: int(r["week"]))
    return pa.table(
        {
            "week": pa.array([int(r["week"]) for r in rows], pa.int64()),
            "novel_ngrams": pa.array(
                [int(r["novel_ngrams"]) for r in rows], pa.int64()
            ),
        }
    )


_NOVEL_SQL = """
WITH w AS (SELECT doc_id, doc_id % 8 AS week,
           regexp_extract_all(lower(COALESCE(text, '')), '\\S+') AS ws
           FROM documents),
g AS (SELECT DISTINCT week, doc_id,
      array_to_string(ws[i.i : i.i + 4], ' ') AS ng
      FROM w, LATERAL (SELECT unnest(range(1, len(ws) - 3)) AS i) i
      WHERE len(ws) >= 5),
f AS (SELECT ng, MIN(week) AS first_week FROM g GROUP BY ng)
SELECT first_week AS week, CAST(COUNT(*) AS BIGINT) AS novel_ngrams
FROM f GROUP BY first_week
"""


def q_value_emd(sf_dir: str):
    """EXACT 1-D earth mover's distance between the click and view
    value distributions: in one dimension EMD(F, G) = ∫|F − G| dx,
    computed over the merged cent-histogram support with CDFs
    cross-scaled to integers (|F1·n2 − F2·n1| × gap stays integral
    until one final division) — the distribution-shift test with zero
    float drift. One (type, cents) pre-combined exchange."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
    )

    def hist(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        keep = (et == "click") | (et == "view")
        cents = _round_half_away(
            tbl.column("value").to_numpy(zero_copy_only=False)[keep] * 100.0,
            0,
        ).astype(np.int64)
        is_click = (et[keep] == "click").astype(np.int64)
        code = cents * 2 + is_click
        uc, n = np.unique(code, return_counts=True)
        return pa.table(
            {
                "cents": pa.array(uc // 2, pa.int64()),
                "is_click": pa.array(uc % 2, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(["cents", "is_click"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    h = {}
    for r in rows:
        c = h.setdefault(int(r["cents"]), [0, 0])
        c[int(r["is_click"])] = int(r["n"])
    xs = sorted(h)
    n_view = sum(v for v, _ in h.values())
    n_click = sum(c for _, c in h.values())
    f1 = f2 = 0  # running counts (CDF numerators)
    emd_scaled = 0  # Σ |F1·n2 − F2·n1| · gap, exact int
    for i, x in enumerate(xs):
        if i > 0:
            emd_scaled += abs(f1 * n_view - f2 * n_click) * (x - xs[i - 1])
        f1 += h[x][1]  # click
        f2 += h[x][0]  # view
    emd = float(
        _round_half_away(
            np.array([emd_scaled / (n_click * n_view) / 100.0]), 6
        )[0]
    )
    return pa.table(
        {
            "n_click": pa.array([n_click], pa.int64()),
            "n_view": pa.array([n_view], pa.int64()),
            "emd_value": pa.array([emd], pa.float64()),
        }
    )


_EMD_SQL = """
WITH h AS (SELECT CAST(ROUND(value * 100, 0) AS BIGINT) AS cents,
           SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS nc,
           SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS nv
           FROM events WHERE event_type IN ('click', 'view')
           GROUP BY 1),
t AS (SELECT CAST(SUM(nc) AS HUGEINT) AS n_click,
      CAST(SUM(nv) AS HUGEINT) AS n_view FROM h),
c AS (SELECT cents,
      CAST(SUM(nc) OVER (ORDER BY cents ROWS UNBOUNDED PRECEDING)
        AS HUGEINT) AS f1,
      CAST(SUM(nv) OVER (ORDER BY cents ROWS UNBOUNDED PRECEDING)
        AS HUGEINT) AS f2,
      LEAD(cents) OVER (ORDER BY cents) AS nxt FROM h),
s AS (SELECT SUM(ABS(f1 * t.n_view - f2 * t.n_click)
      * (nxt - cents)) AS es FROM c, t WHERE nxt IS NOT NULL)
SELECT CAST(t.n_click AS BIGINT) AS n_click,
       CAST(t.n_view AS BIGINT) AS n_view,
       ROUND(CAST(s.es AS DOUBLE)
             / CAST(t.n_click * t.n_view AS DOUBLE) / 100.0, 6)
       AS emd_value
FROM s, t
"""


_PERM_B = 64


def q_permutation_pvalue(sf_dir: str):
    """Randomization test for the click-vs-view mean-value difference:
    B = 64 replicates reassign each event's group by the deterministic
    mix64 coin (bit 0 of the HLL-mirrored hash of event_id·1000 + b),
    and the two-sided p-value counts replicates whose |Δmean| reaches
    the observed one — compared EXACTLY by cross-multiplying the
    integer-sum rationals |s1·n0 − s0·n1|·(m1·m0) vs |t1·m0 − t0·m1|·
    (n1·n0) in unbounded ints, so no float enters the decision. One
    (replicate, group) partial-sum exchange."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.util import mix64

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        keep = (et == "click") | (et == "view")
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)[keep]
        cents = _round_half_away(
            tbl.column("value").to_numpy(zero_copy_only=False)[keep] * 100.0,
            0,
        ).astype(np.int64)
        is_click = (et[keep] == "click").astype(np.int64)
        bs, gs, ns, ss = [], [], [], []
        # b = 0 row carries the OBSERVED grouping
        for b in range(_PERM_B + 1):
            if b == 0:
                grp = is_click
            else:
                h = mix64((eid * 1000 + b).astype(np.uint64))
                grp = (h & np.uint64(1)).astype(np.int64)
            for g in (0, 1):
                sel = grp == g
                bs.append(b)
                gs.append(g)
                ns.append(int(sel.sum()))
                ss.append(int(cents[sel].sum()))
        return pa.table(
            {
                "b": pa.array(bs, pa.int64()),
                "g": pa.array(gs, pa.int64()),
                "n": pa.array(ns, pa.int64()),
                "s": pa.array(ss, pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["b", "g"])
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
        .take_all()
    )
    agg: Dict[int, dict] = {}
    for r in rows:
        agg.setdefault(int(r["b"]), {})[int(r["g"])] = (
            int(r["n"]),
            int(r["s"]),
        )
    n0, s0 = agg[0][0]
    n1, s1 = agg[0][1]
    # observed |Δ| = |s1/n1 − s0/n0| = |s1·n0 − s0·n1| / (n1·n0)
    obs_num = abs(s1 * n0 - s0 * n1)
    obs_den = n1 * n0
    hits = 0
    for b in range(1, _PERM_B + 1):
        m0, t0 = agg[b].get(0, (0, 0))
        m1, t1 = agg[b].get(1, (0, 0))
        if m0 == 0 or m1 == 0:
            hits += 1
            continue
        num = abs(t1 * m0 - t0 * m1)
        den = m1 * m0
        # num/den >= obs_num/obs_den  ⇔  num·obs_den >= obs_num·den
        if num * obs_den >= obs_num * den:
            hits += 1
    return pa.table(
        {
            "observed_diff": pa.array(
                [
                    float(
                        _round_half_away(
                            np.array([(s1 / n1 - s0 / n0) / 100.0]), 6
                        )[0]
                    )
                ],
                pa.float64(),
            ),
            "n_exceeding": pa.array([hits], pa.int64()),
            "p_value": pa.array(
                [
                    float(
                        _round_half_away(np.array([hits / _PERM_B]), 6)[0]
                    )
                ],
                pa.float64(),
            ),
        }
    )


def _permutation_sql() -> str:
    mix1 = _mix64_mul_sql("x", 0xFF51AFD7ED558CCD)
    mix2 = _mix64_mul_sql("x", 0xC4CEB9FE1A85EC53)
    return f"""
WITH e AS (SELECT event_id, CAST(ROUND(value * 100, 0) AS BIGINT) AS cents,
           CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS obs
           FROM events WHERE event_type IN ('click', 'view')),
g AS (SELECT event_id, cents, obs,
      CAST(event_id * 1000 + b.b AS UBIGINT) AS x, b.b AS b
      FROM e, LATERAL (SELECT unnest(range(1, {_PERM_B + 1})) AS b) b),
h1 AS (SELECT b, cents, xor(x, x >> 33) AS x FROM g),
h2 AS (SELECT b, cents, {mix1} AS x FROM h1),
h3 AS (SELECT b, cents, xor(x, x >> 33) AS x FROM h2),
h4 AS (SELECT b, cents, {mix2} AS x FROM h3),
h5 AS (SELECT b, cents,
       CAST(xor(x, x >> 33) & 1 AS BIGINT) AS grp FROM h4),
obs AS (SELECT
  CAST(SUM(CASE WHEN obs = 0 THEN 1 ELSE 0 END) AS HUGEINT) AS n0,
  CAST(SUM(CASE WHEN obs = 0 THEN cents ELSE 0 END) AS HUGEINT) AS s0,
  CAST(SUM(CASE WHEN obs = 1 THEN 1 ELSE 0 END) AS HUGEINT) AS n1,
  CAST(SUM(CASE WHEN obs = 1 THEN cents ELSE 0 END) AS HUGEINT) AS s1
  FROM e),
rep AS (SELECT b,
  CAST(SUM(CASE WHEN grp = 0 THEN 1 ELSE 0 END) AS HUGEINT) AS m0,
  CAST(SUM(CASE WHEN grp = 0 THEN cents ELSE 0 END) AS HUGEINT) AS t0,
  CAST(SUM(CASE WHEN grp = 1 THEN 1 ELSE 0 END) AS HUGEINT) AS m1,
  CAST(SUM(CASE WHEN grp = 1 THEN cents ELSE 0 END) AS HUGEINT) AS t1
  FROM h5 GROUP BY b),
hits AS (SELECT CAST(SUM(CASE WHEN rep.m0 = 0 OR rep.m1 = 0 THEN 1
  WHEN ABS(rep.t1 * rep.m0 - rep.t0 * rep.m1) * (obs.n1 * obs.n0)
    >= ABS(obs.s1 * obs.n0 - obs.s0 * obs.n1) * (rep.m1 * rep.m0)
  THEN 1 ELSE 0 END) AS BIGINT) AS k FROM rep, obs)
SELECT ROUND((CAST(obs.s1 AS DOUBLE) / CAST(obs.n1 AS DOUBLE)
        - CAST(obs.s0 AS DOUBLE) / CAST(obs.n0 AS DOUBLE)) / 100.0, 6)
       AS observed_diff,
       hits.k AS n_exceeding,
       ROUND(hits.k * 1.0 / {_PERM_B}, 6) AS p_value
FROM obs, hits
"""


def q_capture_recapture(sf_dir: str):
    """Lincoln-Petersen capture-recapture estimate of the total user
    population from two temporal 'captures' (users active in the first
    vs second half of the event window): N̂ = n1·n2/m where m is the
    overlap — the ecology estimator reused for deduplicated-population
    sizing when full enumeration is impractical. Exact integer counts
    from one (user, half) exchange; the estimate is one division."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )
    lohi = ds.map_batches(
        lambda tbl: pa.table(
            {
                "lo": pa.array(
                    [int(tbl.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False).min())], pa.int64()
                ),
                "hi": pa.array(
                    [int(tbl.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False).max())], pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    lo = int(lohi.aggregate(Min("lo", alias_name="v"))["v"])
    hi = int(
        ds.map_batches(
            lambda tbl: pa.table(
                {
                    "hi": pa.array(
                        [int(tbl.column("ts").cast(pa.int64()).to_numpy(
                            zero_copy_only=False).max())], pa.int64()
                    )
                }
            ),
            batch_format="pyarrow",
        ).aggregate(Max("hi", alias_name="v"))["v"]
    )
    mid = (lo + hi) // 2

    def halves(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        h = (ts > mid).astype(np.int64)
        code = uid * 2 + h
        uc = np.unique(code)
        return pa.table(
            {
                "user_id": pa.array(uc // 2, pa.int64()),
                "half": pa.array(uc % 2, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    rows = (
        ds.map_batches(halves, batch_format="pyarrow")
        .groupby(["user_id", "half"])
        .count()
        .take_all()
    )
    seen: Dict[int, set] = {}
    for r in rows:
        seen.setdefault(int(r["user_id"]), set()).add(int(r["half"]))
    n1 = sum(1 for s in seen.values() if 0 in s)
    n2 = sum(1 for s in seen.values() if 1 in s)
    m = sum(1 for s in seen.values() if len(s) == 2)
    est = (
        float(_round_half_away(np.array([n1 * n2 / m]), 6)[0]) if m else 0.0
    )
    return pa.table(
        {
            "n_first_half": pa.array([n1], pa.int64()),
            "n_second_half": pa.array([n2], pa.int64()),
            "n_both": pa.array([m], pa.int64()),
            "estimated_population": pa.array([est], pa.float64()),
        }
    )


_CAPTURE_SQL = """
WITH t AS (SELECT (MIN(epoch_us(ts)) + MAX(epoch_us(ts))) // 2 AS mid
           FROM events),
u AS (SELECT DISTINCT user_id,
      CASE WHEN epoch_us(ts) > t.mid THEN 1 ELSE 0 END AS half
      FROM events, t),
c AS (SELECT
      CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
      CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n2
      FROM u),
m AS (SELECT CAST(COUNT(*) AS BIGINT) AS m FROM
      (SELECT user_id FROM u GROUP BY user_id HAVING COUNT(*) = 2))
SELECT c.n1 AS n_first_half, c.n2 AS n_second_half, m.m AS n_both,
       CASE WHEN m.m = 0 THEN 0.0
            ELSE ROUND(c.n1 * c.n2 * 1.0 / m.m, 6) END
       AS estimated_population
FROM c, m
"""


_BOOT_B = 50
# Poisson(1) inverse-CDF thresholds (cumulative pmf), written as the
# SAME literals on both sides so the weight branch is bit-identical
_POIS_CUM = (
    0.36787944117144233,
    0.7357588823428847,
    0.9196986029286058,
    0.9810118431238462,
    0.9963401531726563,
    0.9994058151824183,
    0.9999167588507119,
)


def q_bootstrap_mean_ci(sf_dir: str):
    """Deterministic Poissonized bootstrap 95% CI for the mean event
    value (Efron; the online/streaming bootstrap of Oza & Russell):
    each row's weight in replicate b is Poisson(1) drawn by inverting
    the exact dyadic uniform mix64(event_id·1000 + b) >> 11 / 2^53 —
    the same splitmix64 the HLL oracles already mirror bit-exactly —
    so every replicate mean is a ratio of exact integer sums. One
    pre-combined (replicate) exchange of B partial-sum rows per block;
    CI = 2nd / 49th order statistics of the 50 replicate means."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.util import mix64

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "value"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        cents = _round_half_away(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        bs, sw, swx = [], [], []
        for b in range(1, _BOOT_B + 1):
            h = mix64((eid * 1000 + b).astype(np.uint64))
            u = (h >> np.uint64(11)).astype(np.float64) / 9007199254740992.0
            w = np.zeros(len(u), dtype=np.int64)
            acc = np.zeros(len(u), dtype=bool)
            for k, c in enumerate(_POIS_CUM):
                hit = (~acc) & (u < c)
                w[hit] = k
                acc |= hit
            w[~acc] = len(_POIS_CUM)
            bs.append(b)
            sw.append(int(w.sum()))
            swx.append(int((w * cents).sum()))
        return pa.table(
            {
                "b": pa.array(bs, pa.int64()),
                "sw": pa.array(sw, pa.int64()),
                "swx": pa.array(swx, pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("b")
        .aggregate(Sum("sw", alias_name="sw"), Sum("swx", alias_name="swx"))
        .take_all()
    )
    means = sorted(
        float(
            _round_half_away(
                np.array([int(r["swx"]) / int(r["sw"]) / 100.0]), 6
            )[0]
        )
        for r in rows
    )
    return pa.table(
        {
            "ci_lo": pa.array([means[1]], pa.float64()),
            "ci_hi": pa.array([means[_BOOT_B - 2]], pa.float64()),
            "n_replicates": pa.array([len(means)], pa.int64()),
        }
    )


def _bootstrap_sql() -> str:
    mix1 = _mix64_mul_sql("x", 0xFF51AFD7ED558CCD)
    mix2 = _mix64_mul_sql("x", 0xC4CEB9FE1A85EC53)
    cum = _POIS_CUM
    w_case = (
        "CASE "
        + " ".join(
            f"WHEN u < {c!r} THEN {k}" for k, c in enumerate(cum)
        )
        + f" ELSE {len(cum)} END"
    )
    return f"""
WITH g AS (SELECT CAST(event_id * 1000 + b.b AS UBIGINT) AS x, b.b AS b,
           CAST(ROUND(value * 100, 0) AS BIGINT) AS cents
           FROM events, LATERAL (SELECT unnest(range(1, {_BOOT_B + 1}))
           AS b) b),
h1 AS (SELECT b, cents, xor(x, x >> 33) AS x FROM g),
h2 AS (SELECT b, cents, {mix1} AS x FROM h1),
h3 AS (SELECT b, cents, xor(x, x >> 33) AS x FROM h2),
h4 AS (SELECT b, cents, {mix2} AS x FROM h3),
h5 AS (SELECT b, cents, xor(x, x >> 33) AS x FROM h4),
u AS (SELECT b, cents,
      CAST(x >> 11 AS DOUBLE) / 9007199254740992.0 AS u FROM h5),
w AS (SELECT b, cents, {w_case} AS w FROM u),
m AS (SELECT b, ROUND(CAST(SUM(CAST(w AS HUGEINT) * cents) AS DOUBLE)
      / CAST(SUM(w) AS DOUBLE) / 100.0, 6) AS mean
      FROM w GROUP BY b),
o AS (SELECT mean, ROW_NUMBER() OVER (ORDER BY mean) AS rn FROM m)
SELECT (SELECT mean FROM o WHERE rn = 2) AS ci_lo,
       (SELECT mean FROM o WHERE rn = {_BOOT_B - 1}) AS ci_hi,
       CAST({_BOOT_B} AS BIGINT) AS n_replicates
"""


def q_benford_deviation(sf_dir: str):
    """Benford's-law forensic check on order totals: observed leading-
    digit frequencies vs log10(1 + 1/d), per-digit counts (exact ints,
    one tiny fold) and the mean absolute deviation statistic — the
    fabricated-data screen auditors run. Digit extraction via string
    of the cent amount (identical on both sides); only the final
    probabilities are float."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_totalprice"]
    )

    def digits(tbl: pa.Table) -> pa.Table:
        cents = np.round(
            tbl.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        first = np.array([int(str(c)[0]) for c in cents], dtype=np.int64)
        keep = first >= 1
        uc, n = np.unique(first[keep], return_counts=True)
        return pa.table(
            {
                "digit": pa.array(uc, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(digits, batch_format="pyarrow")
        .groupby("digit")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    cnt = {int(r["digit"]): int(r["n"]) for r in rows}
    total = sum(cnt.values())
    ds_, obs, exp, dev = [], [], [], []
    for d in range(1, 10):
        o = cnt.get(d, 0) / total
        e = float(np.log10(1.0 + 1.0 / d))
        ds_.append(d)
        obs.append(float(_round_half_away(np.array([o]), 6)[0]))
        exp.append(float(_round_half_away(np.array([e]), 6)[0]))
        dev.append(float(_round_half_away(np.array([abs(o - e)]), 6)[0]))
    return pa.table(
        {
            "digit": pa.array(ds_, pa.int64()),
            "observed": pa.array(obs, pa.float64()),
            "benford": pa.array(exp, pa.float64()),
            "abs_dev": pa.array(dev, pa.float64()),
        }
    )


_BENFORD_SQL = """
WITH c AS (SELECT CAST(substr(CAST(CAST(ROUND(o_totalprice * 100, 0)
           AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT) AS digit
           FROM orders),
n AS (SELECT digit, COUNT(*) AS n FROM c WHERE digit >= 1 GROUP BY digit),
t AS (SELECT SUM(n) AS total FROM n),
d AS (SELECT unnest(range(1, 10)) AS digit)
SELECT d.digit,
       ROUND(COALESCE(n.n, 0) * 1.0 / t.total, 6) AS observed,
       ROUND(LOG10(1.0 + 1.0 / d.digit), 6) AS benford,
       ROUND(ABS(COALESCE(n.n, 0) * 1.0 / t.total
             - LOG10(1.0 + 1.0 / d.digit)), 6) AS abs_dev
FROM d LEFT JOIN n ON n.digit = d.digit, t
"""


def q_value_ks(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov statistic between the click and
    view value distributions: D = max_x |F1(x) − F2(x)| over the merged
    cent support, cross-scaled to integers (|F1·n2 − F2·n1| compared
    exactly; the division happens once at the end), plus the smallest
    cent location achieving the max. Same single histogram exchange as
    value_emd."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
    )

    def hist(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        keep = (et == "click") | (et == "view")
        cents = _round_half_away(
            tbl.column("value").to_numpy(zero_copy_only=False)[keep] * 100.0,
            0,
        ).astype(np.int64)
        is_click = (et[keep] == "click").astype(np.int64)
        code = cents * 2 + is_click
        uc, n = np.unique(code, return_counts=True)
        return pa.table(
            {
                "cents": pa.array(uc // 2, pa.int64()),
                "is_click": pa.array(uc % 2, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(["cents", "is_click"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    h: Dict[int, list] = {}
    for r in rows:
        c = h.setdefault(int(r["cents"]), [0, 0])
        c[int(r["is_click"])] = int(r["n"])
    xs = sorted(h)
    n_view = sum(v for v, _ in h.values())
    n_click = sum(c for _, c in h.values())
    f1 = f2 = 0
    best = (-1, None)  # (scaled gap, cents)
    for x in xs:
        f1 += h[x][1]
        f2 += h[x][0]
        gap = abs(f1 * n_view - f2 * n_click)
        if gap > best[0]:
            best = (gap, x)
    d = float(_round_half_away(np.array([best[0] / (n_click * n_view)]), 6)[0])
    return pa.table(
        {
            "ks_d": pa.array([d], pa.float64()),
            "at_value": pa.array(
                [round(best[1] / 100.0, 6)], pa.float64()
            ),
        }
    )


_KS_SQL = """
WITH h AS (SELECT CAST(ROUND(value * 100, 0) AS BIGINT) AS cents,
           SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS nc,
           SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS nv
           FROM events WHERE event_type IN ('click', 'view')
           GROUP BY 1),
t AS (SELECT CAST(SUM(nc) AS HUGEINT) AS n_click,
      CAST(SUM(nv) AS HUGEINT) AS n_view FROM h),
c AS (SELECT cents,
      ABS(CAST(SUM(nc) OVER (ORDER BY cents ROWS UNBOUNDED PRECEDING)
          AS HUGEINT) * t.n_view
        - CAST(SUM(nv) OVER (ORDER BY cents ROWS UNBOUNDED PRECEDING)
          AS HUGEINT) * t.n_click) AS gap,
      t.n_click * t.n_view AS denom FROM h, t)
SELECT ROUND(CAST(gap AS DOUBLE) / CAST(denom AS DOUBLE), 6) AS ks_d,
       ROUND(cents / 100.0, 6) AS at_value
FROM c ORDER BY gap DESC, cents LIMIT 1
"""


def q_embedding_auc(sf_dir: str):
    """ROC AUC of 'cosine similarity to the label-0 centroid' as a
    detector of label 0 — the Mann-Whitney rank-sum formulation with
    exact midrank tie handling: scores quantize to 6dp on BOTH sides
    before ranking (the ulp-tie discipline every ranking query here
    follows), doubled midranks stay integral, and AUC = (R1 −
    n1(n1+1)/2) / (n1·n2) is one exact division. The distributed work
    is the centroid fold plus a per-batch score pass; the rank fold
    walks the (score, label) histogram."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
    )

    def cent_part(tbl: pa.Table) -> pa.Table:
        lab = tbl.column("label").to_numpy(zero_copy_only=False)
        mat = np.stack(
            [np.asarray(e, dtype=np.float64) for e in
             tbl.column("embedding").to_pylist()]
        )
        sel = mat[lab == 0]
        s = sel.sum(axis=0) if len(sel) else np.zeros(mat.shape[1])
        out = {"n": pa.array([int((lab == 0).sum())], pa.int64())}
        for j, v in enumerate(s):
            out[f"d{j}"] = pa.array([float(v)], pa.float64())
        return pa.table(out)

    parts = emb.map_batches(cent_part, batch_format="pyarrow").take_all()
    dim = len(parts[0]) - 1
    n0 = sum(int(r["n"]) for r in parts)
    cent = np.array(
        [sum(float(r[f"d{j}"]) for r in parts) for j in range(dim)]
    )
    cent = cent / n0
    cn = cent / np.linalg.norm(cent)
    cref = cn

    def score(tbl: pa.Table) -> pa.Table:
        lab = tbl.column("label").to_numpy(zero_copy_only=False)
        mat = np.stack(
            [np.asarray(e, dtype=np.float64) for e in
             tbl.column("embedding").to_pylist()]
        )
        nrm = np.linalg.norm(mat, axis=1)
        s = (mat @ cref) / nrm
        sq = np.round(s * 1e6).astype(np.int64)  # 6dp quantized score
        pos = (lab == 0).astype(np.int64)
        code = sq * 2 + pos
        uc, n = np.unique(code, return_counts=True)
        return pa.table(
            {
                "sq": pa.array(
                    np.where(uc >= 0, uc // 2, -((-uc + 1) // 2)),
                    pa.int64(),
                ),
                "pos": pa.array(
                    np.where(uc >= 0, uc % 2, (uc % 2 + 2) % 2), pa.int64()
                ),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        emb.map_batches(score, batch_format="pyarrow")
        .groupby(["sq", "pos"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    h2: Dict[int, list] = {}
    for r in rows:
        c = h2.setdefault(int(r["sq"]), [0, 0])
        c[int(r["pos"])] += int(r["n"])
    xs = sorted(h2)
    rank2 = 0  # doubled rank cursor (2×ranks stay integral at midranks)
    r1_2 = 0  # doubled rank sum of positives
    n1 = n2 = 0
    for x in xs:
        neg, pos = h2[x][0], h2[x][1]
        t = neg + pos
        # doubled midrank of this tie group = 2·(prev + (t+1)/2)
        mid2 = 2 * (rank2 // 2) + t + 1
        r1_2 += pos * mid2
        rank2 += 2 * t
        n1 += pos
        n2 += neg
    auc = float(
        _round_half_away(
            np.array([(r1_2 - n1 * (n1 + 1)) / (2 * n1 * n2)]), 6
        )[0]
    )
    return pa.table(
        {
            "n_pos": pa.array([n1], pa.int64()),
            "n_neg": pa.array([n2], pa.int64()),
            "auc": pa.array([auc], pa.float64()),
        }
    )


_AUC_SQL = """
WITH c AS (SELECT list_transform(embedding, x -> CAST(x AS DOUBLE))
           AS e FROM embeddings WHERE label = 0),
cent AS (SELECT i, SUM(e[i]) / (SELECT COUNT(*) FROM c) AS v
         FROM c, LATERAL (SELECT unnest(range(1, len(e) + 1)) AS i) i
         GROUP BY i),
cnorm AS (SELECT SQRT(SUM(v * v)) AS nrm FROM cent),
s AS (SELECT vec_id, label,
      CAST(ROUND(list_dot_product(
        list_transform(embedding, x -> CAST(x AS DOUBLE)),
        (SELECT list(v / cnorm.nrm ORDER BY i) FROM cent, cnorm))
        / sqrt(list_dot_product(
          list_transform(embedding, x -> CAST(x AS DOUBLE)),
          list_transform(embedding, x -> CAST(x AS DOUBLE)))) * 1e6, 0)
        AS BIGINT) AS sq
      FROM embeddings),
r AS (SELECT sq, label,
      CAST(SUM(CASE WHEN label = 0 THEN 1 ELSE 0 END)
        OVER () AS HUGEINT) AS n1,
      CAST(SUM(CASE WHEN label <> 0 THEN 1 ELSE 0 END)
        OVER () AS HUGEINT) AS n2,
      CAST(2 * RANK() OVER (ORDER BY sq)
        + COUNT(*) OVER (PARTITION BY sq) - 1 AS HUGEINT) AS mid2
      FROM s)
SELECT CAST(MAX(n1) AS BIGINT) AS n_pos, CAST(MAX(n2) AS BIGINT) AS n_neg,
       ROUND(CAST(SUM(CASE WHEN label = 0 THEN mid2 ELSE 0 END)
         - MAX(n1) * (MAX(n1) + 1) AS DOUBLE)
         / CAST(2 * MAX(n1) * MAX(n2) AS DOUBLE), 6) AS auc
FROM r
"""


def q_corpus_datasheet(sf_dir: str):
    """One-pass corpus data card (the 'datasheet for datasets' summary
    a release ships with): document and token counts, vocabulary size,
    exact-duplicate count, language/source cardinalities, and mean
    quality — per-block partials for every metric fold in a single
    tagged exchange; dedup/vocab counts ride hash sets per block and a
    distinct-count fold. All values exact (ints < 2^53 in the DOUBLE
    value column; mean quality is the 6dp-rounded ratio of a 6dp-sum)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.dedup import _norm
    from signal_collect_ray.functions.text import QualityScore

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    scored = docs.map_batches(QualityScore(), batch_format="pyarrow")

    def partials(tbl: pa.Table) -> pa.Table:
        import re as _re

        texts = tbl.column("text").to_pylist()
        toks = sum(
            len(_re.findall(r"[^ \t\n\f\r]+", (t or "").lower()))
            for t in texts
        )
        words = set()
        norms = []
        for t in texts:
            words.update(_re.findall(r"[a-z]+", (t or "").lower()))
            norms.append(_norm(t or ""))
        q = np.round(
            tbl.column("quality").to_numpy(zero_copy_only=False), 6
        )
        kinds = (
            ["n_docs", "n_tokens", "q_sum"]
            + ["w"] * len(words)
            + ["h"] * len(norms)
            + ["l"] * len(tbl)
            + ["s"] * len(tbl)
        )
        keys = (
            ["", "", ""]
            + sorted(words)
            + norms
            + tbl.column("lang").to_pylist()
            + tbl.column("source").to_pylist()
        )
        vals = [float(len(tbl)), float(toks), float(q.sum())] + [0.0] * (
            len(kinds) - 3
        )
        return pa.table(
            {
                "kind": pa.array(kinds, pa.string()),
                "key": pa.array(keys, pa.string()),
                "v": pa.array(vals, pa.float64()),
            }
        )

    rows = (
        scored.map_batches(partials, batch_format="pyarrow")
        .groupby(["kind", "key"])
        .aggregate(Sum("v", alias_name="v"))
        .take_all()
    )
    scalars = {"n_docs": 0.0, "n_tokens": 0.0, "q_sum": 0.0}
    card = {"w": 0, "h": 0, "l": 0, "s": 0}
    for r in rows:
        k = r["kind"]
        if k in scalars:
            scalars[k] += float(r["v"])
        else:
            card[k] += 1
    n = scalars["n_docs"]
    metrics = [
        ("n_docs", n),
        ("n_tokens", scalars["n_tokens"]),
        ("vocab_size", float(card["w"])),
        ("exact_dup_docs", n - card["h"]),
        ("n_langs", float(card["l"])),
        ("n_sources", float(card["s"])),
        (
            "mean_quality",
            float(
                _round_half_away(
                    np.array([round(scalars["q_sum"], 6) / n]), 6
                )[0]
            ),
        ),
    ]
    return pa.table(
        {
            "metric": pa.array([m for m, _ in metrics], pa.string()),
            "value": pa.array([v for _, v in metrics], pa.float64()),
        }
    )


_DATASHEET_SQL = f"""
WITH q AS ({{QUALITY}}),
base AS (SELECT d.doc_id, d.text, d.lang, d.source, q.quality
         FROM documents d JOIN q USING (doc_id)),
tok AS (SELECT SUM(len(regexp_extract_all(lower(COALESCE(text, '')),
        '\\S+'))) AS n_tokens FROM base),
w AS (SELECT COUNT(DISTINCT word) AS vocab FROM (SELECT
      unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-z]+'))
      AS word FROM base)),
h AS (SELECT COUNT(DISTINCT trim(regexp_replace(lower(text),
      '\\s+', ' ', 'g'))) AS distinct_norm FROM base),
agg AS (SELECT COUNT(*) AS n_docs,
        COUNT(DISTINCT lang) AS n_langs,
        COUNT(DISTINCT source) AS n_sources,
        ROUND(SUM(quality), 6) AS q_sum FROM base)
SELECT 'n_docs' AS metric, CAST(n_docs AS DOUBLE) AS value FROM agg
UNION ALL SELECT 'n_tokens', CAST(tok.n_tokens AS DOUBLE) FROM tok
UNION ALL SELECT 'vocab_size', CAST(w.vocab AS DOUBLE) FROM w
UNION ALL SELECT 'exact_dup_docs',
  CAST(agg.n_docs - h.distinct_norm AS DOUBLE) FROM agg, h
UNION ALL SELECT 'n_langs', CAST(n_langs AS DOUBLE) FROM agg
UNION ALL SELECT 'n_sources', CAST(n_sources AS DOUBLE) FROM agg
UNION ALL SELECT 'mean_quality', ROUND(q_sum / n_docs, 6) FROM agg
"""


_KM_VALUE_MIN = 90.0


def _km_spell_counts(sf_dir: str):
    """Shared survival-spell machinery for kaplan_meier / nelson_aalen:
    first-to-second high-value-purchase durations with observation-end
    right-censoring, pre-aggregated to one row per DISTINCT duration —
    returns (sorted [(dur, deaths, n_entering)], total_spells); the
    driver side is O(distinct durations), not O(users)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Sum

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    t_max = int(
        ds.map_batches(
            lambda tbl: pa.table(
                {
                    "m": pa.array(
                        [
                            int(
                                tbl.column("ts")
                                .cast(pa.int64())
                                .to_numpy(zero_copy_only=False)
                                .max()
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).aggregate(Max("m", alias_name="m"))["m"]
    )

    def keyed(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        val = tbl.column("value").to_numpy(zero_copy_only=False)
        keep = (et == "purchase") & (val > _KM_VALUE_MIN)
        sub = tbl.filter(pa.array(keep))
        uid = sub.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "part": pa.array(part_of(uid, 16), pa.int32()),
                "user_id": sub.column("user_id"),
                "ts_us": pa.array(
                    sub.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.int64(),
                ),
                "event_id": sub.column("event_id"),
            }
        )

    def first_two(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts_us").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t = uid[order], ts[order]
        starts = segment_starts(u)
        ends = np.append(starts[1:], len(u))
        has2 = (ends - starts) >= 2
        second = t[np.minimum(starts + 1, len(t) - 1)]
        durs = np.where(has2, second - t[starts], t_max - t[starts])
        return pa.table(
            {
                "dur": pa.array(durs.astype(np.int64), pa.int64()),
                "ev": pa.array(has2.astype(np.int64), pa.int64()),
            }
        )

    from signal_collect_ray.util import segment_starts

    rows = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby("part")
        .map_groups(first_two, batch_format="pyarrow")
        .groupby("dur")
        .aggregate(
            Sum("ev", alias_name="deaths"), Count(alias_name="n_dur")
        )
        .take_all()
    )
    # one row per DISTINCT duration reaches the driver
    g = sorted(
        (int(r["dur"]), int(r["deaths"]), int(r["n_dur"])) for r in rows
    )
    return g, sum(n for _, _, n in g)


def q_kaplan_meier(sf_dir: str):
    """Kaplan-Meier survival curve for 'time from first to second
    high-value purchase' (value > 90 — rare enough that many users
    never repeat, giving REAL right-censoring at the observation end):
    S(t) = Π_{t_i ≤ t} (1 − d_i/n_i) over death times, censored
    spells entering every at-risk set they outlast. All counts exact
    integers; the product multiplies the identical factor sequence in
    the identical duration order on both sides (window PRODUCT), so
    the curve is bit-exact before the display rounding. One exchange
    on user for the first-two fold, one (dur → deaths, entries)
    groupby (_km_spell_counts), so the driver walk is O(distinct
    durations), not O(users)."""
    g, total = _km_spell_counts(sf_dir)
    out_d, out_r, out_dd, out_s = [], [], [], []
    run = 0
    surv = 1.0
    for d, deaths, n_dur in g:
        n_at = total - run
        surv = surv * (1.0 - deaths * 1.0 / n_at)
        run += n_dur
        if deaths > 0:
            out_d.append(d)
            out_r.append(n_at)
            out_dd.append(deaths)
            out_s.append(float(_round_half_away(np.array([surv]), 6)[0]))
    return pa.table(
        {
            "duration_us": pa.array(out_d, pa.int64()),
            "at_risk": pa.array(out_r, pa.int64()),
            "deaths": pa.array(out_dd, pa.int64()),
            "survival": pa.array(out_s, pa.float64()),
        }
    )


_KM_SQL = f"""
WITH mx AS (SELECT MAX(epoch_us(ts)) AS m FROM events),
ev AS (SELECT user_id, event_id, epoch_us(ts) AS t FROM events
       WHERE event_type = 'purchase' AND value > {_KM_VALUE_MIN}),
rk AS (SELECT user_id, t, ROW_NUMBER() OVER (PARTITION BY user_id
       ORDER BY t, event_id) AS rn FROM ev),
d AS (SELECT a.user_id, b.t - a.t AS dur, 1 AS ev
      FROM rk a JOIN rk b ON b.user_id = a.user_id
      AND a.rn = 1 AND b.rn = 2
      UNION ALL
      SELECT a.user_id, mx.m - a.t, 0 FROM rk a, mx
      WHERE a.rn = 1 AND NOT EXISTS (SELECT 1 FROM rk b
        WHERE b.user_id = a.user_id AND b.rn = 2)),
g AS (SELECT dur, SUM(ev) AS deaths, COUNT(*) AS n_at FROM d GROUP BY dur),
o AS (SELECT dur, deaths,
      SUM(n_at) OVER (ORDER BY dur DESC ROWS UNBOUNDED PRECEDING)
      AS at_risk FROM g),
k AS (SELECT dur, deaths, at_risk,
      PRODUCT(1.0 - deaths * 1.0 / at_risk)
        OVER (ORDER BY dur ROWS UNBOUNDED PRECEDING) AS surv FROM o)
SELECT CAST(dur AS BIGINT) AS duration_us,
       CAST(at_risk AS BIGINT) AS at_risk,
       CAST(deaths AS BIGINT) AS deaths,
       ROUND(surv, 6) AS survival
FROM k WHERE deaths > 0
"""


def q_nelson_aalen(sf_dir: str):
    """Nelson-Aalen cumulative-hazard estimator over the same
    right-censored first-to-second high-value-purchase spells as
    kaplan_meier: H(t) = Σ_{t_i ≤ t} d_i / n_i — the nonparametric
    hazard sibling of the KM product (Aalen 1978, public literature).
    Shares _km_spell_counts (one user exchange + one per-distinct-
    duration groupby); both sides accumulate the identical d/n term
    sequence in the identical ascending-duration order, so the curve
    is bit-exact before the display rounding."""
    g, total = _km_spell_counts(sf_dir)
    out_d, out_r, out_dd, out_h = [], [], [], []
    run = 0
    haz = 0.0
    for d, deaths, n_dur in g:
        n_at = total - run
        haz = haz + deaths * 1.0 / n_at
        run += n_dur
        if deaths > 0:
            out_d.append(d)
            out_r.append(n_at)
            out_dd.append(deaths)
            out_h.append(float(_round_half_away(np.array([haz]), 6)[0]))
    return pa.table(
        {
            "duration_us": pa.array(out_d, pa.int64()),
            "at_risk": pa.array(out_r, pa.int64()),
            "deaths": pa.array(out_dd, pa.int64()),
            "cum_hazard": pa.array(out_h, pa.float64()),
        }
    )


_NELSON_AALEN_SQL = f"""
WITH mx AS (SELECT MAX(epoch_us(ts)) AS m FROM events),
ev AS (SELECT user_id, event_id, epoch_us(ts) AS t FROM events
       WHERE event_type = 'purchase' AND value > {_KM_VALUE_MIN}),
rk AS (SELECT user_id, t, ROW_NUMBER() OVER (PARTITION BY user_id
       ORDER BY t, event_id) AS rn FROM ev),
d AS (SELECT a.user_id, b.t - a.t AS dur, 1 AS ev
      FROM rk a JOIN rk b ON b.user_id = a.user_id
      AND a.rn = 1 AND b.rn = 2
      UNION ALL
      SELECT a.user_id, mx.m - a.t, 0 FROM rk a, mx
      WHERE a.rn = 1 AND NOT EXISTS (SELECT 1 FROM rk b
        WHERE b.user_id = a.user_id AND b.rn = 2)),
g AS (SELECT dur, SUM(ev) AS deaths, COUNT(*) AS n_at FROM d GROUP BY dur),
o AS (SELECT dur, deaths,
      SUM(n_at) OVER (ORDER BY dur DESC ROWS UNBOUNDED PRECEDING)
      AS at_risk FROM g),
k AS (SELECT dur, deaths, at_risk,
      SUM(deaths * 1.0 / at_risk)
        OVER (ORDER BY dur ROWS UNBOUNDED PRECEDING) AS haz FROM o)
SELECT CAST(dur AS BIGINT) AS duration_us,
       CAST(at_risk AS BIGINT) AS at_risk,
       CAST(deaths AS BIGINT) AS deaths,
       ROUND(haz, 6) AS cum_hazard
FROM k WHERE deaths > 0
"""


def q_weekday_seasonality(sf_dir: str):
    """Day-of-week seasonality index of event volume: for each
    epoch-anchored weekday class w = day % 7, the ratio of that
    class's mean daily count to the overall mean daily count —
    index = sum_w · n_days / (n_days_w · total), computed from exact
    integer counts on both sides (one tiny (day) groupby; the day
    range is dense by construction of the walk: every day between min
    and max participates, empty days count 0)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )

    def daily(tbl: pa.Table) -> pa.Table:
        day = (
            tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        return pa.table({"day": pa.array(day, pa.int64())})

    rows = (
        ds.map_batches(daily, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Count(alias_name="n"))
        .take_all()
    )
    counts = {int(r["day"]): int(r["n"]) for r in rows}
    lo, hi = min(counts), max(counts)
    total = sum(counts.values())
    n_days = hi - lo + 1
    sum_w = np.zeros(7, dtype=np.int64)
    n_days_w = np.zeros(7, dtype=np.int64)
    for d in range(lo, hi + 1):
        w = d % 7
        sum_w[w] += counts.get(d, 0)
        n_days_w[w] += 1
    out_w, out_n, out_i = [], [], []
    for w in range(7):
        if n_days_w[w] == 0:
            continue
        idx = (int(sum_w[w]) * n_days) / (int(n_days_w[w]) * total)
        out_w.append(w)
        out_n.append(int(sum_w[w]))
        out_i.append(float(_round_half_away(np.array([idx]), 6)[0]))
    return pa.table(
        {
            "weekday": pa.array(out_w, pa.int64()),
            "n_events": pa.array(out_n, pa.int64()),
            "seasonality_index": pa.array(out_i, pa.float64()),
        }
    )


_WEEKDAY_SEASONALITY_SQL = """
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day FROM events),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi, COUNT(*) AS total FROM e),
days AS (SELECT UNNEST(range(b.lo, b.hi + 1)) AS day FROM b),
dc AS (SELECT days.day, CAST(COUNT(e.day) AS BIGINT) AS n
       FROM days LEFT JOIN e ON e.day = days.day GROUP BY days.day),
w AS (SELECT day % 7 AS weekday, SUM(n) AS sum_w,
      COUNT(*) AS n_days_w FROM dc GROUP BY 1)
SELECT CAST(w.weekday AS BIGINT) AS weekday,
       CAST(w.sum_w AS BIGINT) AS n_events,
       ROUND((w.sum_w * (b.hi - b.lo + 1)) * 1.0
             / (w.n_days_w * b.total), 6) AS seasonality_index
FROM w, b
"""


_ACF_LAGS = 7


def q_daily_acf(sf_dir: str):
    """Autocorrelation of the daily event-count series at lags 1..7 —
    the seasonality/burstiness fingerprint. With D days and total S,
    r_k = Σ_t (D·n_t − S)(D·n_{t+k} − S) / Σ_t (D·n_t − S)² over the
    DENSE day range (missing days are genuine zeros), so every moment
    is an exact integer (the morans_i scaling trick applied to time)
    and the only float is the final ratio, rounded identically on both
    sides. One (day) groupby; the driver walk is O(days)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )

    def daily(tbl: pa.Table) -> pa.Table:
        day = (
            tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        return pa.table({"day": pa.array(day, pa.int64())})

    rows = (
        ds.map_batches(daily, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Count(alias_name="n"))
        .take_all()
    )
    counts = {int(r["day"]): int(r["n"]) for r in rows}
    lo, hi = min(counts), max(counts)
    series = np.array(
        [counts.get(d, 0) for d in range(lo, hi + 1)], dtype=object
    )
    big_d = len(series)
    s = int(sum(series))
    dev = np.array([big_d * int(x) - s for x in series], dtype=object)
    den = sum(int(v) * int(v) for v in dev)
    out_k, out_r = [], []
    for k in range(1, _ACF_LAGS + 1):
        if k >= big_d or den == 0:
            break
        num = sum(int(a) * int(b) for a, b in zip(dev[:-k], dev[k:]))
        out_k.append(k)
        out_r.append(
            float(_round_half_away(np.array([num / den]), 6)[0])
        )
    return pa.table(
        {
            "lag": pa.array(out_k, pa.int64()),
            "acf": pa.array(out_r, pa.float64()),
        }
    )


_DAILY_ACF_SQL = f"""
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day FROM events),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM e),
days AS (SELECT UNNEST(range(b.lo, b.hi + 1)) AS day FROM b),
dc AS (SELECT days.day, CAST(COUNT(e.day) AS HUGEINT) AS n
       FROM days LEFT JOIN e ON e.day = days.day GROUP BY days.day),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS d, CAST(SUM(n) AS HUGEINT) AS s
      FROM dc),
dev AS (SELECT dc.day, m.d * dc.n - m.s AS v FROM dc, m),
den AS (SELECT SUM(v * v) AS den FROM dev),
lags AS (SELECT UNNEST(range(1, {_ACF_LAGS + 1})) AS k),
num AS (SELECT lags.k, SUM(a.v * b.v) AS num
        FROM lags JOIN dev a ON TRUE
        JOIN dev b ON b.day = a.day + lags.k
        GROUP BY lags.k)
SELECT CAST(num.k AS BIGINT) AS lag,
       ROUND(CAST(num.num AS DOUBLE) / CAST(den.den AS DOUBLE), 6) AS acf
FROM num, den WHERE den.den <> 0
"""


def q_churn_labels(sf_dir: str):
    """Churn-label generation — the supervised-training-data op every
    retention model starts from: with w0 the log's first week, users
    active in the OBSERVATION window [w0, w0+2] get label churned = 1
    iff they have NO event in the OUTCOME window [w0+3, w0+5].
    One exchange on user carrying two integer indicator sums; the
    label table streams out (it IS the training set)."""
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    week_us = 604_800_000_000
    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def weekly(tbl: pa.Table) -> pa.Table:
        w = (
            tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // week_us
        )
        return pa.table(
            {
                "user_id": tbl.column("user_id"),
                "w": pa.array(w, pa.int64()),
            }
        )

    wk = ds.map_batches(weekly, batch_format="pyarrow").materialize()
    w0 = int(wk.aggregate(Min("w", alias_name="m"))["m"])

    def flags(tbl: pa.Table) -> pa.Table:
        w = tbl.column("w").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": tbl.column("user_id"),
                "n_obs": pa.array(
                    ((w >= w0) & (w <= w0 + 2)).astype(np.int64), pa.int64()
                ),
                "n_out": pa.array(
                    ((w >= w0 + 3) & (w <= w0 + 5)).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    agg = (
        wk.map_batches(flags, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum("n_obs", alias_name="n_obs"),
            Sum("n_out", alias_name="n_out"),
        )
    )

    def label(tbl: pa.Table) -> pa.Table:
        n_obs = tbl.column("n_obs").to_numpy(zero_copy_only=False)
        n_out = tbl.column("n_out").to_numpy(zero_copy_only=False)
        t = tbl.filter(pa.array(n_obs > 0))
        n_out = n_out[n_obs > 0]
        n_obs = n_obs[n_obs > 0]
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "n_obs_events": pa.array(n_obs, pa.int64()),
                "churned": pa.array(
                    (n_out == 0).astype(np.int64), pa.int64()
                ),
            }
        )

    return agg.map_batches(label, batch_format="pyarrow")


_CHURN_SQL = """
WITH b AS (SELECT MIN(epoch_us(ts) // 604800000000) AS w0 FROM events),
e AS (SELECT user_id, epoch_us(ts) // 604800000000 AS w FROM events),
u AS (SELECT user_id,
      SUM(CASE WHEN e.w BETWEEN b.w0 AND b.w0 + 2 THEN 1 ELSE 0 END)
        AS n_obs,
      SUM(CASE WHEN e.w BETWEEN b.w0 + 3 AND b.w0 + 5 THEN 1 ELSE 0 END)
        AS n_out
      FROM e, b GROUP BY user_id)
SELECT user_id, CAST(n_obs AS BIGINT) AS n_obs_events,
       CAST(CASE WHEN n_out = 0 THEN 1 ELSE 0 END AS BIGINT) AS churned
FROM u WHERE n_obs > 0
"""


def q_readability(sf_dir: str):
    """Flesch reading-ease per document with the vowel-group syllable
    proxy (Flesch 1948, public): 206.835 − 1.015·(words/sentences) −
    84.6·(syllables/words), where sentences = max(1, runs of [.!?]+)
    and syllables = runs of [aeiouy]+ in the lowercased text — every
    count an exact integer with an RE2-identical regex on both sides,
    and the score expression evaluated in the identical float order.
    The standard curation readability signal; embarrassingly parallel,
    zero exchanges."""
    import re

    import ray.data as rd

    sent_re = re.compile(r"[.!?]+")
    syl_re = re.compile(r"[aeiouy]+")
    from signal_collect_ray.functions.text import _RE2_NONSPACE_RE

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def score(tbl: pa.Table) -> pa.Table:
        texts = tbl.column("text").to_pylist()
        n_w, n_s, n_y = [], [], []
        for t in texts:
            low = (t or "").lower()
            n_w.append(len(_RE2_NONSPACE_RE.findall(low)))
            n_s.append(max(1, len(sent_re.findall(low))))
            n_y.append(len(syl_re.findall(low)))
        w = np.array(n_w, dtype=np.int64)
        s = np.array(n_s, dtype=np.int64)
        y = np.array(n_y, dtype=np.int64)
        keep = w > 0
        t2 = tbl.filter(pa.array(keep))
        w, s, y = w[keep], s[keep], y[keep]
        fl = 206.835 - 1.015 * (w * 1.0 / s) - 84.6 * (y * 1.0 / w)
        return pa.table(
            {
                "doc_id": t2.column("doc_id"),
                "n_words": pa.array(w, pa.int64()),
                "n_sentences": pa.array(s, pa.int64()),
                "n_syllables": pa.array(y, pa.int64()),
                "flesch": pa.array(
                    _round_half_away(fl, 4), pa.float64()
                ),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


_READABILITY_SQL = """
WITH t AS (SELECT doc_id, lower(COALESCE(text, '')) AS low FROM documents),
c AS (SELECT doc_id,
      CAST(length(regexp_extract_all(low, '\\S+')) AS BIGINT) AS w,
      GREATEST(CAST(length(regexp_extract_all(low, '[.!?]+')) AS BIGINT),
               1) AS s,
      CAST(length(regexp_extract_all(low, '[aeiouy]+')) AS BIGINT) AS y
      FROM t)
SELECT doc_id, w AS n_words, s AS n_sentences, y AS n_syllables,
       ROUND(206.835 - 1.015 * (w * 1.0 / s) - 84.6 * (y * 1.0 / w), 4)
       AS flesch
FROM c WHERE w > 0
"""


def q_mann_kendall(sf_dir: str):
    """Mann-Kendall nonparametric trend test on daily event counts:
    S = Σ_{i<j} sign(x_j − x_i) (exact integer), tie-corrected
    variance (n(n−1)(2n+5) − Σ t(t−1)(2t+5))/18 in exact integers
    (×18 to stay integral), continuity-corrected z — the monotone-
    trend detector paired with CUSUM's level-shift detector. The
    distributed part is the daily counting; the O(days²) pair fold is
    driver scalars, mirrored by a self-join."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )

    def daily(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // 86_400_000_000
        uc, n = np.unique(day, return_counts=True)
        return pa.table(
            {
                "day": pa.array(uc, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = sorted(
        (int(r["day"]), int(r["n"]))
        for r in ds.map_batches(daily, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    xs = [x for _, x in rows]
    n = len(xs)
    s_stat = 0
    for i in range(n):
        for j in range(i + 1, n):
            s_stat += (xs[j] > xs[i]) - (xs[j] < xs[i])
    from collections import Counter

    ties = Counter(xs)
    var18 = n * (n - 1) * (2 * n + 5) - sum(
        t * (t - 1) * (2 * t + 5) for t in ties.values() if t > 1
    )
    if var18 > 0 and s_stat != 0:
        z = (s_stat - (1 if s_stat > 0 else -1)) / np.sqrt(var18 / 18.0)
    else:
        z = 0.0
    return pa.table(
        {
            "s_statistic": pa.array([s_stat], pa.int64()),
            "n_days": pa.array([n], pa.int64()),
            "z_score": pa.array(
                [float(_round_half_away(np.array([z]), 6)[0])],
                pa.float64(),
            ),
        }
    )


_MK_SQL = """
WITH x AS (SELECT epoch_us(ts) // 86400000000 AS day,
           CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1),
s AS (SELECT CAST(SUM(CASE WHEN b.n > a.n THEN 1
      WHEN b.n < a.n THEN -1 ELSE 0 END) AS BIGINT) AS s_stat
      FROM x a JOIN x b ON b.day > a.day),
cnt AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM x),
t AS (SELECT COALESCE(SUM(c * (c - 1) * (2 * c + 5)), 0) AS corr
      FROM (SELECT COUNT(*) AS c FROM x GROUP BY n HAVING COUNT(*) > 1)),
v AS (SELECT cnt.n, cnt.n * (cnt.n - 1) * (2 * cnt.n + 5) - t.corr
      AS var18 FROM cnt, t)
SELECT s.s_stat AS s_statistic, v.n AS n_days,
       CASE WHEN v.var18 <= 0 OR s.s_stat = 0 THEN 0.0
       ELSE ROUND((s.s_stat - CASE WHEN s.s_stat > 0 THEN 1 ELSE -1 END)
            / SQRT(v.var18 / 18.0), 6) END AS z_score
FROM s, v
"""


def q_runs_test(sf_dir: str):
    """Wald-Wolfowitz runs test on the daily click-beats-view sequence
    (the ORDER-randomness complement of the sign test): win/loss calls
    by the same integer cross-multiplication, runs counted over the
    day-ordered sequence, z = (R − μ)/σ with μ = 1 + 2ab/n and
    σ² = 2ab(2ab − n)/(n²(n−1)) — exact integer a, b, R; one float
    expression identical on both sides (normal approximation,
    documented). Ties drop."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type", "value"],
    )

    def daily(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        keep = (et == "click") | (et == "view")
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )[keep]
        cents = _round_half_away(
            tbl.column("value").to_numpy(zero_copy_only=False)[keep] * 100.0,
            0,
        ).astype(np.int64)
        is_click = (et[keep] == "click").astype(np.int64)
        day = ts // 86_400_000_000
        code = day * 2 + is_click
        out = {}
        for c, cent in zip(code, cents):
            s_ = out.setdefault(int(c), [0, 0])
            s_[0] += 1
            s_[1] += int(cent)
        ks = sorted(out)
        return pa.table(
            {
                "day": pa.array([k // 2 for k in ks], pa.int64()),
                "is_click": pa.array([k % 2 for k in ks], pa.int64()),
                "n": pa.array([out[k][0] for k in ks], pa.int64()),
                "s": pa.array([out[k][1] for k in ks], pa.int64()),
            }
        )

    rows = (
        ds.map_batches(daily, batch_format="pyarrow")
        .groupby(["day", "is_click"])
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
        .take_all()
    )
    per_day: Dict[int, dict] = {}
    for r in rows:
        per_day.setdefault(int(r["day"]), {})[int(r["is_click"])] = (
            int(r["n"]),
            int(r["s"]),
        )
    seq = []
    for d in sorted(per_day):
        g = per_day[d]
        if 0 not in g or 1 not in g:
            continue
        nv, sv = g[0]
        nc, sc = g[1]
        if sc * nv > sv * nc:
            seq.append(1)
        elif sc * nv < sv * nc:
            seq.append(0)
    a = sum(seq)
    b = len(seq) - a
    n = a + b
    runs = (
        1 + sum(1 for i in range(1, len(seq)) if seq[i] != seq[i - 1])
        if seq
        else 0
    )
    if a and b and n > 1:
        mu = 1.0 + 2.0 * a * b / n
        var = (2.0 * a * b * (2.0 * a * b - n)) / (n * n * (n - 1.0))
        z = (runs - mu) / np.sqrt(var) if var > 0 else 0.0
    else:
        mu, z = 0.0, 0.0
    return pa.table(
        {
            "runs": pa.array([runs], pa.int64()),
            "wins": pa.array([a], pa.int64()),
            "losses": pa.array([b], pa.int64()),
            "expected_runs": pa.array(
                [float(_round_half_away(np.array([mu]), 6)[0])],
                pa.float64(),
            ),
            "z_score": pa.array(
                [float(_round_half_away(np.array([z]), 6)[0])],
                pa.float64(),
            ),
        }
    )


_RUNS_SQL = """
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day,
           CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS is_click,
           CAST(ROUND(value * 100, 0) AS BIGINT) AS cents
           FROM events WHERE event_type IN ('click', 'view')),
g AS (SELECT day,
      SUM(CASE WHEN is_click = 1 THEN 1 ELSE 0 END) AS nc,
      SUM(CASE WHEN is_click = 1 THEN cents ELSE 0 END) AS sc,
      SUM(CASE WHEN is_click = 0 THEN 1 ELSE 0 END) AS nv,
      SUM(CASE WHEN is_click = 0 THEN cents ELSE 0 END) AS sv
      FROM e GROUP BY day),
s AS (SELECT day, CASE WHEN sc * nv > sv * nc THEN 1 ELSE 0 END AS w
      FROM g WHERE nc > 0 AND nv > 0 AND sc * nv <> sv * nc),
q AS (SELECT day, w, LAG(w) OVER (ORDER BY day) AS pw FROM s),
r AS (SELECT CAST(SUM(CASE WHEN pw IS NULL OR w <> pw THEN 1 ELSE 0 END)
      AS BIGINT) AS runs,
      CAST(SUM(w) AS BIGINT) AS a,
      CAST(COUNT(*) - SUM(w) AS BIGINT) AS b FROM q)
SELECT runs, a AS wins, b AS losses,
       CASE WHEN a = 0 OR b = 0 OR a + b <= 1 THEN 0.0
       ELSE ROUND(1.0 + 2.0 * a * b / (a + b), 6) END AS expected_runs,
       CASE WHEN a = 0 OR b = 0 OR a + b <= 1
                 OR 2 * a * b <= a + b THEN 0.0
       ELSE ROUND((runs - (1.0 + 2.0 * a * b / (a + b)))
         / SQRT((2.0 * a * b * (2.0 * a * b - (a + b)))
           / ((a + b) * (a + b) * (a + b - 1.0))), 6) END AS z_score
FROM r
"""


def q_sign_test(sf_dir: str):
    """Exact two-sided sign test: does the daily mean CLICK value beat
    the daily mean VIEW value more often than a fair coin would? Daily
    means compare by integer cross-multiplication (s_c·n_v vs s_v·n_c
    — no float enters the win/loss call), ties drop, and the p-value
    2·Σ_{j≤min(w, n−w)} C(n,j)/2ⁿ is a sum of EXACT dyadic rationals
    (C(n,j) < 2³¹), computed bit-identically on both sides — the
    oracle carries a generated Pascal table. One (day, type)
    pre-combined exchange."""
    import math

    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type", "value"],
    )

    def daily(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        keep = (et == "click") | (et == "view")
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )[keep]
        cents = _round_half_away(
            tbl.column("value").to_numpy(zero_copy_only=False)[keep] * 100.0,
            0,
        ).astype(np.int64)
        is_click = (et[keep] == "click").astype(np.int64)
        day = ts // 86_400_000_000
        code = day * 2 + is_click
        out = {}
        for c, cent in zip(code, cents):
            s_ = out.setdefault(int(c), [0, 0])
            s_[0] += 1
            s_[1] += int(cent)
        ks = sorted(out)
        return pa.table(
            {
                "day": pa.array([k // 2 for k in ks], pa.int64()),
                "is_click": pa.array([k % 2 for k in ks], pa.int64()),
                "n": pa.array([out[k][0] for k in ks], pa.int64()),
                "s": pa.array([out[k][1] for k in ks], pa.int64()),
            }
        )

    rows = (
        ds.map_batches(daily, batch_format="pyarrow")
        .groupby(["day", "is_click"])
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
        .take_all()
    )
    per_day: Dict[int, dict] = {}
    for r in rows:
        per_day.setdefault(int(r["day"]), {})[int(r["is_click"])] = (
            int(r["n"]),
            int(r["s"]),
        )
    wins = losses = 0
    for d, g in per_day.items():
        if 0 not in g or 1 not in g:
            continue
        nv, sv = g[0]
        nc, sc = g[1]
        lhs, rhs = sc * nv, sv * nc  # click-mean vs view-mean, exact
        if lhs > rhs:
            wins += 1
        elif lhs < rhs:
            losses += 1
    n = wins + losses
    m = min(wins, losses)
    p = min(
        1.0,
        2.0 * sum(math.comb(n, j) for j in range(m + 1)) / (2.0 ** n),
    ) if n else 1.0
    return pa.table(
        {
            "wins": pa.array([wins], pa.int64()),
            "losses": pa.array([losses], pa.int64()),
            "p_value": pa.array(
                [float(_round_half_away(np.array([p]), 6)[0])],
                pa.float64(),
            ),
        }
    )


def _sign_test_sql(max_n: int = 31) -> str:
    import math

    rows = ", ".join(
        f"({n}, {j}, {math.comb(n, j)})"
        for n in range(max_n + 1)
        for j in range(n + 1)
    )
    return f"""
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day,
           CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS is_click,
           CAST(ROUND(value * 100, 0) AS BIGINT) AS cents
           FROM events WHERE event_type IN ('click', 'view')),
g AS (SELECT day,
      SUM(CASE WHEN is_click = 1 THEN 1 ELSE 0 END) AS nc,
      SUM(CASE WHEN is_click = 1 THEN cents ELSE 0 END) AS sc,
      SUM(CASE WHEN is_click = 0 THEN 1 ELSE 0 END) AS nv,
      SUM(CASE WHEN is_click = 0 THEN cents ELSE 0 END) AS sv
      FROM e GROUP BY day),
w AS (SELECT
      CAST(SUM(CASE WHEN sc * nv > sv * nc THEN 1 ELSE 0 END) AS BIGINT)
      AS wins,
      CAST(SUM(CASE WHEN sc * nv < sv * nc THEN 1 ELSE 0 END) AS BIGINT)
      AS losses
      FROM g WHERE nc > 0 AND nv > 0),
pas(n, j, c) AS (SELECT * FROM (VALUES {rows}) v(n, j, c)),
p AS (SELECT w.wins, w.losses,
      CASE WHEN w.wins + w.losses = 0 THEN 1.0
      ELSE LEAST(1.0, 2.0 * (SELECT SUM(pas.c)
        FROM pas WHERE pas.n = w.wins + w.losses
        AND pas.j <= LEAST(w.wins, w.losses))
        / POWER(2.0, w.wins + w.losses)) END AS pv
      FROM w)
SELECT wins, losses, ROUND(pv, 6) AS p_value FROM p
"""


def q_logrank_chi2(sf_dir: str):
    """Two-group survival comparison (log-rank O-vs-E form): split
    users by parity, pool the same first-to-second-high-value-purchase
    spells as kaplan_meier, and at every death time credit each group
    its expected deaths E_g = d · n_g/n from exact integer at-risk
    counts. The statistic (O₁−E₁)²/E₁ + (O₂−E₂)²/E₂ sums rational
    expectations in ascending death-time order on both sides. Same
    one-exchange shape as kaplan_meier plus the group tag; a
    (dur → d0, d1, r0, r1) groupby keeps the driver walk O(distinct
    durations), not O(users)."""
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from signal_collect_ray.util import part_of, segment_starts

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    t_max = int(
        ds.map_batches(
            lambda tbl: pa.table(
                {
                    "m": pa.array(
                        [
                            int(
                                tbl.column("ts")
                                .cast(pa.int64())
                                .to_numpy(zero_copy_only=False)
                                .max()
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).aggregate(Max("m", alias_name="m"))["m"]
    )

    def keyed(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        val = tbl.column("value").to_numpy(zero_copy_only=False)
        keep = (et == "purchase") & (val > _KM_VALUE_MIN)
        sub = tbl.filter(pa.array(keep))
        uid = sub.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "part": pa.array(part_of(uid, 16), pa.int32()),
                "user_id": sub.column("user_id"),
                "ts_us": pa.array(
                    sub.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.int64(),
                ),
                "event_id": sub.column("event_id"),
            }
        )

    def spells(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts_us").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t = uid[order], ts[order]
        starts = segment_starts(u)
        ends = np.append(starts[1:], len(u))
        has2 = (ends - starts) >= 2
        second = t[np.minimum(starts + 1, len(t) - 1)]
        durs = np.where(has2, second - t[starts], t_max - t[starts]).astype(
            np.int64
        )
        evs = has2.astype(np.int64)
        grp = (u[starts] % 2).astype(np.int64)
        return pa.table(
            {
                "dur": pa.array(durs, pa.int64()),
                "d0": pa.array(np.where(grp == 0, evs, 0), pa.int64()),
                "d1": pa.array(np.where(grp == 1, evs, 0), pa.int64()),
                "r0": pa.array((grp == 0).astype(np.int64), pa.int64()),
                "r1": pa.array((grp == 1).astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby("part")
        .map_groups(spells, batch_format="pyarrow")
        .groupby("dur")
        .aggregate(
            Sum("d0", alias_name="d0"),
            Sum("d1", alias_name="d1"),
            Sum("r0", alias_name="r0"),
            Sum("r1", alias_name="r1"),
        )
        .take_all()
    )
    # one row per DISTINCT duration reaches the driver
    g = sorted(
        (
            int(r["dur"]),
            int(r["d0"]),
            int(r["d1"]),
            int(r["r0"]),
            int(r["r1"]),
        )
        for r in rows
    )
    # walk death times ascending; at-risk counts by group = suffix counts
    n_g = [sum(r[3] for r in g), sum(r[4] for r in g)]
    o = [0, 0]
    e = [0.0, 0.0]
    for _, d0_, d1_, r0_, r1_ in g:
        deaths_g = (d0_, d1_)
        d = d0_ + d1_
        n = n_g[0] + n_g[1]
        if d > 0 and n > 0:
            for g_ in (0, 1):
                o[g_] += deaths_g[g_]
                e[g_] += d * n_g[g_] / n
        n_g[0] -= r0_
        n_g[1] -= r1_
    chi2 = sum(
        (o[g_] - e[g_]) ** 2 / e[g_] for g_ in (0, 1) if e[g_] > 0
    )
    return pa.table(
        {
            "observed_g0": pa.array([o[0]], pa.int64()),
            "expected_g0": pa.array(
                [float(_round_half_away(np.array([e[0]]), 6)[0])],
                pa.float64(),
            ),
            "observed_g1": pa.array([o[1]], pa.int64()),
            "expected_g1": pa.array(
                [float(_round_half_away(np.array([e[1]]), 6)[0])],
                pa.float64(),
            ),
            "chi2": pa.array(
                [float(_round_half_away(np.array([chi2]), 6)[0])],
                pa.float64(),
            ),
        }
    )


_LOGRANK_SQL = f"""
WITH mx AS (SELECT MAX(epoch_us(ts)) AS m FROM events),
ev AS (SELECT user_id, event_id, epoch_us(ts) AS t FROM events
       WHERE event_type = 'purchase' AND value > {_KM_VALUE_MIN}),
rk AS (SELECT user_id, t, ROW_NUMBER() OVER (PARTITION BY user_id
       ORDER BY t, event_id) AS rn FROM ev),
d AS (SELECT a.user_id, b.t - a.t AS dur, 1 AS evt,
      a.user_id % 2 AS grp
      FROM rk a JOIN rk b ON b.user_id = a.user_id
      AND a.rn = 1 AND b.rn = 2
      UNION ALL
      SELECT a.user_id, mx.m - a.t, 0, a.user_id % 2 FROM rk a, mx
      WHERE a.rn = 1 AND NOT EXISTS (SELECT 1 FROM rk b
        WHERE b.user_id = a.user_id AND b.rn = 2)),
g AS (SELECT dur,
      SUM(CASE WHEN grp = 0 THEN evt ELSE 0 END) AS d0,
      SUM(CASE WHEN grp = 1 THEN evt ELSE 0 END) AS d1,
      SUM(CASE WHEN grp = 0 THEN 1 ELSE 0 END) AS r0,
      SUM(CASE WHEN grp = 1 THEN 1 ELSE 0 END) AS r1
      FROM d GROUP BY dur),
o AS (SELECT dur, d0, d1,
      SUM(r0) OVER (ORDER BY dur DESC ROWS UNBOUNDED PRECEDING) AS n0,
      SUM(r1) OVER (ORDER BY dur DESC ROWS UNBOUNDED PRECEDING) AS n1
      FROM g),
agg AS (SELECT
  CAST(SUM(d0) AS BIGINT) AS o0, CAST(SUM(d1) AS BIGINT) AS o1,
  SUM(CASE WHEN d0 + d1 > 0
      THEN (d0 + d1) * n0 * 1.0 / (n0 + n1) ELSE 0 END) AS e0,
  SUM(CASE WHEN d0 + d1 > 0
      THEN (d0 + d1) * n1 * 1.0 / (n0 + n1) ELSE 0 END) AS e1
  FROM o)
SELECT o0 AS observed_g0, ROUND(e0, 6) AS expected_g0,
       o1 AS observed_g1, ROUND(e1, 6) AS expected_g1,
       ROUND((o0 - e0) * (o0 - e0) / e0
             + (o1 - e1) * (o1 - e1) / e1, 6) AS chi2
FROM agg
"""


_BT_ITERS = 5


def q_bradley_terry_sources(sf_dir: str):
    """Bradley-Terry strength ranking of the crawl sources from
    pairwise quality comparisons (the paired-comparison model behind
    modern preference/reward ranking): every cross-source document
    pair is a match decided by the higher 6dp quality (ties count
    half), aggregated EXACTLY from per-source quality histograms
    (strict wins and ties are integer folds over cumulative counts —
    never O(docs²) pairs). Five minorization-maximization iterations
    p_i ← W_i / Σ_j n_ij/(p_i+p_j), sum-normalized each round; the
    iteration runs on the tiny source table, mirrored by an unrolled
    CTE chain."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.text import QualityScore

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )
    scored = docs.map_batches(QualityScore(), batch_format="pyarrow")

    def hist(tbl: pa.Table) -> pa.Table:
        q = np.round(
            tbl.column("quality").to_numpy(zero_copy_only=False), 6
        )
        micro = np.round(q * 1_000_000).astype(np.int64)
        srcs = np.asarray(tbl.column("source").to_pylist())
        keys, n = np.unique(
            np.char.add(np.char.add(srcs, "|"), micro.astype(str)),
            return_counts=True,
        )
        return pa.table(
            {
                "source": pa.array(
                    [k.split("|", 1)[0] for k in keys], pa.string()
                ),
                "micro": pa.array(
                    np.array(
                        [int(k.split("|", 1)[1]) for k in keys],
                        dtype=np.int64,
                    ),
                    pa.int64(),
                ),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        scored.map_batches(hist, batch_format="pyarrow")
        .groupby(["source", "micro"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    h: Dict[str, dict] = {}
    for r in rows:
        h.setdefault(r["source"], {})[int(r["micro"])] = int(r["n"])
    srcs = sorted(h)
    S = len(srcs)
    tot = {s_: sum(h[s_].values()) for s_ in srcs}
    # doubled wins (2*strict + ties) per ordered pair, exact ints
    w2 = np.zeros((S, S), dtype=object)
    for i, a in enumerate(srcs):
        for j, b in enumerate(srcs):
            if i == j:
                continue
            lv = sorted(h[b])
            cb = np.cumsum([h[b][x] for x in lv])
            strict = ties = 0
            for qa, na in h[a].items():
                k = np.searchsorted(lv, qa)
                below = int(cb[k - 1]) if k > 0 else 0
                strict += na * below
                if k < len(lv) and lv[k] == qa:
                    ties += na * h[b][qa]
            w2[i, j] = 2 * strict + ties
    p = np.ones(S)
    for _ in range(_BT_ITERS):
        newp = np.zeros(S)
        for i in range(S):
            wi = sum(int(w2[i, j]) for j in range(S) if j != i) / 2.0
            denom = sum(
                (tot[srcs[i]] * tot[srcs[j]]) / (p[i] + p[j])
                for j in range(S)
                if j != i
            )
            newp[i] = wi / denom if denom else 0.0
        p = newp / newp.sum()
    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "bt_score": pa.array(
                [
                    float(_round_half_away(np.array([x]), 6)[0])
                    for x in p
                ],
                pa.float64(),
            ),
        }
    )


def _bt_sql(iters: int) -> str:
    head = """
WITH q AS ({QUALITY}),
lab AS (SELECT CAST(ROUND(q.quality * 1000000, 0) AS BIGINT) AS micro,
        d.source FROM q JOIN documents d USING (doc_id)),
h AS (SELECT source, micro, CAST(COUNT(*) AS HUGEINT) AS n
      FROM lab GROUP BY 1, 2),
t AS (SELECT source, SUM(n) AS tot FROM h GROUP BY source),
w AS (SELECT a.source AS sa, b.source AS sb,
      SUM(CASE WHEN a.micro > b.micro THEN 2 * a.n * b.n
               WHEN a.micro = b.micro THEN a.n * b.n ELSE 0 END) AS w2
      FROM h a JOIN h b ON a.source <> b.source GROUP BY 1, 2),
wi AS (SELECT sa AS source, CAST(SUM(w2) AS DOUBLE) / 2.0 AS wins
       FROM w GROUP BY sa),
p0 AS (SELECT source, CAST(1.0 AS DOUBLE) AS p FROM t),
"""
    its = []
    for k in range(1, iters + 1):
        its.append(
            f"""d{k} AS MATERIALIZED (SELECT pi.source,
  wi.wins / SUM(CAST(ta.tot * tb.tot AS DOUBLE) / (pi.p + pj.p)) AS raw
  FROM p{k-1} pi JOIN wi USING (source)
  JOIN t ta ON ta.source = pi.source
  JOIN p{k-1} pj ON pj.source <> pi.source
  JOIN t tb ON tb.source = pj.source
  GROUP BY pi.source, wi.wins)"""
        )
        its.append(
            f"p{k} AS MATERIALIZED (SELECT source, "
            f"raw / (SELECT SUM(raw) FROM d{k}) AS p FROM d{k})"
        )
    return (
        head
        + ", ".join(its)
        + f" SELECT source, ROUND(p, 6) AS bt_score FROM p{iters}"
    )


def q_quality_trend_per_source(sf_dir: str):
    """Per-source quality TREND: OLS slope of quality (6dp micro ints)
    on the document's week bucket (doc_id % 8, the same deterministic
    assignment as weekly_novel_ngrams) — is each crawl source getting
    better or worse over time? Slope = (nΣxy − ΣxΣy)/(nΣx² − (Σx)²)
    from per-block INTEGER moment partials folded per source; the only
    float is one final division per source (half-away rounded, in
    micro-quality units per week)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.text import QualityScore

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )
    scored = docs.map_batches(QualityScore(), batch_format="pyarrow")

    def moments(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        q = np.round(
            tbl.column("quality").to_numpy(zero_copy_only=False), 6
        )
        y = np.round(q * 1_000_000).astype(np.int64)
        x = (ids % 8).astype(np.int64)
        srcs = np.asarray(tbl.column("source").to_pylist())
        rows = {"source": [], "k": [], "v": []}
        for s_ in np.unique(srcs):
            m = srcs == s_
            vals = [
                int(m.sum()), int(x[m].sum()), int(y[m].sum()),
                int((x[m] * x[m]).sum()), int((x[m] * y[m]).sum()),
            ]
            for k, v in enumerate(vals):
                rows["source"].append(str(s_))
                rows["k"].append(k)
                rows["v"].append(v)
        return pa.table(
            {
                "source": pa.array(rows["source"], pa.string()),
                "k": pa.array(rows["k"], pa.int64()),
                "v": pa.array(rows["v"], pa.int64()),
            }
        )

    rows = (
        scored.map_batches(moments, batch_format="pyarrow")
        .groupby(["source", "k"])
        .aggregate(Sum("v", alias_name="v"))
        .take_all()
    )
    agg: Dict[str, dict] = {}
    for r in rows:
        agg.setdefault(r["source"], {})[int(r["k"])] = int(r["v"])
    srcs = sorted(agg)
    slopes = []
    for s_ in srcs:
        m = agg[s_]
        n, sx, sy, sxx, sxy = (m[i] for i in range(5))
        den = n * sxx - sx * sx
        slope = (n * sxy - sx * sy) / den if den else 0.0
        slopes.append(float(_round_half_away(np.array([slope]), 6)[0]))
    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "slope_micro_per_week": pa.array(slopes, pa.float64()),
        }
    )


_QTREND_SQL = """
WITH q AS ({QUALITY}),
d AS (SELECT doc_id % 8 AS x,
      CAST(ROUND(q.quality * 1000000, 0) AS BIGINT) AS y, dd.source
      FROM q JOIN documents dd USING (doc_id)),
m AS (SELECT source, CAST(COUNT(*) AS HUGEINT) AS n,
      CAST(SUM(x) AS HUGEINT) AS sx, CAST(SUM(y) AS HUGEINT) AS sy,
      CAST(SUM(x * x) AS HUGEINT) AS sxx,
      CAST(SUM(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy
      FROM d GROUP BY source)
SELECT source,
       CASE WHEN n * sxx - sx * sx = 0 THEN 0.0
       ELSE ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
            / CAST(n * sxx - sx * sx AS DOUBLE), 6) END
       AS slope_micro_per_week
FROM m
"""


def q_sequential_lift(sf_dir: str):
    """Sequential association lift for event-type bigrams: lift(A→B) =
    P(next = B | current = A) / P(B overall next-position) — the
    session-model version of association-rule lift, > 1 when B follows
    A more than chance. Derived from the distributed transition counts
    (one exchange) with exact integer numerators; one half-away-rounded
    division per pair."""
    trans = q_event_transitions(sf_dir)
    frm = trans.column("from_type").to_pylist()
    to = trans.column("to_type").to_pylist()
    n = trans.column("n").to_numpy(zero_copy_only=False)
    row_tot: Dict[str, int] = {}
    col_tot: Dict[str, int] = {}
    total = int(n.sum())
    for f, t, c in zip(frm, to, n):
        row_tot[f] = row_tot.get(f, 0) + int(c)
        col_tot[t] = col_tot.get(t, 0) + int(c)
    out = sorted(
        (
            f,
            t,
            int(c),
            float(
                _round_half_away(
                    np.array(
                        [(int(c) * total) / (row_tot[f] * col_tot[t])]
                    ),
                    6,
                )[0]
            ),
        )
        for f, t, c in zip(frm, to, n)
    )
    return pa.table(
        {
            "from_type": pa.array([x[0] for x in out], pa.string()),
            "to_type": pa.array([x[1] for x in out], pa.string()),
            "n": pa.array([x[2] for x in out], pa.int64()),
            "lift": pa.array([x[3] for x in out], pa.float64()),
        }
    )


_SEQ_LIFT_SQL = """
WITH s AS (SELECT user_id, event_type,
           LEAD(event_type) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS nxt
           FROM events),
c AS (SELECT event_type AS from_type, nxt AS to_type, COUNT(*) AS n
      FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2),
r AS (SELECT from_type, SUM(n) AS rn FROM c GROUP BY from_type),
cl AS (SELECT to_type, SUM(n) AS cn FROM c GROUP BY to_type),
t AS (SELECT SUM(n) AS total FROM c)
SELECT c.from_type, c.to_type, CAST(c.n AS BIGINT) AS n,
       ROUND((c.n * t.total * 1.0) / (r.rn * cl.cn), 6) AS lift
FROM c JOIN r USING (from_type) JOIN cl USING (to_type), t
"""


def q_user_type_entropy(sf_dir: str):
    """Per-user behavioral entropy: H = −Σ p log2 p over the user's
    event-type distribution (0 for single-type users, up to log2(5)
    for uniform behavior) — the predictability feature behind
    bot/human separation. One (user, type) count exchange; the entropy
    fold is O(types) per user with exact integer probabilities cast
    once."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type"],
    )

    def counts(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        et = np.asarray(tbl.column("event_type").to_pylist())
        keys, n = np.unique(
            np.char.add(np.char.add(uid.astype(str), "|"), et),
            return_counts=True,
        )
        users = [k.split("|", 1)[0] for k in keys]
        types = [k.split("|", 1)[1] for k in keys]
        return pa.table(
            {
                "user_id": pa.array(
                    np.array(users, dtype=np.int64), pa.int64()
                ),
                "event_type": pa.array(types, pa.string()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    agg: Dict[int, list] = {}
    for r in rows:
        agg.setdefault(int(r["user_id"]), []).append(int(r["n"]))
    users = sorted(agg)
    ents = []
    for u in users:
        ns = agg[u]
        tot = sum(ns)
        h = -sum((c / tot) * np.log2(c / tot) for c in ns)
        ents.append(float(_round_half_away(np.array([h]), 6)[0]))
    return pa.table(
        {
            "user_id": pa.array(users, pa.int64()),
            "entropy_bits": pa.array(ents, pa.float64()),
        }
    )


_USER_ENTROPY_SQL = """
WITH c AS (SELECT user_id, event_type, COUNT(*) AS n FROM events
           GROUP BY 1, 2),
t AS (SELECT user_id, SUM(n) AS tot FROM c GROUP BY user_id)
SELECT c.user_id,
       ROUND(-SUM((c.n * 1.0 / t.tot) * LOG2(c.n * 1.0 / t.tot)), 6)
       AS entropy_bits
FROM c JOIN t USING (user_id) GROUP BY c.user_id
"""


def q_stump_split(sf_dir: str):
    """Exact 1-feature decision stump: the quality-score threshold
    that best separates source 'src0' documents from the rest by
    MISCLASSIFICATION COUNT (predict positive when quality ≤ t,
    orientation chosen by the better side) — trained exactly over the
    (quality-micro, label) histogram: one pre-combined exchange, then
    an integer cumulative walk over distinct thresholds; ties break to
    the smallest threshold. Integer errors end to end — no float enters
    the argmin."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.text import QualityScore

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )
    scored = docs.map_batches(QualityScore(), batch_format="pyarrow")

    def hist(tbl: pa.Table) -> pa.Table:
        q = np.round(
            tbl.column("quality").to_numpy(zero_copy_only=False), 6
        )
        micro = np.round(q * 1_000_000).astype(np.int64)
        pos = (
            np.asarray(tbl.column("source").to_pylist()) == "src0"
        ).astype(np.int64)
        code = micro * 2 + pos
        uc, n = np.unique(code, return_counts=True)
        return pa.table(
            {
                "micro": pa.array(uc // 2, pa.int64()),
                "pos": pa.array(uc % 2, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        scored.map_batches(hist, batch_format="pyarrow")
        .groupby(["micro", "pos"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    h: Dict[int, list] = {}
    for r in rows:
        c = h.setdefault(int(r["micro"]), [0, 0])
        c[int(r["pos"])] = int(r["n"])
    ts = sorted(h)
    tot_pos = sum(c[1] for c in h.values())
    tot_neg = sum(c[0] for c in h.values())
    cp = cn = 0
    best = None  # (errors, threshold_micro, predict_low_is_pos)
    for t in ts:
        cp += h[t][1]
        cn += h[t][0]
        # orientation A: positive iff quality <= t
        err_a = (tot_pos - cp) + cn
        # orientation B: positive iff quality > t
        err_b = cp + (tot_neg - cn)
        for err, low_pos in ((err_a, 1), (err_b, 0)):
            key = (err, t, low_pos)
            if best is None or key < best:
                best = key
    err, t_micro, low_pos = best
    n_total = tot_pos + tot_neg
    return pa.table(
        {
            "threshold": pa.array([t_micro / 1_000_000.0], pa.float64()),
            "predict_low_is_pos": pa.array([low_pos], pa.int64()),
            "errors": pa.array([err], pa.int64()),
            "accuracy": pa.array(
                [
                    float(
                        _round_half_away(
                            np.array([(n_total - err) / n_total]), 6
                        )[0]
                    )
                ],
                pa.float64(),
            ),
        }
    )


_STUMP_SQL = """
WITH q AS ({QUALITY}),
lab AS (SELECT q.doc_id, CAST(ROUND(q.quality * 1000000, 0) AS BIGINT)
        AS micro,
        CASE WHEN d.source = 'src0' THEN 1 ELSE 0 END AS pos
        FROM q JOIN documents d USING (doc_id)),
h AS (SELECT micro, SUM(pos) AS np, SUM(1 - pos) AS nn
      FROM lab GROUP BY micro),
t AS (SELECT SUM(np) AS tp, SUM(nn) AS tn FROM h),
c AS (SELECT micro,
      SUM(np) OVER (ORDER BY micro ROWS UNBOUNDED PRECEDING) AS cp,
      SUM(nn) OVER (ORDER BY micro ROWS UNBOUNDED PRECEDING) AS cn
      FROM h),
e AS (SELECT micro, (t.tp - cp) + cn AS err, 1 AS low_pos FROM c, t
      UNION ALL
      SELECT micro, cp + (t.tn - cn) AS err, 0 AS low_pos FROM c, t),
b AS (SELECT micro, err, low_pos,
      ROW_NUMBER() OVER (ORDER BY err, micro, low_pos) AS rn FROM e),
n AS (SELECT tp + tn AS total FROM t)
SELECT ROUND(b.micro / 1000000.0, 6) AS threshold,
       CAST(b.low_pos AS BIGINT) AS predict_low_is_pos,
       CAST(b.err AS BIGINT) AS errors,
       ROUND((n.total - b.err) * 1.0 / n.total, 6) AS accuracy
FROM b, n WHERE b.rn = 1
"""


_HEAPS_CHECKPOINTS = (100, 200, 300, 400, 500)


def q_heaps_law(sf_dir: str):
    """Heaps'-law vocabulary growth: distinct-word count after the
    first k documents (k at fixed doc_id-ordered checkpoints) plus the
    two-point log-log slope β between the first and last checkpoint —
    V(n) ≈ K·n^β. The sequential-looking cumulative vocabulary
    DISTRIBUTES as a min-first-doc-per-word groupby followed by a tiny
    threshold count — no ordered scan anywhere."""
    import ray.data as rd
    from ray.data.aggregate import Min

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def words(tbl: pa.Table) -> pa.Table:
        import re as _re

        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        out_w, out_d = [], []
        for i, t in enumerate(tbl.column("text").to_pylist()):
            seen = set(_re.findall(r"[a-z]+", (t or "").lower()))
            out_w.extend(seen)
            out_d.extend([int(ids[i])] * len(seen))
        return pa.table(
            {
                "word": pa.array(out_w, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
            }
        )

    firsts = (
        docs.map_batches(words, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Min("doc_id", alias_name="first_doc"))
        .take_all()
    )
    # doc_ids are dense 0..N-1 in this corpus: the k-th doc threshold
    # is doc_id < k (pinned by the oracle either way)
    fd = np.array([int(r["first_doc"]) for r in firsts], dtype=np.int64)
    ks, vs = [], []
    for k in _HEAPS_CHECKPOINTS:
        ks.append(k)
        vs.append(int((fd < k).sum()))
    v1, vL = vs[0], vs[-1]
    n1, nL = ks[0], ks[-1]
    beta = (
        float(np.log(vL / v1) / np.log(nL / n1)) if v1 and vL else 0.0
    )
    return pa.table(
        {
            "n_docs": pa.array(ks, pa.int64()),
            "vocab": pa.array(vs, pa.int64()),
            "beta": pa.array(
                [float(_round_half_away(np.array([beta]), 6)[0])] * len(ks),
                pa.float64(),
            ),
        }
    )


def _heaps_sql() -> str:
    ks = ", ".join(str(k) for k in _HEAPS_CHECKPOINTS)
    k1, kl = _HEAPS_CHECKPOINTS[0], _HEAPS_CHECKPOINTS[-1]
    return f"""
WITH w AS (SELECT doc_id, unnest(regexp_extract_all(
           lower(COALESCE(text, '')), '[a-z]+')) AS word FROM documents),
f AS (SELECT word, MIN(doc_id) AS first_doc FROM w GROUP BY word),
ck AS (SELECT unnest(ARRAY[{ks}]) AS n_docs),
v AS (SELECT ck.n_docs, CAST(COUNT(*) AS BIGINT) AS vocab
      FROM ck LEFT JOIN f ON f.first_doc < ck.n_docs GROUP BY ck.n_docs),
b AS (SELECT ROUND(LN(CAST(vl.vocab AS DOUBLE) / v1.vocab)
      / LN({kl}.0 / {k1}.0), 6) AS beta
      FROM (SELECT vocab FROM v WHERE n_docs = {k1}) v1,
           (SELECT vocab FROM v WHERE n_docs = {kl}) vl)
SELECT v.n_docs, v.vocab, b.beta FROM v, b
"""


def q_morans_i_degree(sf_dir: str):
    """Moran's I autocorrelation of IN-DEGREE over the directed edge
    relation — do high-in-degree pages link to high-in-degree pages?
    I = (V/E)·Σ_edges (x_u − x̄)(x_v − x̄) / Σ_v (x_v − x̄)², computed
    from EXACT integer moments: with S = Σx (= E) the scaled-by-V²
    quantities decompose as den = Σ_v (V·x_v − S)² = V²·Σx² − V·S² and
    num = Σ_e (V·x_u − S)(V·x_v − S) = V²·Σx_u x_v − V·S·Σ(x_u + x_v)
    + E·S², so the distributed work is plain int64 partial sums (each
    block's partial folds to a Python int on the driver — no big-int
    column, no O(V) driver materialization). Endpoint degrees attach
    via capped_broadcast_join (broadcast under the byte cap,
    co-partitioned hash-join above it — the q_degree_assortativity
    shape)."""
    from signal_collect_ray.functions.joins import capped_broadcast_join

    g = _graph(sf_dir)
    n_v = int(g.vertices_ds().count())
    n_e = int(g.num_edges)
    deg = q_in_degrees(sf_dir)  # (vid, in_degree) — only in-degree ≥ 1

    def deg_moments(tbl: pa.Table) -> pa.Table:
        x = tbl.column("in_degree").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sx2": pa.array([int((x * x).sum())], pa.int64()),
            }
        )

    drows = deg.map_batches(deg_moments, batch_format="pyarrow").take_all()
    s_x = sum(int(r["sx"]) for r in drows)
    sx2 = sum(int(r["sx2"]) for r in drows)
    den = n_v * n_v * sx2 - n_v * s_x * s_x

    def as_x(key: str, out: str):
        def fn(tbl: pa.Table) -> pa.Table:
            return pa.table(
                {key: tbl.column("vid"), out: tbl.column("in_degree")}
            )

        return fn

    e = derived_edges_ds(sf_dir).select_columns(["src", "dst"])
    e = capped_broadcast_join(
        e, deg.map_batches(as_x("src", "xu"), batch_format="pyarrow"),
        on="src", how="left", max_broadcast_bytes=_LOOKUP_CAP(),
    )
    e = capped_broadcast_join(
        e, deg.map_batches(as_x("dst", "xv"), batch_format="pyarrow"),
        on="dst", how="left", max_broadcast_bytes=_LOOKUP_CAP(),
    )

    def edge_moments(tbl: pa.Table) -> pa.Table:
        xu = pa.compute.fill_null(tbl.column("xu"), 0).to_numpy(
            zero_copy_only=False
        )
        xv = pa.compute.fill_null(tbl.column("xv"), 0).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "sxy": pa.array([int((xu * xv).sum())], pa.int64()),
                "sends": pa.array([int(xu.sum() + xv.sum())], pa.int64()),
            }
        )

    erows = e.map_batches(edge_moments, batch_format="pyarrow").take_all()
    sxy = sum(int(r["sxy"]) for r in erows)
    sends = sum(int(r["sends"]) for r in erows)
    num = n_v * n_v * sxy - n_v * s_x * sends + n_e * s_x * s_x
    mi = (n_v * num) / (n_e * den) if den and n_e else 0.0
    return pa.table(
        {
            "n_vertices": pa.array([n_v], pa.int64()),
            "n_edges": pa.array([int(n_e)], pa.int64()),
            "morans_i": pa.array(
                [float(_round_half_away(np.array([mi]), 6)[0])],
                pa.float64(),
            ),
        }
    )


_MORANS_SQL = f"""
WITH e AS MATERIALIZED ({_E_SQL}),
v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e),
d AS (SELECT v.vid, CAST(COALESCE(c.n, 0) AS HUGEINT) AS x
      FROM v LEFT JOIN (SELECT dst, COUNT(*) AS n FROM e GROUP BY dst) c
      ON c.dst = v.vid),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nv,
      CAST(SUM(x) AS HUGEINT) AS sx FROM d),
den AS (SELECT SUM((t.nv * d.x - t.sx) * (t.nv * d.x - t.sx)) AS den
        FROM d, t),
num AS (SELECT SUM((t.nv * a.x - t.sx) * (t.nv * b.x - t.sx)) AS num
        FROM e JOIN d a ON a.vid = e.src JOIN d b ON b.vid = e.dst, t),
ne AS (SELECT CAST(COUNT(*) AS HUGEINT) AS ne FROM e)
SELECT CAST(t.nv AS BIGINT) AS n_vertices, CAST(ne.ne AS BIGINT) AS n_edges,
       CASE WHEN den.den = 0 OR ne.ne = 0 THEN 0.0
       ELSE ROUND(CAST(t.nv * num.num AS DOUBLE)
            / CAST(ne.ne * den.den AS DOUBLE), 6) END AS morans_i
FROM t, den, num, ne
"""


def q_hapax_ratio(sf_dir: str):
    """Vocabulary richness per source: hapax legomena (words occurring
    exactly once within the source) as a fraction of the source's
    distinct vocabulary — the lexical-diversity signal that separates
    template-generated from organic text. One (source, word) count
    exchange, all-integer, half-away-rounded ratio."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )

    def counts(tbl: pa.Table) -> pa.Table:
        import re as _re
        from collections import Counter

        srcs = tbl.column("source").to_pylist()
        c: Counter = Counter()
        for src, t in zip(srcs, tbl.column("text").to_pylist()):
            for w in _re.findall(r"[a-z]+", (t or "").lower()):
                c[(src, w)] += 1
        ks = list(c.keys())
        return pa.table(
            {
                "source": pa.array([k[0] for k in ks], pa.string()),
                "word": pa.array([k[1] for k in ks], pa.string()),
                "n": pa.array(
                    np.fromiter(c.values(), dtype=np.int64, count=len(c)),
                    pa.int64(),
                ),
            }
        )

    rows = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby(["source", "word"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    agg: Dict[str, list] = {}
    for r in rows:
        c = agg.setdefault(r["source"], [0, 0])  # vocab, hapax
        c[0] += 1
        if int(r["n"]) == 1:
            c[1] += 1
    srcs = sorted(agg)
    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "vocab": pa.array([agg[s][0] for s in srcs], pa.int64()),
            "hapax": pa.array([agg[s][1] for s in srcs], pa.int64()),
            "hapax_ratio": pa.array(
                [
                    float(
                        _round_half_away(
                            np.array([agg[s][1] / agg[s][0]]), 6
                        )[0]
                    )
                    for s in srcs
                ],
                pa.float64(),
            ),
        }
    )


_HAPAX_SQL = """
WITH w AS (SELECT source, unnest(regexp_extract_all(
           lower(COALESCE(text, '')), '[a-z]+')) AS word FROM documents),
c AS (SELECT source, word, COUNT(*) AS n FROM w GROUP BY 1, 2)
SELECT source, CAST(COUNT(*) AS BIGINT) AS vocab,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS hapax,
       ROUND(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1.0 / COUNT(*), 6)
       AS hapax_ratio
FROM c GROUP BY source
"""


_BOUNCE_GAP_US = 14_400 * 1_000_000  # same 4h gap as event_sessions


def q_page_bounce_rate(sf_dir: str):
    """Per-entry-page bounce rate: gap-sessionize each user's events
    (the same 4 h convention as event_sessions), attribute each session
    to its FIRST page, bounce = single-event session. One exchange on
    user, vectorized per-partition session splitting (ties by
    event_id), then a tiny per-page fold — the landing-page quality
    metric. All-integer counts; one half-away-rounded ratio."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.util import part_of, segment_starts

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def keyed(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "part": pa.array(part_of(uid, 16), pa.int32()),
                "user_id": tbl.column("user_id"),
                "ts_us": pa.array(
                    tbl.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.int64(),
                ),
                "event_id": tbl.column("event_id"),
            }
        )

    def sessions(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts_us").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t, e = uid[order], ts[order], eid[order]
        brk = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            brk[1:] = (u[1:] != u[:-1]) | (
                (t[1:] - t[:-1]) > _BOUNCE_GAP_US
            )
        starts = np.flatnonzero(brk)
        lens = np.diff(np.append(starts, len(u)))
        entry_page = ((e[starts] * 7) % V_GRAPH).astype(np.int64)
        bounce = (lens == 1).astype(np.int64)
        code = entry_page * 2 + bounce
        uc, n = np.unique(code, return_counts=True)
        return pa.table(
            {
                "page": pa.array(uc // 2, pa.int64()),
                "bounce": pa.array(uc % 2, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sessions, batch_format="pyarrow")
        .groupby(["page", "bounce"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    agg: Dict[int, list] = {}
    for r in rows:
        c = agg.setdefault(int(r["page"]), [0, 0])
        c[int(r["bounce"])] = int(r["n"])
    pages = sorted(agg)
    return pa.table(
        {
            "page": pa.array(pages, pa.int64()),
            "sessions": pa.array(
                [agg[p][0] + agg[p][1] for p in pages], pa.int64()
            ),
            "bounces": pa.array([agg[p][1] for p in pages], pa.int64()),
            "bounce_rate": pa.array(
                [
                    float(
                        _round_half_away(
                            np.array(
                                [agg[p][1] / (agg[p][0] + agg[p][1])]
                            ),
                            6,
                        )[0]
                    )
                    for p in pages
                ],
                pa.float64(),
            ),
        }
    )


_BOUNCE_SQL = f"""
WITH s AS (SELECT user_id, event_id, epoch_us(ts) AS t,
           CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w
                > {_BOUNCE_GAP_US} OR LAG(epoch_us(ts)) OVER w IS NULL
           THEN 1 ELSE 0 END AS brk
           FROM events
           WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
g AS (SELECT user_id, event_id, t,
      SUM(brk) OVER (PARTITION BY user_id ORDER BY t, event_id
                     ROWS UNBOUNDED PRECEDING) AS sess
      FROM s),
agg AS (SELECT event_id,
        COUNT(*) OVER (PARTITION BY user_id, sess) AS len,
        ROW_NUMBER() OVER (PARTITION BY user_id, sess
                           ORDER BY t, event_id) AS rn FROM g),
p AS (SELECT (event_id * 7) % {V_GRAPH} AS page,
      CASE WHEN len = 1 THEN 1 ELSE 0 END AS bounce
      FROM agg WHERE rn = 1)
SELECT page, CAST(COUNT(*) AS BIGINT) AS sessions,
       CAST(SUM(bounce) AS BIGINT) AS bounces,
       ROUND(SUM(bounce) * 1.0 / COUNT(*), 6) AS bounce_rate
FROM p GROUP BY page
"""


def q_langid_f1(sf_dir: str):
    """Per-language precision / recall / F1 of the LanguageId detector
    against the corpus labels, plus Cohen's kappa on every row — the
    classifier-evaluation metrics derived from the confusion counts
    (exact integer TP / row / column sums, half-away-rounded ratios;
    kappa's chance term uses exact integer cross products)."""
    conf = q_lang_confusion(sf_dir).take_all()
    tp: Dict[str, int] = {}
    row: Dict[str, int] = {}
    col: Dict[str, int] = {}
    total = 0
    for r in conf:
        lang, pred, n = r["lang"], r["lang_pred"], int(r["n"])
        total += n
        row[lang] = row.get(lang, 0) + n
        col[pred] = col.get(pred, 0) + n
        if lang == pred:
            tp[lang] = tp.get(lang, 0) + n
    langs = sorted(set(row) | set(col))
    agree = sum(tp.values())
    chance_num = sum(row.get(l, 0) * col.get(l, 0) for l in langs)
    # kappa = (agree/total − chance/total²) / (1 − chance/total²)
    #       = (agree·total − chance_num) / (total² − chance_num)
    kd = total * total - chance_num
    kappa = (agree * total - chance_num) / kd if kd else 0.0
    out = {"lang": [], "precision": [], "recall": [], "f1": [], "kappa": []}
    for l in langs:
        t = tp.get(l, 0)
        p = t / col[l] if col.get(l) else 0.0
        rc = t / row[l] if row.get(l) else 0.0
        f1 = 2 * t / (col.get(l, 0) + row.get(l, 0)) if (
            col.get(l, 0) + row.get(l, 0)
        ) else 0.0
        out["lang"].append(l)
        out["precision"].append(
            float(_round_half_away(np.array([p]), 6)[0])
        )
        out["recall"].append(float(_round_half_away(np.array([rc]), 6)[0]))
        out["f1"].append(float(_round_half_away(np.array([f1]), 6)[0]))
        out["kappa"].append(
            float(_round_half_away(np.array([kappa]), 6)[0])
        )
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "precision": pa.array(out["precision"], pa.float64()),
            "recall": pa.array(out["recall"], pa.float64()),
            "f1": pa.array(out["f1"], pa.float64()),
            "kappa": pa.array(out["kappa"], pa.float64()),
        }
    )


def _langid_f1_sql() -> str:
    return f"""
WITH c AS ({_lang_confusion_sql()}),
langs AS (SELECT lang FROM c UNION SELECT lang_pred FROM c),
rw AS (SELECT lang, SUM(n) AS rn FROM c GROUP BY lang),
cl AS (SELECT lang_pred AS lang, SUM(n) AS cn FROM c GROUP BY lang_pred),
tp AS (SELECT lang, SUM(n) AS t FROM c WHERE lang = lang_pred
       GROUP BY lang),
tot AS (SELECT CAST(SUM(n) AS HUGEINT) AS total,
        CAST(COALESCE((SELECT SUM(t) FROM tp), 0) AS HUGEINT) AS agree
        FROM c),
ch AS (SELECT CAST(SUM(COALESCE(rw.rn, 0) * COALESCE(cl.cn, 0))
       AS HUGEINT) AS chn
       FROM langs l LEFT JOIN rw ON rw.lang = l.lang
       LEFT JOIN cl ON cl.lang = l.lang),
k AS (SELECT CASE WHEN tot.total * tot.total - ch.chn = 0 THEN 0.0
      ELSE ROUND(CAST(tot.agree * tot.total - ch.chn AS DOUBLE)
        / CAST(tot.total * tot.total - ch.chn AS DOUBLE), 6) END AS kappa
      FROM tot, ch)
SELECT l.lang,
  ROUND(CASE WHEN COALESCE(cl.cn, 0) = 0 THEN 0.0
        ELSE COALESCE(tp.t, 0) * 1.0 / cl.cn END, 6) AS precision,
  ROUND(CASE WHEN COALESCE(rw.rn, 0) = 0 THEN 0.0
        ELSE COALESCE(tp.t, 0) * 1.0 / rw.rn END, 6) AS recall,
  ROUND(CASE WHEN COALESCE(cl.cn, 0) + COALESCE(rw.rn, 0) = 0 THEN 0.0
        ELSE 2.0 * COALESCE(tp.t, 0)
          / (COALESCE(cl.cn, 0) + COALESCE(rw.rn, 0)) END, 6) AS f1,
  k.kappa
FROM langs l
LEFT JOIN rw ON rw.lang = l.lang
LEFT JOIN cl ON cl.lang = l.lang
LEFT JOIN tp ON tp.lang = l.lang
CROSS JOIN k
"""


_L2Q_QUANTILES = (50, 90, 99)


def q_log2_quantile_sketch(sf_dir: str):
    """Relative-error quantile sketch with EXACT integer bucketing
    (the DDSketch idea at γ = 2, where the bucket index is just
    bit_length − 1 of the cent amount — no float log anywhere): fixed
    ~40-bucket mergeable histograms per block, one tiny fold, rank
    walk + geometric bucket midpoint (1.5·2^b cents) as the estimate —
    guaranteed within 2× of the true quantile. The honest sketch
    answer when full value histograms are too wide to ship."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )

    def buckets(tbl: pa.Table) -> pa.Table:
        cents = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        cents = np.maximum(cents, 1)
        # bit_length - 1 == floor(log2): exact integer bucketing
        blen = np.array(
            [int(c).bit_length() - 1 for c in cents], dtype=np.int64
        )
        uc, n = np.unique(blen, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(uc, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = sorted(
        (int(r["bucket"]), int(r["n"]))
        for r in ds.map_batches(buckets, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    total = sum(n for _, n in rows)
    out_q, out_e = [], []
    for q in _L2Q_QUANTILES:
        rank = (q * total + 99) // 100  # ceil(q% of total), integer
        run = 0
        est = None
        for b, n in rows:
            run += n
            if run >= rank:
                est = 1.5 * (2 ** b) / 100.0
                break
        out_q.append(q)
        out_e.append(
            float(_round_half_away(np.array([est]), 6)[0])
        )
    return pa.table(
        {
            "quantile_pct": pa.array(out_q, pa.int64()),
            "estimate": pa.array(out_e, pa.float64()),
        }
    )


_L2Q_SQL = f"""
WITH c AS (SELECT GREATEST(CAST(ROUND(value * 100, 0) AS BIGINT), 1)
           AS cents FROM events),
b AS (SELECT length(bin(cents)) - 1 AS bucket, COUNT(*) AS n
      FROM c GROUP BY 1),
t AS (SELECT SUM(n) AS total FROM b),
r AS (SELECT bucket, SUM(n) OVER (ORDER BY bucket
      ROWS UNBOUNDED PRECEDING) AS run FROM b),
q AS (SELECT unnest(ARRAY{list(_L2Q_QUANTILES)}) AS quantile_pct),
sel AS (SELECT q.quantile_pct, MIN(r.bucket) AS bucket
        FROM q CROSS JOIN t
        JOIN r ON r.run >= (q.quantile_pct * t.total + 99) // 100
        GROUP BY q.quantile_pct)
SELECT CAST(quantile_pct AS BIGINT) AS quantile_pct,
       ROUND(1.5 * POWER(2.0, bucket) / 100.0, 6) AS estimate
FROM sel
"""


_HOLT_HORIZON = 7


def q_holt_forecast(sf_dir: str):
    """Holt double-exponential smoothing forecast of daily event counts
    with α = β = 1/2: every level/trend update is then a sum of halves
    of integers — DYADIC rationals, exact in float64 on both sides with
    zero drift — initialized l₀ = x₀, b₀ = x₁ − x₀. Forecast the next
    7 days as l_T + k·b_T. The distributed part is the daily counting;
    the T-step recurrence is O(days) driver scalars, mirrored by a
    chain of scalar CTEs."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )

    def daily(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // 86_400_000_000
        uc, n = np.unique(day, return_counts=True)
        return pa.table(
            {
                "day": pa.array(uc, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = sorted(
        (int(r["day"]), int(r["n"]))
        for r in ds.map_batches(daily, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    xs = [x for _, x in rows]
    last_day = rows[-1][0]
    lvl, trend = float(xs[0]), float(xs[1] - xs[0])
    for x in xs[1:]:
        prev = lvl
        lvl = 0.5 * x + 0.5 * (lvl + trend)
        trend = 0.5 * (lvl - prev) + 0.5 * trend
    out_d, out_f = [], []
    for k in range(1, _HOLT_HORIZON + 1):
        out_d.append(last_day + k)
        out_f.append(
            float(_round_half_away(np.array([lvl + k * trend]), 6)[0])
        )
    return pa.table(
        {
            "day": pa.array(out_d, pa.int64()),
            "forecast": pa.array(out_f, pa.float64()),
        }
    )


def _holt_sql(days: int, horizon: int) -> str:
    """Unrolled scalar-CTE Holt chain: x CTE indexes the day series;
    hb{t} carries (l, b) after absorbing day t."""
    ctes = [
        "x AS MATERIALIZED (SELECT ROW_NUMBER() OVER (ORDER BY day) AS i, "
        "day, n FROM (SELECT epoch_us(ts) // 86400000000 AS day, "
        "CAST(COUNT(*) AS DOUBLE) AS n FROM events GROUP BY 1))",
        "hb1 AS (SELECT a.n AS l, b.n - a.n AS b FROM x a, x b "
        "WHERE a.i = 1 AND b.i = 2)",
    ]
    for t in range(2, days + 1):
        ctes.append(
            f"hb{t} AS (SELECT 0.5 * x.n + 0.5 * (p.l + p.b) AS l, "
            f"0.5 * ((0.5 * x.n + 0.5 * (p.l + p.b)) - p.l) + 0.5 * p.b "
            f"AS b FROM hb{t-1} p, x WHERE x.i = {t})"
        )
    return (
        "WITH "
        + ", ".join(ctes)
        + f", last AS (SELECT MAX(day) AS d FROM x) "
        f"SELECT CAST(last.d + k.k AS BIGINT) AS day, "
        f"ROUND(hb{days}.l + k.k * hb{days}.b, 6) AS forecast "
        f"FROM hb{days}, last, "
        f"LATERAL (SELECT unnest(range(1, {horizon} + 1)) AS k) k"
    )


def q_cusum_changepoints(sf_dir: str):
    """CUSUM change-point detection over the daily event-count series
    (Page 1954): S_t = max(0, S_{t-1} + x_t − μ − k) with allowance
    k = μ/10 and decision threshold h = μ, computed EXACTLY via the
    prefix-minimum reduction S_t = P_t − min_{j≤t} P_j in integers
    scaled by 10·D (μ = A/D stays rational; no float drift ever) — the
    sequential-analysis recurrence becomes two window folds. The
    distributed part is the daily counting; the day series is O(days)
    driver work, mirrored by SUM/MIN OVER windows in the oracle."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )

    def daily(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // 86_400_000_000
        uc, n = np.unique(day, return_counts=True)
        return pa.table(
            {
                "day": pa.array(uc, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = sorted(
        (int(r["day"]), int(r["n"]))
        for r in ds.map_batches(daily, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    days = [d for d, _ in rows]
    xs = [x for _, x in rows]
    a, d_cnt = sum(xs), len(xs)
    # scaled drift: 10*D*x − 11*A per day (μ + μ/10 subtracted)
    prefix, pmin, out_s = 0, 0, []
    for x in xs:
        prefix += 10 * d_cnt * x - 11 * a
        pmin = min(pmin, prefix)
        out_s.append(prefix - pmin)  # ≥ 0, exact int
    # S is in units of 1/(10D); threshold h = μ = A/D → scaled h = 10·A
    flags = [1 if s > 10 * a else 0 for s in out_s]
    return pa.table(
        {
            "day": pa.array(days, pa.int64()),
            "n_events": pa.array(xs, pa.int64()),
            "cusum": pa.array(
                [
                    float(
                        _round_half_away(np.array([s / (10.0 * d_cnt)]), 6)[0]
                    )
                    for s in out_s
                ],
                pa.float64(),
            ),
            "flagged": pa.array(flags, pa.int64()),
        }
    )


_CUSUM_SQL = """
WITH x AS (SELECT epoch_us(ts) // 86400000000 AS day,
           CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1),
t AS (SELECT CAST(SUM(n) AS BIGINT) AS a,
      CAST(COUNT(*) AS BIGINT) AS d FROM x),
p AS (SELECT x.day, x.n,
      SUM(10 * t.d * x.n - 11 * t.a)
        OVER (ORDER BY x.day ROWS UNBOUNDED PRECEDING) AS pre,
      t.a AS a, t.d AS d FROM x, t),
s AS (SELECT day, n, a, d,
      pre - LEAST(0, MIN(pre) OVER (ORDER BY day
        ROWS UNBOUNDED PRECEDING)) AS sv FROM p)
SELECT day, n AS n_events,
       ROUND(sv / (10.0 * d), 6) AS cusum,
       CAST(CASE WHEN sv > 10 * a THEN 1 ELSE 0 END AS BIGINT) AS flagged
FROM s
"""


_DAMP_ALT = 0.5


def q_damping_sensitivity(sf_dir: str):
    """PageRank damping-factor sensitivity: L1 distance and max
    per-vertex shift between 4-step ranks at d = 0.85 vs d = 0.5 —
    the robustness diagnostic run before trusting a centrality-based
    ranking. Two engine runs on the shared graph; the distance folds
    over the 6dp-rounded vectors so both sides quantize identically
    before the norm."""
    from signal_collect_ray.algorithms import PageRank

    t85 = _state(sf_dir, PageRank(0.85), False, 4, eps=0.0, tag="_k4")
    t50 = _state(
        sf_dir, PageRank(_DAMP_ALT), False, 4, eps=0.0, tag="_d50_k4"
    )
    assert t85.column("vid").equals(t50.column("vid"))
    a = np.round(t85.column("state").to_numpy(zero_copy_only=False), 6)
    b = np.round(t50.column("state").to_numpy(zero_copy_only=False), 6)
    d = np.abs(a - b)
    return pa.table(
        {
            "l1_distance": pa.array([round(float(d.sum()), 6)], pa.float64()),
            "max_shift": pa.array([round(float(d.max()), 6)], pa.float64()),
        }
    )


def _damp_sens_sql(k: int) -> str:
    def pr(damp: float, pre: str) -> list:
        base = 1.0 - damp
        ctes = [
            f"{pre}r0 AS (SELECT vid, CAST({base} AS DOUBLE) AS r FROM v)",
        ]
        for i in range(1, k + 1):
            ctes.append(
                f"{pre}r{i} AS MATERIALIZED (SELECT v.vid, {base} + {damp} * "
                f"COALESCE(SUM({pre}r{i-1}.r / od.outd), 0) AS r "
                f"FROM v LEFT JOIN e ON e.dst = v.vid "
                f"LEFT JOIN {pre}r{i-1} ON {pre}r{i-1}.vid = e.src "
                f"LEFT JOIN od ON od.src = e.src GROUP BY v.vid)"
            )
        return ctes

    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd "
        "FROM e GROUP BY src)",
    ]
    ctes += pr(0.85, "a")
    ctes += pr(_DAMP_ALT, "b")
    return (
        "WITH "
        + ", ".join(ctes)
        + f", d AS (SELECT ABS(ROUND(a.r, 6) - ROUND(b.r, 6)) AS d "
        f"FROM ar{k} a JOIN br{k} b ON b.vid = a.vid) "
        "SELECT ROUND(SUM(d), 6) AS l1_distance, "
        "ROUND(MAX(d), 6) AS max_shift FROM d"
    )


def q_rank_per_inlink(sf_dir: str):
    """Rank-per-inlink spam signal: pages whose 4-step PageRank is
    largest RELATIVE to their in-degree accumulate rank without
    editorial links (redirect chains, tight loops) — top-20 by
    (rounded ratio DESC, vid). Composes the rank state with the
    in-degree fold; ratio of 6dp-rounded rank over the exact integer
    degree."""
    pr_t = q_pagerank_k4(sf_dir)
    deg_rows = q_in_degrees(sf_dir).take_all()
    deg = {int(r["vid"]): int(r["in_degree"]) for r in deg_rows}
    vids = pr_t.column("vid").to_numpy(zero_copy_only=False)
    rank = pr_t.column("rank").to_numpy(zero_copy_only=False)
    out = []
    for v, rk in zip(vids, rank):
        d = deg.get(int(v), 0)
        if d > 0:
            out.append(
                (
                    int(v),
                    d,
                    float(_round_half_away(np.array([float(rk) / d]), 6)[0]),
                )
            )
    out.sort(key=lambda x: (-x[2], x[0]))
    out = out[:20]
    return pa.table(
        {
            "vid": pa.array([x[0] for x in out], pa.int64()),
            "in_degree": pa.array([x[1] for x in out], pa.int64()),
            "rank_per_inlink": pa.array([x[2] for x in out], pa.float64()),
        }
    )


def _rank_per_inlink_sql(k: int) -> str:
    return (
        f"WITH pr AS ({_pr_sql(k)}), "
        f"e AS ({_E_SQL}), "
        "d AS (SELECT dst AS vid, CAST(COUNT(*) AS BIGINT) AS in_degree "
        "FROM e GROUP BY dst) "
        "SELECT pr.vid, d.in_degree, "
        "ROUND(pr.rank / d.in_degree, 6) AS rank_per_inlink "
        "FROM pr JOIN d USING (vid) "
        "ORDER BY ROUND(pr.rank / d.in_degree, 6) DESC, pr.vid LIMIT 20"
    )


def q_event_value_mad(sf_dir: str):
    """Robust spread per event type: exact MEDIAN and exact MEDIAN
    ABSOLUTE DEVIATION of the 2-dp value column, via the same
    counting-histogram selection as nation_order_median applied twice
    — the second pass selects from the |cents − med_cents| histogram,
    a pure relabeling of the first pass's histogram (no second scan of
    the raw data). Even-count medians average the two middles (exact
    .5 cents in float64). No global sort anywhere."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
    )

    def hist(tbl: pa.Table) -> pa.Table:
        cents = np.round(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        et = np.asarray(tbl.column("event_type").to_pylist())
        order = np.lexsort((cents, et))
        et, cents = et[order], cents[order]
        changed = np.ones(len(et), dtype=bool)
        if len(et) > 1:
            changed[1:] = (et[1:] != et[:-1]) | (cents[1:] != cents[:-1])
        starts = np.flatnonzero(changed)
        cnt = np.diff(np.append(starts, len(et)))
        return pa.table(
            {
                "event_type": pa.array(et[starts], pa.string()),
                "cents": pa.array(cents[starts], pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    by_t: Dict[str, list] = {}
    for r in rows:
        by_t.setdefault(r["event_type"], []).append(
            (int(r["cents"]), int(r["cnt"]))
        )

    def _median(hist_pairs):
        hist_pairs.sort()
        n = sum(c for _, c in hist_pairs)
        lo_rank, hi_rank = (n + 1) // 2, n // 2 + 1
        run = 0
        lo = hi = None
        for v, c in hist_pairs:
            run += c
            if lo is None and run >= lo_rank:
                lo = v
            if hi is None and run >= hi_rank:
                hi = v
                break
        return (lo + hi) / 2.0

    types = sorted(by_t)
    meds, mads = [], []
    for t in types:
        h = by_t[t]
        med = _median(list(h))
        med_cents = med  # may be x.5 for even counts
        dev = {}
        for v, c in h:
            d = abs(v - med_cents)
            # deviations from an x.5 median are themselves x.5 — scale
            # by 2 to stay integral for the selection walk
            dev[int(round(d * 2))] = dev.get(int(round(d * 2)), 0) + c
        mad2 = _median(sorted(dev.items()))
        meds.append(round(med / 100.0, 6))
        mads.append(round(mad2 / 2.0 / 100.0, 6))
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "median_value": pa.array(meds, pa.float64()),
            "mad_value": pa.array(mads, pa.float64()),
        }
    )


_MAD_SQL = """
WITH c AS (SELECT event_type,
           CAST(ROUND(value * 100, 0) AS BIGINT) AS cents FROM events),
m AS (SELECT event_type, MEDIAN(cents) AS med FROM c GROUP BY event_type),
d AS (SELECT c.event_type, ABS(c.cents - m.med) AS dev
      FROM c JOIN m USING (event_type))
SELECT m.event_type, ROUND(m.med / 100.0, 6) AS median_value,
       ROUND(x.mad / 100.0, 6) AS mad_value
FROM m JOIN (SELECT event_type, MEDIAN(dev) AS mad FROM d
             GROUP BY event_type) x USING (event_type)
"""


_RIDGE_LAMBDA = 1  # integer ridge so the normal equations stay exact


def q_ridge_price_model(sf_dir: str):
    """Closed-form ridge regression fitted DISTRIBUTED: predict the
    line price (cents) from quantity and discount (percent) via the
    normal equations — per-block integer moment partials (n, Σq, Σd,
    Σq², Σqd, Σd², Σy, Σqy, Σdy; quantities integral, 2-dp money as
    exact cents), one tiny fold, then the 3×3 (XᵀX + λI)⁻¹Xᵀy solve by
    integer adjugate/determinant in unbounded Python ints — bit-exact
    against the oracle's HUGEINT arithmetic; the only floats are the
    three final divisions, identical expressions on both sides."""
    import ray.data as rd

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_quantity", "l_extendedprice", "l_discount"],
    )

    def moments(tbl: pa.Table) -> pa.Table:
        q = np.rint(
            tbl.column("l_quantity").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        d = np.rint(
            tbl.column("l_discount").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        y = np.rint(
            tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        vals = [
            len(q), q.sum(), d.sum(), (q * q).sum(), (q * d).sum(),
            (d * d).sum(), y.sum(), (q * y).sum(), (d * y).sum(),
        ]
        return pa.table(
            {
                "k": pa.array(list(range(9)), pa.int64()),
                "v": pa.array([int(x) for x in vals], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    rows = (
        li.map_batches(moments, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("v", alias_name="v"))
        .take_all()
    )
    m = {int(r["k"]): int(r["v"]) for r in rows}
    n, sq, sd, sqq, sqd, sdd, sy, sqy, sdy = (m[i] for i in range(9))
    lam = _RIDGE_LAMBDA
    # A = X'X + lam*I (X columns: 1, quantity, discount%), b = X'y
    a = [
        [n + lam, sq, sd],
        [sq, sqq + lam, sqd],
        [sd, sqd, sdd + lam],
    ]
    b = [sy, sqy, sdy]
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    # Cramer numerators: replace column i with b
    nums = []
    for i in range(3):
        c = [row[:] for row in a]
        for r3 in range(3):
            c[r3][i] = b[r3]
        nums.append(
            c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
            - c[0][1] * (c[1][0] * c[2][2] - c[1][2] * c[2][0])
            + c[0][2] * (c[1][0] * c[2][1] - c[1][1] * c[2][0])
        )
    beta = [round(float(x) / float(det), 6) for x in nums]
    return pa.table(
        {
            "coef": pa.array(
                ["intercept_cents", "per_unit_cents", "per_discount_pct"],
                pa.string(),
            ),
            "value": pa.array(beta, pa.float64()),
        }
    )


_RIDGE_SQL = f"""
WITH m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
  SUM(CAST(CAST(ROUND(l_quantity, 0) AS BIGINT) AS HUGEINT)) AS sq,
  SUM(CAST(CAST(ROUND(l_discount * 100, 0) AS BIGINT) AS HUGEINT)) AS sd,
  SUM(CAST(CAST(ROUND(l_quantity, 0) AS BIGINT) AS HUGEINT)
    * CAST(ROUND(l_quantity, 0) AS BIGINT)) AS sqq,
  SUM(CAST(CAST(ROUND(l_quantity, 0) AS BIGINT) AS HUGEINT)
    * CAST(ROUND(l_discount * 100, 0) AS BIGINT)) AS sqd,
  SUM(CAST(CAST(ROUND(l_discount * 100, 0) AS BIGINT) AS HUGEINT)
    * CAST(ROUND(l_discount * 100, 0) AS BIGINT)) AS sdd,
  SUM(CAST(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT) AS HUGEINT))
    AS sy,
  SUM(CAST(CAST(ROUND(l_quantity, 0) AS BIGINT) AS HUGEINT)
    * CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)) AS sqy,
  SUM(CAST(CAST(ROUND(l_discount * 100, 0) AS BIGINT) AS HUGEINT)
    * CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)) AS sdy
  FROM lineitem),
a AS (SELECT n + {_RIDGE_LAMBDA} AS a00, sq AS a01, sd AS a02,
      sq AS a10, sqq + {_RIDGE_LAMBDA} AS a11, sqd AS a12,
      sd AS a20, sqd AS a21, sdd + {_RIDGE_LAMBDA} AS a22,
      sy AS b0, sqy AS b1, sdy AS b2 FROM m),
d AS (SELECT a00 * (a11 * a22 - a12 * a21)
      - a01 * (a10 * a22 - a12 * a20)
      + a02 * (a10 * a21 - a11 * a20) AS det,
      b0 * (a11 * a22 - a12 * a21)
      - a01 * (b1 * a22 - a12 * b2)
      + a02 * (b1 * a21 - a11 * b2) AS n0,
      a00 * (b1 * a22 - a12 * b2)
      - b0 * (a10 * a22 - a12 * a20)
      + a02 * (a10 * b2 - b1 * a20) AS n1,
      a00 * (a11 * b2 - b1 * a21)
      - a01 * (a10 * b2 - b1 * a20)
      + b0 * (a10 * a21 - a11 * a20) AS n2
      FROM a)
SELECT 'intercept_cents' AS coef,
       ROUND(CAST(n0 AS DOUBLE) / CAST(det AS DOUBLE), 6) AS value FROM d
UNION ALL SELECT 'per_unit_cents',
       ROUND(CAST(n1 AS DOUBLE) / CAST(det AS DOUBLE), 6) FROM d
UNION ALL SELECT 'per_discount_pct',
       ROUND(CAST(n2 AS DOUBLE) / CAST(det AS DOUBLE), 6) FROM d
"""


_KANON_K = 5


def q_k_anonymity_risk(sf_dir: str):
    """k-anonymity audit over the event log: equivalence classes on
    the quasi-identifier triple (event_type, hour-of-day, value
    decade); rows in classes smaller than k = 5 are re-identifiable.
    Per-type risky/total counts — the privacy screen run before
    releasing behavioral data. One pre-combined groupby on the quasi
    key; all-integer."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "ts", "value"],
    )

    def quasi(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        val = tbl.column("value").to_numpy(zero_copy_only=False)
        hour = (ts // 3_600_000_000) % 24
        dec = np.floor(val / 10.0).astype(np.int64)
        et = np.asarray(tbl.column("event_type").to_pylist())
        return pa.table(
            {
                "event_type": pa.array(et, pa.string()),
                "hour": pa.array(hour.astype(np.int64), pa.int64()),
                "decade": pa.array(dec, pa.int64()),
                "n": pa.array(np.ones(len(et), dtype=np.int64), pa.int64()),
            }
        )

    classes = (
        ds.map_batches(quasi, batch_format="pyarrow")
        .groupby(["event_type", "hour", "decade"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    agg: Dict[str, list] = {}
    for r in classes:
        a = agg.setdefault(r["event_type"], [0, 0])
        n = int(r["n"])
        a[1] += n
        if n < _KANON_K:
            a[0] += n
    types = sorted(agg)
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "risky_rows": pa.array([agg[t][0] for t in types], pa.int64()),
            "total_rows": pa.array([agg[t][1] for t in types], pa.int64()),
            "risk_rate": pa.array(
                [
                    float(
                        _round_half_away(
                            np.array([agg[t][0] / agg[t][1]]), 6
                        )[0]
                    )
                    for t in types
                ],
                pa.float64(),
            ),
        }
    )


_KANON_SQL = f"""
WITH q AS (SELECT event_type,
           (epoch_us(ts) // 3600000000) % 24 AS hour,
           CAST(FLOOR(value / 10.0) AS BIGINT) AS decade,
           COUNT(*) AS n FROM events GROUP BY 1, 2, 3)
SELECT event_type,
       CAST(SUM(CASE WHEN n < {_KANON_K} THEN n ELSE 0 END) AS BIGINT)
       AS risky_rows,
       CAST(SUM(n) AS BIGINT) AS total_rows,
       ROUND(SUM(CASE WHEN n < {_KANON_K} THEN n ELSE 0 END) * 1.0
             / SUM(n), 6) AS risk_rate
FROM q GROUP BY event_type
"""


_FRESH_BUCKET_US = 30 * 24 * 3_600_000_000  # 30-day decay buckets


def q_fresh_pagerank_k4(sf_dir: str):
    """Freshness-decayed PageRank over the temporal click edges: each
    event contributes weight 2^-bucket where bucket = age // 30 days
    relative to the corpus's newest event — EXACT dyadic rationals, so
    the weight sums are bit-exact on both sides — then 4 steps of
    weighted PageRank (recency-biased authority, the recrawl-priority
    signal). Weight aggregation is one (src, dst) groupby; the rank
    recurrence matches pagerank_weighted's oracle shape."""
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import PageRank

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )
    tmax = int(
        ds.map_batches(
            lambda tbl: pa.table(
                {
                    "m": pa.array(
                        [
                            int(
                                tbl.column("ts")
                                .cast(pa.int64())
                                .to_numpy(zero_copy_only=False)
                                .max()
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).aggregate(Max("m", alias_name="m"))["m"]
    )

    def edges(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        src = uid % V_GRAPH
        dst = (eid * 7) % V_GRAPH
        keep = src != dst
        bucket = (tmax - ts[keep]) // _FRESH_BUCKET_US
        w = np.power(2.0, -bucket.astype(np.float64))
        return pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
                "weight": pa.array(w, pa.float64()),
            }
        )

    g = Graph.build(
        ds.map_batches(edges, batch_format="pyarrow"),
        _work_dir(sf_dir, "graph_fresh"),
        num_partitions=_P,
        dedup="sum",
    )
    eng = _engine(4, eps=0.0)
    info = eng.run(
        g,
        PageRank(),
        run_dir=_work_dir(sf_dir, "run_fresh_pr"),
        resume=False,
        checkpoint_interval=50,
    )
    return _round_state(info.state_table(), "rank", 6)


def _fresh_pr_sql(k: int) -> str:
    ew = (
        f"SELECT user_id % {V_GRAPH} AS src, "
        f"(event_id * 7) % {V_GRAPH} AS dst, "
        f"SUM(POWER(2.0, -(CAST((SELECT MAX(epoch_us(ts)) FROM events) "
        f"- epoch_us(ts) AS BIGINT) // {_FRESH_BUCKET_US}))) AS weight "
        f"FROM events "
        f"WHERE (user_id % {V_GRAPH}) <> ((event_id * 7) % {V_GRAPH}) "
        f"GROUP BY 1, 2"
    )
    ctes = [
        f"e AS MATERIALIZED ({ew})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "sw AS (SELECT src, SUM(weight) AS sw FROM e GROUP BY src)",
        "r0 AS (SELECT vid, CAST(0.15 AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, 0.15 + 0.85 * "
            f"COALESCE(SUM(r{i-1}.r * e.weight / sw.sw), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src "
            f"LEFT JOIN sw ON sw.src = e.src GROUP BY v.vid)"
        )
    return (
        "WITH "
        + ", ".join(ctes)
        + f" SELECT vid, ROUND(r, 6) AS rank FROM r{k}"
    )


_RAKE_STOP_SQL = (
    "['the','and','of','a','to','in','is','it','that','for','on','as',"
    "'with','was','at','by','an','be','this','are','or']"
)


def q_rake_keywords(sf_dir: str):
    """RAKE keyword extraction (Rose et al. 2010): stopword-delimited
    candidate phrases (≤ 4 words), word score deg/freq, phrase score
    Σ word scores, top-20 (functions/text.py rake_keywords — one
    tokenize pass + one (kind, key) groupby fold)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import rake_keywords

    return rake_keywords(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        ),
        top_k=20,
        max_len=4,
    )


_RAKE_SQL = f"""
WITH w AS (SELECT doc_id,
  regexp_extract_all(lower(COALESCE(text, '')), '[a-z]+') AS ws
  FROM documents),
tok AS (SELECT doc_id, i.i AS pos, ws[i.i] AS word
        FROM w, LATERAL (SELECT unnest(range(1, len(ws) + 1)) AS i) i),
ns AS (SELECT doc_id, pos, word FROM tok
       WHERE word NOT IN (SELECT unnest({_RAKE_STOP_SQL}))),
g AS (SELECT doc_id, pos, word,
      pos - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY pos) AS grp
      FROM ns),
runs AS (SELECT doc_id, grp,
         array_to_string(array_agg(word ORDER BY pos), ' ') AS phrase,
         COUNT(*) AS plen FROM g GROUP BY doc_id, grp),
pr AS (SELECT phrase, plen FROM runs WHERE plen <= 4),
pc AS (SELECT phrase, CAST(COUNT(*) AS BIGINT) AS n FROM pr GROUP BY phrase),
pw AS (SELECT phrase, plen, unnest(str_split(phrase, ' ')) AS word FROM pr),
wstat AS (SELECT word, COUNT(*) AS freq, SUM(plen) AS deg
          FROM pw GROUP BY word),
sc AS (SELECT d.phrase, SUM(s.deg * 1.0 / s.freq) AS sc
       FROM (SELECT DISTINCT phrase FROM pr) d,
       LATERAL (SELECT unnest(str_split(d.phrase, ' ')) AS word) u
       JOIN wstat s ON s.word = u.word GROUP BY d.phrase)
SELECT sc.phrase, pc.n, ROUND(sc.sc, 6) AS score
FROM sc JOIN pc USING (phrase)
ORDER BY ROUND(sc.sc, 6) DESC, sc.phrase LIMIT 20
"""


_BPE_K = 8
_BPE_SUBS = 4


def q_bpe_merges(sf_dir: str):
    """First 8 BPE merge operations learned from the corpus (Sennrich
    et al. 2016) — the tokenizer-training primitive: per round, the
    most frequent adjacent token pair merges corpus-wide
    (functions/text.py bpe_merges; one word-count exchange + K
    O(|vocab|) rounds). Oracle: the full K-round recurrence unrolled —
    pair counts, argmax with lexicographic ties, and the nested
    left-to-right string replace — all integer/string exact."""
    import ray.data as rd

    from signal_collect_ray.functions.text import bpe_merges

    return bpe_merges(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        ),
        k=_BPE_K,
        subs=_BPE_SUBS,
    )


def _bpe_sql(k: int, subs: int) -> str:
    ctes = [
        "wc AS MATERIALIZED (SELECT word, CAST(COUNT(*) AS BIGINT) AS freq "
        "FROM (SELECT unnest(regexp_extract_all(lower(COALESCE(text, '')), "
        "'[a-z]+')) AS word FROM documents) GROUP BY word)",
        "v0 AS MATERIALIZED (SELECT ' ' || "
        "array_to_string(str_split(word, ''), ' ') || ' ' AS s, freq "
        "FROM wc)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"pc{i} AS MATERIALIZED (SELECT t[j.j] AS l, t[j.j+1] AS r, "
            f"CAST(SUM(freq) AS BIGINT) AS n FROM "
            f"(SELECT str_split(trim(s), ' ') AS t, freq FROM v{i-1}) x, "
            f"LATERAL (SELECT unnest(range(1, len(t))) AS j) j "
            f"GROUP BY 1, 2)"
        )
        ctes.append(
            f"b{i} AS MATERIALIZED (SELECT l, r, n FROM pc{i} "
            f"ORDER BY n DESC, l, r LIMIT 1)"
        )
        rep = "s"
        for _ in range(subs):
            rep = (
                f"replace({rep}, ' ' || b.l || ' ' || b.r || ' ', "
                f"' ' || b.l || b.r || ' ')"
            )
        ctes.append(
            f"v{i} AS MATERIALIZED (SELECT {rep} AS s, freq "
            f"FROM v{i-1}, b{i} b)"
        )
    union = " UNION ALL ".join(
        f"SELECT {i} AS merge_rank, l AS \"left\", r AS \"right\", n "
        f"FROM b{i}"
        for i in range(1, k + 1)
    )
    return "WITH " + ", ".join(ctes) + " " + union


_WILSON_Z = 1.96


def q_page_ctr_wilson(sf_dir: str):
    """Wilson-lower-bound CTR ranking per page (click vs view events):
    the ranking-under-small-sample-uncertainty idiom — a page with 2/2
    clicks ranks below one with 80/100. k = clicks, n = clicks+views;
    bound = (p̂ + z²/2n − z·√(p̂(1−p̂)/n + z²/4n²)) / (1 + z²/n),
    z = 1.96. One pre-combined (page, type) count exchange; the bound
    is the identical float expression on both sides, rounded 6dp.
    Top-20 by (bound DESC, page)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type"],
    )

    def counts(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        et = np.asarray(tbl.column("event_type").to_pylist())
        keep = (et == "click") | (et == "view")
        page = (eid[keep] * 7) % V_GRAPH
        is_click = (et[keep] == "click").astype(np.int64)
        code = page * 2 + is_click
        uc, n = np.unique(code, return_counts=True)
        return pa.table(
            {
                "page": pa.array(uc // 2, pa.int64()),
                "is_click": pa.array(uc % 2, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby(["page", "is_click"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    agg: Dict[int, list] = {}
    for r in rows:
        c = agg.setdefault(int(r["page"]), [0, 0])
        c[int(r["is_click"])] = int(r["n"])
    pages = sorted(agg)
    out = []
    z = _WILSON_Z
    for p in pages:
        views, clicks = agg[p][0], agg[p][1]
        n = views + clicks
        if n == 0:
            continue
        ph = clicks / n
        bound = (
            ph
            + z * z / (2 * n)
            - z * np.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n))
        ) / (1 + z * z / n)
        out.append((p, clicks, n, round(float(bound), 6)))
    out.sort(key=lambda x: (-x[3], x[0]))
    out = out[:20]
    return pa.table(
        {
            "page": pa.array([x[0] for x in out], pa.int64()),
            "clicks": pa.array([x[1] for x in out], pa.int64()),
            "n": pa.array([x[2] for x in out], pa.int64()),
            "wilson_lb": pa.array([x[3] for x in out], pa.float64()),
        }
    )


_CTR_WILSON_SQL = f"""
WITH c AS (SELECT (event_id * 7) % {V_GRAPH} AS page,
           SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS clicks,
           COUNT(*) AS n FROM events
           WHERE event_type IN ('click', 'view') GROUP BY 1),
w AS (SELECT page, clicks, n,
      clicks * 1.0 / n AS ph FROM c WHERE n > 0)
SELECT page, CAST(clicks AS BIGINT) AS clicks, CAST(n AS BIGINT) AS n,
       ROUND((ph + {_WILSON_Z} * {_WILSON_Z} / (2 * n)
        - {_WILSON_Z} * SQRT(ph * (1 - ph) / n
          + {_WILSON_Z} * {_WILSON_Z} / (4 * n * n)))
       / (1 + {_WILSON_Z} * {_WILSON_Z} / n), 6) AS wilson_lb
FROM w
ORDER BY (ph + {_WILSON_Z} * {_WILSON_Z} / (2 * n)
        - {_WILSON_Z} * SQRT(ph * (1 - ph) / n
          + {_WILSON_Z} * {_WILSON_Z} / (4 * n * n)))
       / (1 + {_WILSON_Z} * {_WILSON_Z} / n) DESC, page
LIMIT 20
"""


_COVISIT_WINDOW_US = 30 * 60 * 1_000_000


def q_covisitation_top20(sf_dir: str):
    """Session co-visitation ('people also viewed'): unordered page
    pairs hit by the SAME user within a 30-minute window, counted over
    event pairs (i before j, ties by event_id), top-20 by (count DESC,
    page_a, page_b). One exchange on user; per-user two-pointer window
    expansion (vectorized searchsorted + range expansion), so the work
    is O(Σ pairs-in-window), never O(events²) across users."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.util import expand_ranges, part_of, segment_starts

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def keyed(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "part": pa.array(part_of(uid, 16), pa.int32()),
                "user_id": tbl.column("user_id"),
                "ts_us": pa.array(
                    tbl.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.int64(),
                ),
                "event_id": tbl.column("event_id"),
            }
        )

    def pairs(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts_us").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t, e = uid[order], ts[order], eid[order]
        page = (e * 7) % V_GRAPH
        codes = []
        starts = segment_starts(u) if len(u) else np.array([], np.int64)
        ends = np.append(starts[1:], len(u))
        for a, b in zip(starts, ends):
            tt, pg = t[a:b], page[a:b]
            hi = np.searchsorted(tt, tt + _COVISIT_WINDOW_US, side="right")
            lo = np.arange(1, len(tt) + 1)
            cnt = hi - lo
            if not cnt.sum():
                continue
            i_rep = np.repeat(np.arange(len(tt)), cnt)
            j_idx = expand_ranges(lo, cnt)
            pa_, pb_ = pg[i_rep], pg[j_idx]
            keep = pa_ != pb_
            a_ = np.minimum(pa_[keep], pb_[keep])
            b_ = np.maximum(pa_[keep], pb_[keep])
            codes.append(a_ * np.int64(V_GRAPH) + b_)
        if codes:
            code = np.concatenate(codes)
            uc, n = np.unique(code, return_counts=True)
        else:
            uc = np.array([], np.int64)
            n = np.array([], np.int64)
        return pa.table(
            {
                "page_a": pa.array(uc // V_GRAPH, pa.int64()),
                "page_b": pa.array(uc % V_GRAPH, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby("part")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby(["page_a", "page_b"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    rows.sort(key=lambda r: (-int(r["n"]), int(r["page_a"]), int(r["page_b"])))
    rows = rows[:20]
    return pa.table(
        {
            "page_a": pa.array([int(r["page_a"]) for r in rows], pa.int64()),
            "page_b": pa.array([int(r["page_b"]) for r in rows], pa.int64()),
            "n": pa.array([int(r["n"]) for r in rows], pa.int64()),
        }
    )


_COVISIT_SQL = f"""
WITH s AS (SELECT user_id, event_id, epoch_us(ts) AS t,
           (event_id * 7) % {V_GRAPH} AS pg FROM events),
p AS (SELECT LEAST(a.pg, b.pg) AS page_a, GREATEST(a.pg, b.pg) AS page_b
      FROM s a JOIN s b ON a.user_id = b.user_id
      AND (b.t > a.t OR (b.t = a.t AND b.event_id > a.event_id))
      AND b.t <= a.t + {_COVISIT_WINDOW_US}
      WHERE a.pg <> b.pg)
SELECT page_a, page_b, CAST(COUNT(*) AS BIGINT) AS n
FROM p GROUP BY 1, 2
ORDER BY n DESC, page_a, page_b LIMIT 20
"""


_BTW_PIVOTS = (0, 16, 32, 48)
_BTW_K = 8  # 2x the max pivot eccentricity observed across sf tiers


def q_betweenness_pivots(sf_dir: str):
    """EXACT Brandes betweenness restricted to a fixed 4-pivot source
    set (the oracle-gated sibling of the rows-only sampled query):
    per-pivot forward σ counting + deepest-first dependency
    accumulation (algorithms/betweenness.py), summed over pivots and
    rounded half-away at 6dp. The oracle unrolls BOTH passes per pivot
    — the forward (dist, σ) recurrence and the level-descending δ
    recurrence — so every path count and every dependency is pinned."""
    from signal_collect_ray.algorithms.betweenness import betweenness_sampled

    return betweenness_sampled(
        _graph(sf_dir), sources=_BTW_PIVOTS, round_half_away=True
    )


def _betweenness_pivots_sql(pivots, k: int) -> str:
    inf = 1 << 40
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
    ]
    finals = []
    for p in pivots:
        pre = f"p{p}_"
        ctes.append(
            f"{pre}b0 AS (SELECT vid, CASE WHEN vid = {p} THEN 0 "
            f"ELSE {inf} END AS dist, "
            f"CASE WHEN vid = {p} THEN 1 ELSE 0 END AS sigma FROM v)"
        )
        for i in range(1, k + 1):
            ctes.append(
                f"{pre}m{i} AS MATERIALIZED (SELECT e.dst AS vid, "
                f"MIN(nb.dist) + 1 AS nd FROM e "
                f"JOIN {pre}b{i-1} nb ON nb.vid = e.src AND nb.dist < {inf} "
                f"GROUP BY e.dst)"
            )
            ctes.append(
                f"{pre}s{i} AS MATERIALIZED (SELECT e.dst AS vid, "
                f"CAST(SUM(nb.sigma) AS BIGINT) AS ns FROM e "
                f"JOIN {pre}b{i-1} nb ON nb.vid = e.src "
                f"JOIN {pre}m{i} m ON m.vid = e.dst AND nb.dist + 1 = m.nd "
                f"GROUP BY e.dst)"
            )
            ctes.append(
                f"{pre}b{i} AS MATERIALIZED (SELECT own.vid, "
                f"CASE WHEN m.nd IS NOT NULL AND m.nd < own.dist "
                f"THEN m.nd ELSE own.dist END AS dist, "
                f"CASE WHEN m.nd IS NOT NULL AND m.nd < own.dist "
                f"THEN s.ns ELSE own.sigma END AS sigma "
                f"FROM {pre}b{i-1} own "
                f"LEFT JOIN {pre}m{i} m ON m.vid = own.vid "
                f"LEFT JOIN {pre}s{i} s ON s.vid = own.vid)"
            )
        ctes.append(
            f"{pre}dl0 AS (SELECT vid, CAST(0 AS DOUBLE) AS delta "
            f"FROM {pre}b{k})"
        )
        for i in range(1, k + 1):
            lvl = k - i
            ctes.append(
                f"{pre}dl{i} AS MATERIALIZED (SELECT f.vid, "
                f"CASE WHEN f.dist = {lvl} THEN COALESCE(agg.s, 0) "
                f"ELSE dp.delta END AS delta "
                f"FROM {pre}b{k} f "
                f"JOIN {pre}dl{i-1} dp ON dp.vid = f.vid "
                f"LEFT JOIN (SELECT e.src AS vid, "
                f"SUM((fa.sigma * 1.0 / fb.sigma) * (1 + dq.delta)) AS s "
                f"FROM e "
                f"JOIN {pre}b{k} fa ON fa.vid = e.src AND fa.dist = {lvl} "
                f"JOIN {pre}b{k} fb ON fb.vid = e.dst "
                f"AND fb.dist = {lvl + 1} "
                f"JOIN {pre}dl{i-1} dq ON dq.vid = e.dst "
                f"GROUP BY e.src) agg ON agg.vid = f.vid)"
            )
        finals.append(
            f"(SELECT vid, CASE WHEN vid = {p} THEN 0.0 ELSE delta END "
            f"AS delta FROM {pre}dl{k})"
        )
    union = " UNION ALL ".join(finals)
    return (
        "WITH "
        + ", ".join(ctes)
        + f", alld AS ({union}) "
        "SELECT vid, ROUND(SUM(delta), 6) AS betweenness "
        "FROM alld GROUP BY vid"
    )


def q_edge_betweenness_top20(sf_dir: str):
    """Girvan-Newman EDGE betweenness from the fixed pivot set: per
    shortest-path-DAG edge σ_v/σ_w·(1+δ_w) summed over pivots, top-20
    by (rounded score, src, dst) — the community-splitting edge ranking
    (algorithms/betweenness.py edge_betweenness_pivots). The oracle
    reuses the per-pivot forward/backward unrolls and emits each edge's
    contribution at its source's BFS level."""
    from signal_collect_ray.algorithms.betweenness import (
        edge_betweenness_pivots,
    )

    return edge_betweenness_pivots(
        _graph(sf_dir), sources=_BTW_PIVOTS, top_k=20
    )


def _edge_betweenness_sql(pivots, k: int, top_k: int = 20) -> str:
    base = _betweenness_pivots_sql(pivots, k)
    # keep the CTE chain, swap the final SELECT for per-edge sums
    ctes = base[: base.rindex(", alld AS ")]
    pieces = []
    for p in pivots:
        pre = f"p{p}_"
        for i in range(1, k + 1):
            lvl = k - i
            pieces.append(
                f"SELECT e.src, e.dst, "
                f"(fa.sigma * 1.0 / fb.sigma) * (1 + dq.delta) AS c "
                f"FROM e "
                f"JOIN {pre}b{k} fa ON fa.vid = e.src AND fa.dist = {lvl} "
                f"JOIN {pre}b{k} fb ON fb.vid = e.dst "
                f"AND fb.dist = {lvl + 1} "
                f"JOIN {pre}dl{i-1} dq ON dq.vid = e.dst"
            )
    union = " UNION ALL ".join(pieces)
    return (
        ctes
        + f", ec AS ({union}) "
        "SELECT src, dst, ROUND(SUM(c), 6) AS betweenness FROM ec "
        "GROUP BY src, dst HAVING ROUND(SUM(c), 6) > 0 "
        f"ORDER BY betweenness DESC, src, dst LIMIT {top_k}"
    )


_HC_SOURCES = (0, 16, 32, 48)


def q_harmonic_closeness(sf_dir: str):
    """Harmonic closeness centrality w.r.t. a deterministic source
    sample (the standard scalable estimator — Boldi & Vigna 2014,
    public literature: exact closeness needs all-pairs BFS, so
    production systems run k pivot BFSs and sum 1/d): four engine SSSP
    runs (one per pivot), then a per-vertex Σ 1/d(s,v) over the pivots.
    At scale the k distance maps union + groupby(vid); at gate scale
    the state tables are small and combine in numpy."""
    from signal_collect_ray.algorithms import SSSP

    acc = {}
    for s in _HC_SOURCES:
        t = _state(sf_dir, SSSP(s), False, 50, tag=f"_hc{s}")
        vid = t.column("vid").to_numpy(zero_copy_only=False)
        d = t.column("state").to_numpy(zero_copy_only=False)
        inv = np.where(np.isfinite(d) & (d > 0), 1.0 / np.maximum(d, 1e-30), 0.0)
        for v, x in zip(vid, inv):
            acc[int(v)] = acc.get(int(v), 0.0) + float(x)
    vids = np.array(sorted(acc), dtype=np.int64)
    h = np.round(np.array([acc[int(v)] for v in vids]), 6)
    return pa.table(
        {"vid": pa.array(vids, pa.int64()), "harmonic": pa.array(h, pa.float64())}
    )


def _harmonic_sql() -> str:
    subs = " UNION ALL ".join(
        f"SELECT vid, dist FROM ({_sssp_sql(_BFS_K, s)})" for s in _HC_SOURCES
    )
    return (
        "SELECT vid, ROUND(SUM(CASE WHEN dist > 0 THEN 1.0 / dist "
        f"ELSE 0 END), 6) AS harmonic FROM ({subs}) GROUP BY vid"
    )


def q_landmark_distances(sf_dir: str):
    """Distance labels to the four pivot landmarks in ONE engine pass
    (algorithms.sssp.LandmarkBFS, byte-packed lanes + bytewise-min
    fold) — same distances as four SSSP runs, one superstep-barrier
    bill. Columns d0/d16/d32/d48 (NULL = unreachable)."""
    from signal_collect_ray.algorithms.sssp import (
        LandmarkBFS,
        unpack_landmark_table,
    )

    t = _state(sf_dir, LandmarkBFS(_HC_SOURCES), False, 50)
    return unpack_landmark_table(t, _HC_SOURCES)


def _landmark_sql() -> str:
    a, b, c, d = (f"({_sssp_sql(_BFS_K, s)})" for s in _HC_SOURCES)
    return (
        f"SELECT a.vid, a.dist AS d0, b.dist AS d16, c.dist AS d32, "
        f"d.dist AS d48 FROM {a} a JOIN {b} b USING (vid) "
        f"JOIN {c} c USING (vid) JOIN {d} d USING (vid)"
    )


def _graph_weighted(sf_dir: str):
    from signal_collect_ray import Graph

    key = (sf_dir, "weighted")
    g = _GRAPH_CACHE.get(key)
    if g is None:
        g = Graph.build(
            derived_edges_weighted_ds(sf_dir),
            _work_dir(sf_dir, "graph_w"),
            num_partitions=_P,
        )
        _GRAPH_CACHE[key] = g
    return g


def q_sssp_weighted_from0(sf_dir: str):
    # exactly 12 Bellman-Ford rounds on BOTH sides (oracle is
    # _ssspw_sql(12)) — parity holds at any scale factor even when some
    # cheapest weighted path needs more than 12 hops (engine stops
    # earlier only at the true fixpoint, which equals round 12 then).
    from signal_collect_ray.algorithms import SSSP

    g = _graph_weighted(sf_dir)
    eng = _engine(12, eps=0.0)
    info = eng.run(
        g, SSSP(0), run_dir=_work_dir(sf_dir, "run_ssspw"), resume=False,
        checkpoint_interval=50,
    )
    t = info.state_table()
    d = t.column("state").to_numpy(zero_copy_only=False)
    dist = [None if not np.isfinite(x) else float(x) for x in d]
    return pa.table({"vid": t.column("vid"), "dist": pa.array(dist, pa.float64())})


def q_chinese_whispers_k1(sf_dir: str):
    from signal_collect_ray.algorithms import ChineseWhispers

    t = _state(sf_dir, ChineseWhispers(), True, 1, eps=0.0, tag="_k1")
    return pa.table({"vid": t.column("vid"), "label": t.column("state")})


def q_seeded_labelprop_k3(sf_dir: str):
    """Semi-supervised label propagation (Zhu & Ghahramani): clamped
    seeds (vid%7==0 → label vid%5), 3 synchronous majority rounds over
    the symmetrized link graph on the engine; unlabeled = -1. Oracle:
    the same recurrence unrolled as a 3-level CTE chain."""
    from signal_collect_ray.algorithms import SeededLabelProp

    t = _state(sf_dir, SeededLabelProp(), True, 3, eps=0.0, tag="_slp3")
    return pa.table({"vid": t.column("vid"), "label": t.column("state")})


def _slp_sql(k: int) -> str:
    """Unrolled seeded-label-propagation oracle: per round, each
    non-seed takes the (count-majority, tie→min) label over labeled
    neighbors, else keeps its previous label; seeds stay clamped."""
    ctes = [
        f"e0 AS MATERIALIZED ({_E_SQL})",
        "e AS (SELECT src, dst FROM e0 UNION SELECT dst AS src, src AS dst FROM e0)",
        "v AS (SELECT src AS vid FROM e0 UNION SELECT dst FROM e0)",
        "s0 AS (SELECT vid, CASE WHEN vid % 7 = 0 THEN vid % 5 END AS label FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"c{i} AS (SELECT e.dst AS vid, s.label, COUNT(*) AS c "
            f"FROM e JOIN s{i-1} s ON s.vid = e.src "
            f"WHERE s.label IS NOT NULL GROUP BY 1, 2)"
        )
        ctes.append(
            f"w{i} AS (SELECT vid, label FROM ("
            f"SELECT vid, label, ROW_NUMBER() OVER (PARTITION BY vid "
            f"ORDER BY c DESC, label ASC) AS rn FROM c{i}) WHERE rn = 1)"
        )
        ctes.append(
            f"s{i} AS MATERIALIZED (SELECT v0.vid, "
            f"CASE WHEN v0.vid % 7 = 0 THEN v0.vid % 5 "
            f"ELSE COALESCE(w.label, s.label) END AS label "
            f"FROM v v0 JOIN s{i-1} s ON s.vid = v0.vid "
            f"LEFT JOIN w{i} w ON w.vid = v0.vid)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, CAST(COALESCE(label, -1) AS BIGINT) AS label FROM s{k}"
    )


def _graph_absorb(sf_dir: str):
    """Reversed derived graph with edge weight 1/outdeg(original src):
    the one-time build bakes the receiver-side degree into the edge so
    AbsorptionProb's collect is a plain commutative signal sum (see
    algorithms/absorption.py)."""
    from ray.data.aggregate import Count

    from signal_collect_ray import Graph
    from signal_collect_ray.functions.joins import capped_broadcast_join

    key = (sf_dir, "absorb")
    g = _GRAPH_CACHE.get(key)
    if g is None:
        edges = derived_edges_ds(sf_dir)
        outd = edges.groupby("src").aggregate(Count(alias_name="outd"))
        j = capped_broadcast_join(edges, outd, on="src")

        def rev(tbl: pa.Table) -> pa.Table:
            d = tbl.column("outd").to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            return pa.table(
                {
                    "src": tbl.column("dst"),
                    "dst": tbl.column("src"),
                    "weight": pa.array(1.0 / d, pa.float64()),
                }
            )

        g = Graph.build(
            j.map_batches(rev, batch_format="pyarrow"),
            _work_dir(sf_dir, "graph_absorb"),
            num_partitions=_P,
        )
        _GRAPH_CACHE[key] = g
    return g


def q_absorption_k4(sf_dir: str):
    """Absorbing-random-walk hit probability: P(uniform walk from v
    reaches the target set {vid%17==0} within 4 steps), engine-run on
    the reversed weighted graph. Oracle: the recurrence unrolled as a
    4-level CTE chain with the SAME h*(1/outd) expression the engine
    evaluates."""
    from signal_collect_ray.algorithms import AbsorptionProb

    g = _graph_absorb(sf_dir)
    eng = _engine(4, eps=0.0)
    info = eng.run(
        g, AbsorptionProb(), run_dir=_work_dir(sf_dir, "run_absorb"),
        resume=False, checkpoint_interval=50,
    )
    return _round_state(info.state_table(), "absorb_p", 6)


def _absorb_sql(k: int) -> str:
    seed = "vid % 17 = 0"
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd FROM e GROUP BY src)",
        f"h0 AS (SELECT vid, CAST(CASE WHEN {seed} THEN 1.0 ELSE 0.0 END"
        " AS DOUBLE) AS h FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"h{i} AS MATERIALIZED (SELECT v.vid, "
            f"CASE WHEN v.{seed} THEN 1.0 "
            f"ELSE COALESCE(SUM(h{i-1}.h * (1.0 / od.outd)), 0.0) END AS h "
            f"FROM v LEFT JOIN e ON e.src = v.vid "
            f"LEFT JOIN h{i-1} ON h{i-1}.vid = e.dst "
            f"LEFT JOIN od ON od.src = v.vid GROUP BY v.vid)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, ROUND(h, 6) AS absorb_p FROM h{k}"
    )


_HIT_K = 8


def q_hitting_time_k8(sf_dir: str):
    """Truncated expected hitting time to the {vid%17==0} target set —
    the expected-steps companion of absorption_k4's hit probability:
    the 8-step iterate of h = 1 + P·h (targets clamped to 0), engine-
    run on the same reversed 1/outdeg-weighted graph
    (algorithms/absorption.py HittingTime)."""
    from signal_collect_ray.algorithms.absorption import HittingTime

    g = _graph_absorb(sf_dir)
    eng = _engine(_HIT_K, eps=0.0)
    info = eng.run(
        g, HittingTime(), run_dir=_work_dir(sf_dir, "run_hitting"),
        resume=False, checkpoint_interval=50,
    )
    return _round_state(info.state_table(), "hit_time", 6)


def _hitting_sql(k: int) -> str:
    seed = "vid % 17 = 0"
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd "
        "FROM e GROUP BY src)",
        "h0 AS (SELECT vid, CAST(0.0 AS DOUBLE) AS h FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"h{i} AS MATERIALIZED (SELECT v.vid, "
            f"CASE WHEN v.{seed} THEN 0.0 "
            f"ELSE 1.0 + COALESCE(SUM(h{i-1}.h * (1.0 / od.outd)), 0.0) "
            f"END AS h "
            f"FROM v LEFT JOIN e ON e.src = v.vid "
            f"LEFT JOIN h{i-1} ON h{i-1}.vid = e.dst "
            f"LEFT JOIN od ON od.src = v.vid GROUP BY v.vid)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, ROUND(h, 6) AS hit_time FROM h{k}"
    )


def q_triangle_total(sf_dir: str):
    from signal_collect_ray.algorithms import total_triangles

    n = total_triangles(derived_edges_ds(sf_dir), num_partitions=32)
    return pa.table({"n_triangles": pa.array([n], pa.int64())})


def q_triangles_per_vertex(sf_dir: str):
    from signal_collect_ray.algorithms import triangle_counts

    key = (sf_dir, "tri_per_vertex")
    out = _RESULT_CACHE.get(key)
    if out is None:
        out = pa.concat_tables(
            list(
                triangle_counts(derived_edges_ds(sf_dir), num_partitions=32)
                .iter_batches(batch_format="pyarrow", batch_size=None)
            )
        )
        _RESULT_CACHE[key] = out
    return out


def q_clustering_coefficient(sf_dir: str):
    from signal_collect_ray.algorithms import clustering_coefficient

    t = pa.concat_tables(
        list(
            clustering_coefficient(derived_edges_ds(sf_dir), num_partitions=32)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    coeff = np.round(t.column("coefficient").to_numpy(zero_copy_only=False), 6)
    return pa.table(
        {"vid": t.column("vid"), "coefficient": pa.array(coeff, pa.float64())}
    )


def q_largest_components(sf_dir: str):
    t = q_component_sizes(sf_dir)
    n = t.column("n_vertices").to_numpy(zero_copy_only=False)
    lab = t.column("label").to_numpy(zero_copy_only=False)
    order = np.lexsort((lab, -n))[:5]
    return t.take(pa.array(order, pa.int64()))


def q_graph_update_events(sf_dir: str):
    """Batch graph mutation driven by the events table: 'click' events
    add edges (user_id%V → event_id*7%V), 'error' events remove them —
    Graph.update in one co-partitioned exchange (GraphEditor parity)."""
    return _updated_graph(sf_dir).edges_ds().select_columns(["src", "dst"])


def _event_edge_deltas(sf_dir: str, kind: str):
    """events → (src, dst) edge deltas of the given event kind
    (click = add, error = remove)."""
    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type"],
    )

    def fn(tbl: pa.Table) -> pa.Table:
        et = tbl.column("event_type").to_pylist()
        keep = np.array([e == kind for e in et], dtype=bool)
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)[keep] % V_GRAPH
        e = (
            tbl.column("event_id").to_numpy(zero_copy_only=False)[keep] * 7
        ) % V_GRAPH
        ok = u != e
        return pa.table(
            {
                "src": pa.array(u[ok], pa.int64()),
                "dst": pa.array(e[ok], pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _updated_graph(sf_dir: str):
    key = (sf_dir, "updated")
    g2 = _GRAPH_CACHE.get(key)
    if g2 is None:
        g2 = _graph(sf_dir).update(
            _work_dir(sf_dir, "graph_upd"),
            add_edges_ds=_event_edge_deltas(sf_dir, "click"),
            remove_edges_ds=_event_edge_deltas(sf_dir, "error"),
        )
        _GRAPH_CACHE[key] = g2
    return g2


def q_pagerank_updated_k4(sf_dir: str):
    """4-step PageRank over the event-MUTATED graph — drives
    Graph.update end-to-end through the rank oracle, not just the edge
    set: a wrong merge/remove shows up in every downstream score."""
    from signal_collect_ray import EngineConfig
    from signal_collect_ray.algorithms import PageRank
    from signal_collect_ray.engine_resident import ResidentEngine

    g2 = _updated_graph(sf_dir)
    eng = ResidentEngine(
        EngineConfig(num_partitions=g2.num_partitions, eps=0.0, max_supersteps=4),
        num_workers=2,
    )
    info = eng.run(
        g2, PageRank(), run_dir=_work_dir(sf_dir, "run_pr_upd_k4"),
        resume=False, checkpoint_interval=50,
    )
    return _round_state(info.state_table(), "rank", 6)


def q_cc_updated(sf_dir: str):
    """Connected components over the event-MUTATED graph — drives
    Graph.update through the exact-label oracle (a wrong merge/remove
    changes component labels), complementing ``pagerank_updated_k4``'s
    score-level check. Same pinned round count as
    ``connected_components``."""
    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import ConnectedComponents

    key = (sf_dir, "cc_updated")
    out = _RESULT_CACHE.get(key)
    if out is None:
        gkey = (sf_dir, "updated_sym")
        gsym = _GRAPH_CACHE.get(gkey)
        if gsym is None:
            g2 = _updated_graph(sf_dir)
            gsym = Graph.build(
                sym_edges(g2.edges_ds().select_columns(["src", "dst"])),
                _work_dir(sf_dir, "graph_upd_sym"),
                num_partitions=_P,
                dedup=True,
            )
            _GRAPH_CACHE[gkey] = gsym
        eng = _engine(_CC_K)
        info = eng.run(
            gsym,
            ConnectedComponents(),
            run_dir=_work_dir(sf_dir, "run_cc_upd"),
            resume=False,
            checkpoint_interval=50,
        )
        t = info.state_table()
        out = pa.table(
            {"vid": t.column("vid"), "label": t.column("state")}
        )
        _RESULT_CACHE[key] = out
    return out


def q_doc_token_counts(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.text import TokenCount

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = ds.map_batches(TokenCount(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_words"])


def q_doc_dedup_exact(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.dedup import dedup_exact

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dedup_exact(ds).select_columns(["doc_id"])


def q_cross_source_dups(sf_dir: str):
    """Cross-source exact-duplicate audit — the contamination /
    syndication detector: clusters of byte-identical normalized text
    (the doc_dedup_exact normalization) that span MORE THAN ONE
    source, reported as (min-doc-id representative, cluster size,
    distinct sources). The corpus's own exact dups are all
    within-source, so the gate runs on the PLANTED relation (the
    _docs_planted idiom: verbatim copies of the 5 smallest doc_ids at
    id + 1e9 under source 'planted') — every planted cluster MUST
    surface with its exact size and source spread, pinning detection,
    not just the empty result. Per-block md5 fingerprints, one
    groupby(fp) for the cluster stats, one distinct-(fp, source) pass
    for the source spread, a capped join of the two tiny cluster
    tables."""
    import hashlib
    import re as _re

    import ray.data as rd
    from ray.data.aggregate import Count, Min

    from signal_collect_ray.functions.joins import capped_broadcast_join

    ws = _re.compile(r"\s+")
    base = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )

    def bump(tbl: pa.Table) -> pa.Table:
        v = tbl.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n = tbl.num_rows
        return pa.table(
            {
                "doc_id": pa.array(v + _DOC_PLANT_OFFSET, pa.int64()),
                "text": tbl.column("text"),
                "source": pa.array(["planted"] * n, pa.string()),
            }
        )

    planted = (
        base.sort("doc_id").limit(_DOC_PLANT_N)
        .map_batches(bump, batch_format="pyarrow")
    )
    ds = base.union(planted)

    def fp(tbl: pa.Table) -> pa.Table:
        texts = tbl.column("text").to_pylist()
        out = [
            hashlib.md5(
                ws.sub(" ", (t or "").lower()).strip().encode()
            ).hexdigest()
            for t in texts
        ]
        return pa.table(
            {
                "fp": pa.array(out, pa.string()),
                "doc_id": tbl.column("doc_id"),
                "source": tbl.column("source"),
            }
        )

    fps = ds.map_batches(fp, batch_format="pyarrow").materialize()
    clusters = (
        fps.groupby("fp")
        .aggregate(
            Min("doc_id", alias_name="rep_doc_id"),
            Count(alias_name="n_docs"),
        )
    )

    def distinct_pairs(tbl: pa.Table) -> pa.Table:
        f = np.asarray(tbl.column("fp").to_pylist(), dtype=object)
        s = np.asarray(tbl.column("source").to_pylist(), dtype=object)
        key = np.char.add(np.char.add(f.astype(str), "\x00"), s.astype(str))
        _, idx = np.unique(key, return_index=True)
        return pa.table(
            {
                "fp": pa.array(f[idx], pa.string()),
                "source": pa.array(s[idx], pa.string()),
            }
        )

    spread = (
        fps.map_batches(distinct_pairs, batch_format="pyarrow")
        .groupby(["fp", "source"])
        .aggregate(Count(alias_name="_c"))
        .groupby("fp")
        .aggregate(Count(alias_name="n_sources"))
    )
    j = capped_broadcast_join(
        clusters, spread, on="fp", max_broadcast_bytes=_LOOKUP_CAP()
    )

    def multi(tbl: pa.Table) -> pa.Table:
        ns = tbl.column("n_sources").to_numpy(zero_copy_only=False)
        t = tbl.filter(pa.array(ns > 1))
        return pa.table(
            {
                "rep_doc_id": t.column("rep_doc_id"),
                "n_docs": t.column("n_docs"),
                "n_sources": t.column("n_sources"),
            }
        )

    return j.map_batches(multi, batch_format="pyarrow")


_CROSS_SOURCE_DUPS_SQL = """
WITH aug AS (SELECT doc_id, text, source FROM documents UNION ALL
     SELECT doc_id + 1000000000, text, 'planted' FROM
     (SELECT doc_id, text FROM documents ORDER BY doc_id LIMIT 5)),
f AS (SELECT doc_id, source,
     trim(regexp_replace(lower(COALESCE(text, '')), '\\s+', ' ', 'g'))
     AS norm FROM aug),
g AS (SELECT norm, MIN(doc_id) AS rep_doc_id,
      CAST(COUNT(*) AS BIGINT) AS n_docs,
      CAST(COUNT(DISTINCT source) AS BIGINT) AS n_sources
      FROM f GROUP BY norm)
SELECT rep_doc_id, n_docs, n_sources FROM g WHERE n_sources > 1
"""


def q_ngram_jaccard_pairs(sf_dir: str):
    """Exact word-5-gram Jaccard pairs at J ≥ 0.8 over the corpus —
    the inverted-index exact path (no sketch, no recall argument); the
    DuckDB oracle computes the same Jaccard over string shingles."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import ngram_jaccard_pairs

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ngram_jaccard_pairs(ds, shingle_k=5, threshold=0.8)


def q_event_sessions(sf_dir: str):
    """Gap-based sessionization of the events log (4 h gap): one hash
    exchange on user_id, vectorized per-user kernel. LAG+cumsum DuckDB
    oracle."""
    import ray.data as rd

    from signal_collect_ray.functions.windows import sessionize

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "value"],
    )
    return sessionize(ds, gap_s=14400.0)


def q_event_windows(sf_dir: str):
    """Hourly tumbling-window count + value sum per event type — the
    partial-per-block aggregation shape (exchange is O(windows × types),
    not O(events))."""
    import ray.data as rd

    from signal_collect_ray.functions.windows import tumbling_window

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type", "value"],
    )
    return tumbling_window(ds, width_s=3600.0)


def q_doc_sample_10pct(sf_dir: str):
    """Deterministic 10% hash sample of documents (train/val-split
    operator) — md5-threshold predicate with an exact DuckDB mirror."""
    import ray.data as rd

    from signal_collect_ray.functions.sampling import hash_sample

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    return hash_sample(ds, key="doc_id", rate=0.1, seed=42)


def q_click_attribution(sf_dir: str):
    """Backward as-of join: every click gets the value of the same
    user's most recent prior view (classic attribution). One hash
    exchange + vectorized per-user merge; DuckDB's native ASOF LEFT
    JOIN is the oracle."""
    import pyarrow.compute as pc
    import ray.data as rd

    from signal_collect_ray.functions.joins import asof_join

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def _prep(typ: str, cols: list):
        def f(tbl: pa.Table) -> pa.Table:
            t = tbl.filter(pc.equal(tbl.column("event_type"), typ))
            out = {c: t.column(c) for c in cols if c != "ts_us"}
            out["ts_us"] = t.column("ts").cast(pa.int64())
            return pa.table({c: out[c] for c in cols})

        return f

    clicks = ev.map_batches(
        _prep("click", ["event_id", "user_id", "ts_us"]),
        batch_format="pyarrow",
    )
    views = ev.map_batches(
        _prep("view", ["user_id", "ts_us", "value"]), batch_format="pyarrow"
    )
    return asof_join(
        clicks, views, on="ts_us", by="user_id", value_cols=["value"]
    )


def q_knn_vec0_top5(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.similarity import knn_brute_force

    from ray.data.aggregate import Min

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    min_id = ds.aggregate(Min("vec_id", alias_name="m"))["m"]

    def _is_min(tbl: pa.Table) -> pa.Table:
        v = tbl.column("vec_id").to_numpy(zero_copy_only=False)
        return tbl.take(pa.array(np.flatnonzero(v == min_id), pa.int64()))

    first = ds.map_batches(_is_min, batch_format="pyarrow").take(1)[0]
    q0 = np.asarray(first["embedding"], dtype=np.float64)
    out = knn_brute_force(ds, q0[None, :], k=5).take_all()
    ids = [r["id"] for r in out]
    scores = [round(r["score"], 4) for r in out]
    return pa.table(
        {"id": pa.array(ids, pa.int64()), "score": pa.array(scores, pa.float64())}
    )


# The coloring runs on a THINNED derivation of the lineitem graph
# (hash-filtered edges) whose max symmetric degree stays ≤ ~36 at every
# scale factor (the full derived graph saturates toward the 500-clique,
# where the signal-bitmask 63-color cap cannot guarantee a proper
# coloring exists). 48 colors > max degree ⇒ the randomized repair
# always has an escape color at every vertex, so it converges to a
# PROPER coloring — the invariant the oracle pins.
_COLORING_NUM_COLORS = 48
_E_COLOR_SQL = (
    f"SELECT DISTINCT l_orderkey % {V_GRAPH} AS src, "
    f"l_partkey % {V_GRAPH} AS dst FROM lineitem "
    f"WHERE (l_orderkey % {V_GRAPH}) <> (l_partkey % {V_GRAPH}) "
    f"AND ((l_orderkey % {V_GRAPH}) * 31 + (l_partkey % {V_GRAPH})) % 29 = 0"
)


def _coloring_graph(sf_dir: str):
    """Symmetric thinned graph for the coloring query (Ray side of
    ``_E_COLOR_SQL``), built once per process per sf_dir."""
    from signal_collect_ray import Graph

    key = (sf_dir, "coloring")
    g = _GRAPH_CACHE.get(key)
    if g is None:

        def thin(tbl: pa.Table) -> pa.Table:
            s = tbl.column("src").to_numpy(zero_copy_only=False)
            d = tbl.column("dst").to_numpy(zero_copy_only=False)
            keep = np.flatnonzero((s * 31 + d) % 29 == 0)
            return tbl.take(pa.array(keep, pa.int64()))

        edges = derived_edges_ds(sf_dir).map_batches(thin, batch_format="pyarrow")
        g = Graph.build(
            sym_edges(edges), _work_dir(sf_dir, "graph_color"),
            num_partitions=_P, dedup=True,
        )
        _GRAPH_CACHE[key] = g
    return g


def q_vertex_coloring(sf_dir: str):
    """Vertex coloring is randomized (reference VertexColoring.scala:38-94
    repairs conflicts with random recolors), so per-vertex colors have no
    SQL mirror — but VALIDITY does: a proper coloring has ZERO monochrome
    edges and every color within [0, num_colors). The query returns the
    validity summary computed distributedly (colors broadcast once via
    ray.put, conflicts counted per edge batch); the oracle derives
    n_vertices from the same lineitem graph and pins the invariants."""
    import ray

    from signal_collect_ray.algorithms import VertexColoring
    from signal_collect_ray.util import isin_sorted

    g = _coloring_graph(sf_dir)
    eng = _engine(100)
    info = eng.run(
        g, VertexColoring(num_colors=_COLORING_NUM_COLORS),
        run_dir=_work_dir(sf_dir, "run_vertex_coloring_col"), resume=False,
        checkpoint_interval=50,
    )
    t = info.state_table()
    vid = t.column("vid").to_numpy(zero_copy_only=False).astype(np.int64)
    col = t.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vid)
    vid_s, col_s = vid[order], col[order]
    ref = ray.put((vid_s, col_s))

    def conflicts(tbl: pa.Table) -> pa.Table:
        vs, cs = ray.get(ref)
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        hs, ps = isin_sorted(vs, s)
        hd, pd = isin_sorted(vs, d)
        mono = hs & hd & (cs[ps] == cs[pd])
        return pa.table({"c": pa.array([int(mono.sum())], pa.int64())})

    n_conflicts = int(
        g.edges_ds().map_batches(conflicts, batch_format="pyarrow").sum("c")
    )
    within = int(
        bool(len(col_s)) and col_s.min() >= 0 and col_s.max() < _COLORING_NUM_COLORS
    )
    return pa.table(
        {
            "n_vertices": pa.array([len(vid_s)], pa.int64()),
            "monochrome_edges": pa.array([n_conflicts], pa.int64()),
            "colors_within_bound": pa.array([within], pa.int64()),
        }
    )


_COLORING_SQL = (
    f"WITH e AS ({_E_COLOR_SQL}), "
    "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e) "
    "SELECT CAST(COUNT(*) AS BIGINT) AS n_vertices, "
    "CAST(0 AS BIGINT) AS monochrome_edges, "
    "CAST(1 AS BIGINT) AS colors_within_bound FROM v"
)


# -- rows-only (non-SQL-expressible) ----------------------------------------


def q_knn_lsh_vec0_top5(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.similarity import knn_lsh

    from ray.data.aggregate import Min

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    min_id = ds.aggregate(Min("vec_id", alias_name="m"))["m"]

    def _is_min(tbl: pa.Table) -> pa.Table:
        v = tbl.column("vec_id").to_numpy(zero_copy_only=False)
        return tbl.take(pa.array(np.flatnonzero(v == min_id), pa.int64()))

    first = ds.map_batches(_is_min, batch_format="pyarrow").take(1)[0]
    q0 = np.asarray(first["embedding"], dtype=np.float64)
    out = knn_lsh(ds, q0[None, :], k=5, n_planes=8, n_tables=8).take_all()
    return pa.table(
        {
            "id": pa.array([r["id"] for r in out], pa.int64()),
            "score": pa.array([round(r["score"], 4) for r in out], pa.float64()),
        }
    )


def q_pagerank_converged(sf_dir: str):
    from signal_collect_ray.algorithms import PageRank

    t = _state(sf_dir, PageRank(), False, 200, eps=1e-6, tag="_conv")
    return _round_state(t, "rank", 5)


def tickets_ds(sf_dir: str):
    """Deterministic PII-bearing 'support ticket' text derived from the
    customer table (the synthetic documents contain no emails/phones/
    IPs, which would make a scrub query vacuous — same derivation
    pattern as the lineitem graph, reconstructible exactly in SQL)."""
    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_mktsegment"],
    )

    def tickets(tbl: pa.Table) -> pa.Table:
        ck = tbl.column("c_custkey").to_numpy(zero_copy_only=False)
        names = tbl.column("c_name").to_pylist()
        segs = tbl.column("c_mktsegment").to_pylist()
        text = [
            f"Reach {nm} at user{k}@example.com or "
            f"{800 + k % 200}-{100 + (k * 7) % 900}-{1000 + (k * 13) % 9000}. "
            f"Server 10.{k % 256}.{(k * 3) % 256}.{(k * 5) % 254 + 1} "
            f"logged segment {sg}."
            for k, nm, sg in zip(ck, names, segs)
        ]
        return pa.table(
            {
                "doc_id": pa.array(ck, pa.int64()),
                "text": pa.array(text, pa.string()),
            }
        )

    return ds.map_batches(tickets, batch_format="pyarrow")


_TICKETS_SQL = (
    "SELECT c_custkey AS doc_id, "
    "'Reach ' || c_name || ' at user' || c_custkey || '@example.com or ' || "
    "CAST(800 + c_custkey % 200 AS VARCHAR) || '-' || "
    "CAST(100 + (c_custkey * 7) % 900 AS VARCHAR) || '-' || "
    "CAST(1000 + (c_custkey * 13) % 9000 AS VARCHAR) || "
    "'. Server 10.' || CAST(c_custkey % 256 AS VARCHAR) || '.' || "
    "CAST((c_custkey * 3) % 256 AS VARCHAR) || '.' || "
    "CAST((c_custkey * 5) % 254 + 1 AS VARCHAR) || "
    "' logged segment ' || c_mktsegment || '.' AS text FROM customer"
)


def q_pii_scrub(sf_dir: str):
    from signal_collect_ray.functions.text import PiiScrub

    return (
        tickets_ds(sf_dir)
        .map_batches(PiiScrub, batch_format="pyarrow", batch_size=2048, concurrency=2)
        .select_columns(["doc_id", "n_emails", "n_ips", "n_phones", "scrubbed"])
    )


def _pii_sql() -> str:
    from signal_collect_ray.functions.text import PII_EMAIL, PII_IPV4, PII_PHONE

    return (
        f"WITH t AS ({_TICKETS_SQL}) "
        f"SELECT doc_id, "
        f"len(regexp_extract_all(text, '{PII_EMAIL}')) AS n_emails, "
        f"len(regexp_extract_all(text, '{PII_IPV4}')) AS n_ips, "
        f"len(regexp_extract_all(text, '{PII_PHONE}')) AS n_phones, "
        f"regexp_replace(regexp_replace(regexp_replace(text, "
        f"'{PII_EMAIL}', '<EMAIL>', 'g'), "
        f"'{PII_IPV4}', '<IP>', 'g'), "
        f"'{PII_PHONE}', '<PHONE>', 'g') AS scrubbed FROM t"
    )


def q_doc_repetition(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.text import RepetitionScore

    return (
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        .map_batches(RepetitionScore, batch_format="pyarrow",
                     batch_size=2048, concurrency=2)
        .select_columns(
            ["doc_id", "dup_word_frac", "top_word_frac", "top_bigram_frac"]
        )
    )


_REPETITION_SQL = """
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
words AS (
  SELECT doc_id, unnest(w) AS word FROM d),
wc AS (
  SELECT doc_id, word, COUNT(*) AS c FROM words WHERE word <> ''
  GROUP BY doc_id, word),
wstats AS (
  SELECT doc_id, SUM(c) AS nw, COUNT(*) AS ndw, MAX(c) AS topc
  FROM wc GROUP BY doc_id),
bigrams AS (
  SELECT doc_id, w[i] || ' ' || w[i + 1] AS bg
  FROM d, unnest(range(1, len(w))) AS t(i)
  WHERE len(w) >= 2 AND w[1] <> ''),
bc AS (
  SELECT doc_id, bg, COUNT(*) AS c FROM bigrams GROUP BY doc_id, bg),
bstats AS (
  SELECT doc_id, SUM(c) AS nb, MAX(c) AS topc FROM bc GROUP BY doc_id)
SELECT d.doc_id,
  ROUND(COALESCE(1.0 - ws.ndw / CAST(ws.nw AS DOUBLE), 0.0), 6) AS dup_word_frac,
  ROUND(COALESCE(ws.topc / CAST(ws.nw AS DOUBLE), 0.0), 6) AS top_word_frac,
  ROUND(COALESCE(bs.topc / CAST(bs.nb AS DOUBLE), 0.0), 6) AS top_bigram_frac
FROM d LEFT JOIN wstats ws ON ws.doc_id = d.doc_id
LEFT JOIN bstats bs ON bs.doc_id = d.doc_id
"""


_BIGRAM_K = 20


def q_top_bigrams(sf_dir: str):
    """Global top-20 collocations (functions.text.top_bigrams)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import top_bigrams

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return top_bigrams(ds, k=_BIGRAM_K)


_TOP_BIGRAMS_SQL = f"""
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
bigrams AS (
  SELECT w[i] || ' ' || w[i + 1] AS bg
  FROM d, unnest(range(1, len(w))) AS t(i)
  WHERE len(w) >= 2 AND w[1] <> ''),
c AS (SELECT bg, CAST(COUNT(*) AS BIGINT) AS n FROM bigrams GROUP BY bg)
SELECT bg, n FROM c ORDER BY n DESC, bg ASC LIMIT {_BIGRAM_K}
"""


def q_zipf_slope(sf_dir: str):
    """Zipf power-law slope per source: least-squares slope of ln(freq)
    on ln(rank) over the top-100 tokens (rank by count desc, token asc)
    — the corpus-health diagnostic that flags template/boilerplate
    sources (slope near 0) vs natural text (near -1). Per-block
    (source, token) partial counts → ONE groupby exchange →
    grouped_top_k bounds everything downstream to 100 rows/source →
    per-source closed-form slope, identical expression to the SQL."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.aggregations import grouped_top_k
    from signal_collect_ray.functions.text import _RE2_NONSPACE_RE

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "text"]
    )

    def counts(tbl: pa.Table) -> pa.Table:
        agg: dict = {}
        for s, t in zip(
            tbl.column("source").to_pylist(), tbl.column("text").to_pylist()
        ):
            # RE2-exact tokenization — must match the oracle's \S+
            for w in _RE2_NONSPACE_RE.findall((t or "").lower()):
                k = (s, w)
                agg[k] = agg.get(k, 0) + 1
        return pa.table(
            {
                "source": pa.array([k[0] for k in agg], pa.string()),
                "tok": pa.array([k[1] for k in agg], pa.string()),
                "n": pa.array(list(agg.values()), pa.int64()),
            }
        )

    freq = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby(["source", "tok"])
        .aggregate(Sum("n", alias_name="c"))
    )
    top = grouped_top_k(freq, "source", "c", "tok", 100, descending=True)

    def slope(tbl: pa.Table) -> pa.Table:
        c = tbl.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        toks = tbl.column("tok").to_numpy(zero_copy_only=False)
        _, tcode = np.unique(toks.astype(str), return_inverse=True)
        order = np.lexsort((tcode, -c))
        y = np.log(c[order].astype(np.float64))
        x = np.log(np.arange(1, len(c) + 1, dtype=np.float64))
        n = float(len(c))
        sx, sy = float(x.sum()), float(y.sum())
        sxy, sxx = float((x * y).sum()), float((x * x).sum())
        sl = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        return pa.table(
            {
                "source": pa.array(
                    [tbl.column("source").to_pylist()[0]], pa.string()
                ),
                "zipf_slope": pa.array(
                    [_round_half_away(np.array([sl]), 6)[0]], pa.float64()
                ),
            }
        )

    return top.groupby("source").map_groups(slope, batch_format="pyarrow")


_ZIPF_SQL = r"""
WITH w AS (SELECT source,
           unnest(regexp_extract_all(lower(COALESCE(text, '')), '\S+')) AS tok
           FROM documents),
f AS (SELECT source, tok, COUNT(*) AS c FROM w GROUP BY 1, 2),
r AS (SELECT source, c, ROW_NUMBER() OVER (PARTITION BY source
      ORDER BY c DESC, tok ASC) AS rnk FROM f),
t AS (SELECT source, ln(CAST(rnk AS DOUBLE)) AS x, ln(CAST(c AS DOUBLE)) AS y
      FROM r WHERE rnk <= 100)
SELECT source,
       ROUND((COUNT(*) * SUM(x * y) - SUM(x) * SUM(y))
             / (COUNT(*) * SUM(x * x) - SUM(x) * SUM(x)), 6) AS zipf_slope
FROM t GROUP BY 1
"""


def q_doc_entropy(sf_dir: str):
    """Unigram word entropy per document (functions.text.EntropyScore)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import EntropyScore

    return (
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        .map_batches(EntropyScore(), batch_format="pyarrow", batch_size=2048)
        .select_columns(["doc_id", "word_entropy"])
    )


_ENTROPY_SQL = """
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
words AS (
  SELECT doc_id, unnest(w) AS word FROM d),
wc AS (
  SELECT doc_id, word, CAST(COUNT(*) AS DOUBLE) AS c FROM words
  WHERE word <> '' GROUP BY doc_id, word),
ws AS (
  SELECT doc_id, SUM(c) AS nw FROM wc GROUP BY doc_id),
h AS (
  SELECT wc.doc_id,
         -SUM((wc.c / ws.nw) * ln(wc.c / ws.nw) / ln(2)) AS ent
  FROM wc JOIN ws ON ws.doc_id = wc.doc_id GROUP BY wc.doc_id)
SELECT d.doc_id, ROUND(COALESCE(h.ent, 0.0), 6) AS word_entropy
FROM d LEFT JOIN h ON h.doc_id = d.doc_id
"""


def q_doc_logprob(sf_dir: str):
    """Corpus-unigram-LM quality score per document (CCNet-style
    perplexity-filter stand-in; functions.text.unigram_logprob)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import unigram_logprob

    return unigram_logprob(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
    )


_LOGPROB_SQL = """
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
words AS (
  SELECT doc_id, unnest(w) AS word FROM d WHERE w[1] <> ''),
wc AS (
  SELECT doc_id, word, CAST(COUNT(*) AS DOUBLE) AS tf FROM words
  WHERE word <> '' GROUP BY doc_id, word),
c AS (SELECT word, SUM(tf) AS c FROM wc GROUP BY word),
n AS (SELECT SUM(c) AS n FROM c),
s AS (
  SELECT wc.doc_id, CAST(SUM(wc.tf) AS BIGINT) AS n_words,
         SUM(wc.tf * ln(c.c)) / SUM(wc.tf) - ANY_VALUE(ln(n.n)) AS lp
  FROM wc JOIN c USING (word) CROSS JOIN n GROUP BY wc.doc_id)
SELECT d.doc_id, COALESCE(s.n_words, 0) AS n_words,
       ROUND(COALESCE(s.lp, 0.0), 6) AS logprob
FROM d LEFT JOIN s USING (doc_id)
"""


_CHUNK_SIZE, _CHUNK_STRIDE = 64, 48


def q_doc_chunks(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.text import ChunkDocuments

    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(
        ChunkDocuments(_CHUNK_SIZE, _CHUNK_STRIDE),
        batch_format="pyarrow",
        batch_size=2048,
    )


_CHUNKS_SQL = f"""
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(COALESCE(text, '')), '\\s+') AS w
  FROM documents),
dd AS (
  SELECT doc_id, w, len(w) AS nw FROM d WHERE w[1] <> ''),
c AS (
  SELECT doc_id, w, unnest(range(0, 1 + CAST(CEIL(
           GREATEST(nw - {_CHUNK_SIZE}, 0) / {float(_CHUNK_STRIDE)}) AS BIGINT)
         )) AS chunk_id
  FROM dd)
SELECT doc_id, chunk_id,
  len(w[chunk_id * {_CHUNK_STRIDE} + 1 : chunk_id * {_CHUNK_STRIDE} + {_CHUNK_SIZE}])
    AS chunk_words,
  array_to_string(
    w[chunk_id * {_CHUNK_STRIDE} + 1 : chunk_id * {_CHUNK_STRIDE} + {_CHUNK_SIZE}],
    ' ') AS chunk_text
FROM c
"""


_CURATE_LANG, _CURATE_MINQ, _CURATE_MAXTW = "en", 0.5, 0.15


def q_corpus_curation(sf_dir: str):
    """Flagship corpus-curation composition: language filter → quality
    floor → repetition ceiling → exact dedup, one streaming pass + one
    shuffle (functions.text.curate_corpus)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import curate_corpus

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return curate_corpus(
        ds,
        lang=_CURATE_LANG,
        min_quality=_CURATE_MINQ,
        max_top_word_frac=_CURATE_MAXTW,
    )


def _curation_sql() -> str:
    """Composition of the lang/quality/repetition mirrors + the exact-
    dedup GROUP BY — each sub-mirror is the same SQL that already gates
    its standalone query, so boundary rows agree by construction."""
    return (
        f"WITH pred AS ({_lang_pred_sql()}), "
        f"q AS ({_QUALITY_SQL}), "
        f"r AS ({_REPETITION_SQL}), "
        "f AS (SELECT d.doc_id, "
        "trim(regexp_replace(lower(COALESCE(d.text, '')), '\\s+', ' ', 'g')) "
        "AS norm FROM documents d "
        "JOIN pred USING (doc_id) JOIN q USING (doc_id) JOIN r USING (doc_id) "
        f"WHERE pred.lang_pred = '{_CURATE_LANG}' "
        f"AND q.quality >= {_CURATE_MINQ} "
        f"AND r.top_word_frac <= {_CURATE_MAXTW}), "
        "s AS (SELECT MIN(doc_id) AS doc_id FROM f GROUP BY norm) "
        "SELECT s.doc_id, pred.lang_pred, q.quality FROM s "
        "JOIN pred ON pred.doc_id = s.doc_id "
        "JOIN q ON q.doc_id = s.doc_id"
    )


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")

_FUNNEL = ("view", "click", "purchase")


def q_funnel_counts(sf_dir: str):
    """Ordered-funnel conversion: users whose FIRST view precedes their
    first click precedes their first purchase. Per-block partial
    min-timestamp per (user, stage) — the exchange carries ≤ |stages|
    rows per user per block — then one groupby(user) reduce; stage
    counts aggregate on the driver (|stages| ints)."""
    import ray.data as rd

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type", "ts"],
    )
    stage_of = {s: i for i, s in enumerate(_FUNNEL)}

    def partial(tbl: pa.Table) -> pa.Table:
        et = tbl.column("event_type").to_pylist()
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        code = np.fromiter(
            (stage_of.get(e, -1) for e in et), np.int64, count=len(et)
        )
        keep = code >= 0
        u, ts, code = u[keep], ts[keep], code[keep]
        key = u * len(_FUNNEL) + code
        order = np.lexsort((ts, key))
        key, ts = key[order], ts[order]
        first = np.r_[True, key[1:] != key[:-1]]
        return pa.table(
            {
                "user_id": pa.array(key[first] // len(_FUNNEL), pa.int64()),
                "stage": pa.array(key[first] % len(_FUNNEL), pa.int64()),
                "ts_us": pa.array(ts[first], pa.int64()),
            }
        )

    def reduce_user(tbl: pa.Table) -> pa.Table:
        st = tbl.column("stage").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts_us").to_numpy(zero_copy_only=False)
        firsts = np.full(len(_FUNNEL), np.iinfo(np.int64).max)
        np.minimum.at(firsts, st, ts)
        # user reaches stage i iff all first-ts up to i exist in order
        depth = 0
        for i in range(len(_FUNNEL)):
            if firsts[i] == np.iinfo(np.int64).max:
                break
            if i > 0 and firsts[i] <= firsts[i - 1]:
                break
            depth = i + 1
        return pa.table({"depth": pa.array([depth], pa.int64())})

    depths = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(reduce_user, batch_format="pyarrow")
        .take_all()
    )
    counts = np.zeros(len(_FUNNEL) + 1, np.int64)
    for r in depths:
        counts[r["depth"]] += 1
    # cumulative: users reaching AT LEAST stage i
    reach = np.cumsum(counts[::-1])[::-1]
    return pa.table(
        {
            "stage": pa.array(list(_FUNNEL), pa.string()),
            "n_users": pa.array(reach[1:], pa.int64()),
        }
    )


def _funnel_sql() -> str:
    return (
        "WITH f AS (SELECT user_id, "
        "MIN(epoch_us(ts)) FILTER (WHERE event_type = 'view') AS t0, "
        "MIN(epoch_us(ts)) FILTER (WHERE event_type = 'click') AS t1, "
        "MIN(epoch_us(ts)) FILTER (WHERE event_type = 'purchase') AS t2 "
        "FROM events GROUP BY user_id), "
        "d AS (SELECT CASE "
        "WHEN t0 IS NULL THEN 0 "
        "WHEN t1 IS NULL OR t1 <= t0 THEN 1 "
        "WHEN t2 IS NULL OR t2 <= t1 THEN 2 "
        "ELSE 3 END AS depth FROM f) "
        "SELECT s.stage, CAST((SELECT COUNT(*) FROM d WHERE depth >= s.i) "
        "AS BIGINT) AS n_users FROM (VALUES ('view', 1), ('click', 2), "
        "('purchase', 3)) AS s(stage, i)"
    )


def q_event_type_pivot(sf_dir: str):
    """Pivot/crosstab: per user, one count column per event type. Per
    block the wide partial rows are built vectorized (np.unique over
    the (user, type-code) composite), then ONE groupby(user) sums the
    partials — the exchange carries at most |types| ints per user per
    block, never event rows."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type"],
    )
    tcode = {t: i for i, t in enumerate(_EVENT_TYPES)}

    def partial(tbl: pa.Table) -> pa.Table:
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        et = tbl.column("event_type").to_pylist()
        c = np.fromiter((tcode[e] for e in et), np.int64, count=len(et))
        key = u * len(_EVENT_TYPES) + c
        uk, cnt = np.unique(key, return_counts=True)
        users = uk // len(_EVENT_TYPES)
        codes = uk % len(_EVENT_TYPES)
        uu = np.unique(users)
        mat = np.zeros((len(uu), len(_EVENT_TYPES)), np.int64)
        rows = np.searchsorted(uu, users)
        mat[rows, codes] = cnt
        cols = {"user_id": pa.array(uu, pa.int64())}
        for i, t in enumerate(_EVENT_TYPES):
            cols[f"n_{t}"] = pa.array(mat[:, i], pa.int64())
        return pa.table(cols)

    aggs = [Sum(f"n_{t}", alias_name=f"n_{t}") for t in _EVENT_TYPES]
    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*aggs)
    )


_PIVOT_SQL = (
    "SELECT user_id, "
    + ", ".join(
        f"COUNT(*) FILTER (WHERE event_type = '{t}') AS n_{t}"
        for t in _EVENT_TYPES
    )
    + " FROM events GROUP BY user_id"
)


_KTRUSS_K, _KTRUSS_ROUNDS = 5, 8


def q_ktruss5(sf_dir: str):
    """5-truss of the link graph (algorithms/ktruss.py — per-edge
    triangle-support peeling on the oriented wedge exchange). Both
    sides run exactly the same R synchronous peel rounds, so the
    unrolled oracle matches even before the fixpoint."""
    from signal_collect_ray.algorithms.ktruss import ktruss

    return ktruss(
        derived_edges_ds(sf_dir).select_columns(["src", "dst"]),
        _KTRUSS_K,
        max_rounds=_KTRUSS_ROUNDS,
    )


def _ktruss_sql() -> str:
    thresh = _KTRUSS_K - 2
    ctes = [
        f"e0 AS MATERIALIZED ({_E_SQL})",
        "u0 AS MATERIALIZED (SELECT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM e0 GROUP BY 1, 2)",
    ]
    for i in range(_KTRUSS_ROUNDS):
        ctes.append(
            f"tri{i} AS (SELECT x.a AS ta, x.b AS tb, y.b AS tc "
            f"FROM u{i} x JOIN u{i} y ON y.a = x.b "
            f"JOIN u{i} z ON z.a = x.a AND z.b = y.b)"
        )
        ctes.append(
            f"supp{i} AS (SELECT a, b, COUNT(*) AS s FROM ("
            f"SELECT ta AS a, tb AS b FROM tri{i} "
            f"UNION ALL SELECT tb, tc FROM tri{i} "
            f"UNION ALL SELECT ta, tc FROM tri{i}) GROUP BY a, b)"
        )
        ctes.append(
            f"u{i+1} AS MATERIALIZED (SELECT u.a, u.b FROM u{i} u "
            f"JOIN supp{i} s ON s.a = u.a AND s.b = u.b "
            f"WHERE s.s >= {thresh})"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT a, b FROM u{_KTRUSS_ROUNDS}"
    )


def q_scc_labels(sf_dir: str):
    """Strongly connected components of the DIRECTED link graph —
    forward-backward coloring over the engine's min-label propagations
    (algorithms/scc.py); the web bowtie analysis. Oracle: mutual
    reachability via a recursive-CTE transitive closure."""
    from signal_collect_ray.algorithms.scc import scc_labels

    return scc_labels(
        derived_edges_ds(sf_dir).select_columns(["src", "dst"]),
        _work_dir(sf_dir, "scc"),
    )


_SCC_SQL = (
    f"WITH RECURSIVE e AS ({_E_SQL}), "
    "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e), "
    "reach(s, t) AS (SELECT src, dst FROM e UNION "
    "SELECT r.s, e.dst FROM reach r JOIN e ON e.src = r.t), "
    "mut AS (SELECT a.s AS x, a.t AS y FROM reach a "
    "JOIN reach b ON b.s = a.t AND b.t = a.s) "
    "SELECT v.vid, CAST(LEAST(v.vid, COALESCE(MIN(m.y), v.vid)) AS BIGINT) "
    "AS scc FROM v LEFT JOIN mut m ON m.x = v.vid GROUP BY v.vid"
)


def q_mis_validity(sf_dir: str):
    """Maximal independent set over the symmetric graph — deterministic
    Luby (algorithms/mis.py). Per-vertex membership has no SQL mirror,
    but VALIDITY does (vertex_coloring pattern): zero in-set edges,
    every OUT vertex dominated by an IN neighbor, all vertices decided.
    The checks run distributedly (membership broadcast once)."""
    import ray

    from signal_collect_ray.algorithms import MaximalIndependentSet
    from signal_collect_ray.algorithms.mis import IN, OUT
    from signal_collect_ray.util import isin_sorted

    t = _state(sf_dir, MaximalIndependentSet(), True, 200, eps=0.0, tag="")
    vid = t.column("vid").to_numpy(zero_copy_only=False).astype(np.int64)
    st = t.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vid)
    vid_s, st_s = vid[order], st[order]
    ref = ray.put((vid_s, st_s))

    def checks(tbl: pa.Table) -> pa.Table:
        vs, ss = ray.get(ref)
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        hs, ps = isin_sorted(vs, s)
        hd, pd = isin_sorted(vs, d)
        both_in = hs & hd & (ss[ps] == IN) & (ss[pd] == IN)
        # per-edge domination marks: src is OUT and dst is IN
        dominated = hs & hd & (ss[ps] == OUT) & (ss[pd] == IN)
        dom_src = np.unique(s[dominated])
        return pa.table(
            {
                "viol": pa.array([int(both_in.sum())], pa.int64()),
                "dom": pa.array([dom_src], pa.list_(pa.int64())),
            }
        )

    g = _graph(sf_dir, True)
    parts = g.edges_ds().map_batches(checks, batch_format="pyarrow").take_all()
    n_viol = sum(r["viol"] for r in parts)
    dominated = set()
    for r in parts:
        dominated.update(int(x) for x in r["dom"])
    out_vs = {int(v) for v, s in zip(vid_s, st_s) if s == OUT}
    uncovered = len(out_vs - dominated)
    undecided = int((st_s == 0).sum())
    return pa.table(
        {
            "n_vertices": pa.array([len(vid_s)], pa.int64()),
            "in_set_edges": pa.array([n_viol], pa.int64()),
            "uncovered_out": pa.array([uncovered], pa.int64()),
            "undecided": pa.array([undecided], pa.int64()),
        }
    )


_MIS_SQL = (
    f"WITH e0 AS ({_E_SQL}), "
    "e AS (SELECT src, dst FROM e0 UNION SELECT dst, src FROM e0), "
    "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e) "
    "SELECT CAST(COUNT(*) AS BIGINT) AS n_vertices, "
    "CAST(0 AS BIGINT) AS in_set_edges, "
    "CAST(0 AS BIGINT) AS uncovered_out, "
    "CAST(0 AS BIGINT) AS undecided FROM v"
)


def q_matching_validity(sf_dir: str):
    """Maximal matching over the symmetric graph — deterministic
    min-id proposal rounds (algorithms/matching.py). The per-vertex
    partner assignment has no SQL mirror, but VALIDITY does (the
    mis_validity pattern): partner pointers symmetric, every matched
    pair backed by a real edge, no edge with both endpoints unmatched
    (maximality), no vertex undecided. The edge checks run
    distributedly (state broadcast once); the O(V) partner-symmetry
    fold is driver-side like mis_validity's — fine at gate scale,
    co-partitioned at 100 TB."""
    import ray

    from signal_collect_ray.algorithms.matching import MaximalMatching
    from signal_collect_ray.util import isin_sorted

    t = _state(sf_dir, MaximalMatching(), True, 200, tag="")
    vid = t.column("vid").to_numpy(zero_copy_only=False).astype(np.int64)
    st = t.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vid)
    vid_s, st_s = vid[order], st[order]
    # partner symmetry: state[state[v]] == v for every matched v
    m = st_s >= 0
    pos = np.searchsorted(vid_s, st_s[m])
    pos_c = np.minimum(pos, len(vid_s) - 1)
    found = (pos < len(vid_s)) & (vid_s[pos_c] == st_s[m])
    sym = found & (st_s[pos_c] == vid_s[m])
    asym = int((~sym).sum())
    ref = ray.put((vid_s, st_s))

    def checks(tbl: pa.Table) -> pa.Table:
        vs, ss = ray.get(ref)
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        hs, ps = isin_sorted(vs, s)
        hd, pd = isin_sorted(vs, d)
        both_un = hs & hd & (ss[ps] < 0) & (ss[pd] < 0)
        # matched-pair edges actually present: src's partner is dst
        backed = hs & (ss[ps] == d)
        return pa.table(
            {
                "viol": pa.array([int(both_un.sum())], pa.int64()),
                "backed": pa.array([np.unique(s[backed])], pa.list_(pa.int64())),
            }
        )

    g = _graph(sf_dir, True)
    parts = g.edges_ds().map_batches(checks, batch_format="pyarrow").take_all()
    both_unmatched_edges = sum(r["viol"] for r in parts)
    backed = set()
    for r in parts:
        backed.update(int(x) for x in r["backed"])
    matched_vs = {int(v) for v, s in zip(vid_s, st_s) if s >= 0}
    unbacked = len(matched_vs - backed)
    undecided = int((st_s <= -2).sum())
    return pa.table(
        {
            "n_vertices": pa.array([len(vid_s)], pa.int64()),
            "asym_partner": pa.array([asym], pa.int64()),
            "unbacked_partner": pa.array([unbacked], pa.int64()),
            "both_unmatched_edges": pa.array([both_unmatched_edges], pa.int64()),
            "undecided": pa.array([undecided], pa.int64()),
        }
    )


_MATCHING_SQL = (
    f"WITH e0 AS ({_E_SQL}), "
    "e AS (SELECT src, dst FROM e0 UNION SELECT dst, src FROM e0), "
    "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e) "
    "SELECT CAST(COUNT(*) AS BIGINT) AS n_vertices, "
    "CAST(0 AS BIGINT) AS asym_partner, "
    "CAST(0 AS BIGINT) AS unbacked_partner, "
    "CAST(0 AS BIGINT) AS both_unmatched_edges, "
    "CAST(0 AS BIGINT) AS undecided FROM v"
)


def q_matching_planted(sf_dir: str):
    """Maximal matching under a FULL-equality oracle on a planted
    fixture: disjoint edges (2i, 2i+1) over the dense customer keys.
    An isolated edge leaves the handshake no choice — maximality forces
    every pair to match — so the expected (vid, partner) table is pure
    SQL arithmetic regardless of the protocol's hashed role draws."""
    from signal_collect_ray import EngineConfig, Graph
    from signal_collect_ray.algorithms.matching import MaximalMatching
    from signal_collect_ray.engine_resident import ResidentEngine

    n2 = (min(_custkeys_dense_n(sf_dir), 900) // 2) * 2

    def pairs(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        k = k[k < n2]
        return pa.table(
            {
                "src": pa.array(k, pa.int64()),
                "dst": pa.array(k ^ 1, pa.int64()),
            }
        )

    g = Graph.build(
        _customer_keys_ds(sf_dir).map_batches(pairs, batch_format="pyarrow"),
        _work_dir(sf_dir, "matching_planted"),
        num_partitions=4,
        dedup=True,
    )
    eng = ResidentEngine(
        EngineConfig(num_partitions=4, eps=1e-6, max_supersteps=200)
    )
    info = eng.run(
        g, MaximalMatching(), run_dir=_work_dir(sf_dir, "run_matching_planted"),
        resume=False, checkpoint_interval=50,
    )
    t = info.state_table()
    vid = t.column("vid").to_numpy(zero_copy_only=False).astype(np.int64)
    st = t.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "vid": pa.array(vid, pa.int64()),
            "partner": pa.array(st, pa.int64(), mask=(st < 0)),
        }
    )


_MATCHING_PLANTED_SQL = (
    "WITH n AS (SELECT (LEAST((SELECT COUNT(*) FROM customer), 900) // 2) * 2 "
    "AS n2) "
    "SELECT c_custkey AS vid, "
    "CAST(xor(c_custkey, 1) AS BIGINT) AS partner "
    "FROM customer, n WHERE c_custkey < n.n2"
)


_OUTLIER_Z = 3.0


def q_event_outliers(sf_dir: str):
    """Per-type z-score outliers (|z| > 3): tiny per-type stats
    aggregate broadcast back over the streaming pass — the canonical
    two-phase split-apply filter, no row shuffle."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Mean, Std, Sum

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )
    # exact population variance from sums (Std's ddof choice would need
    # matching — sums are unambiguous and SQL-mirrorable)
    def moments(tbl: pa.Table) -> pa.Table:
        v = tbl.column("value").to_numpy(zero_copy_only=False)
        return tbl.select(["event_type"]).append_column(
            "v", pa.array(v, pa.float64())
        ).append_column("v2", pa.array(v * v, pa.float64()))

    stats = (
        ev.map_batches(moments, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("v", alias_name="sv"),
            Sum("v2", alias_name="sv2"),
        )
        .take_all()
    )
    table = {
        r["event_type"]: (
            r["sv"] / r["n"],
            max(r["sv2"] / r["n"] - (r["sv"] / r["n"]) ** 2, 0.0) ** 0.5,
        )
        for r in stats
    }
    ref = ray.put(table)

    def flt(tbl: pa.Table) -> pa.Table:
        t = ray.get(ref)
        et = tbl.column("event_type").to_pylist()
        v = tbl.column("value").to_numpy(zero_copy_only=False)
        mu = np.array([t[e][0] for e in et])
        sd = np.array([t[e][1] for e in et])
        # compare the ROUNDED z on both sides so summation-order ulps
        # in mu/sd can't flip a boundary row across the threshold
        z = np.round(np.abs(v - mu) / np.maximum(sd, 1e-300), 6)
        keep = np.flatnonzero(z > _OUTLIER_Z)
        out = tbl.take(pa.array(keep, pa.int64()))
        return pa.table(
            {
                "event_id": out.column("event_id"),
                "event_type": out.column("event_type"),
                "value": out.column("value"),
                "z": pa.array(z[keep], pa.float64()),
            }
        )

    return ev.map_batches(flt, batch_format="pyarrow")


_OUTLIERS_SQL = (
    "WITH s AS (SELECT event_type, COUNT(*) AS n, SUM(value) AS sv, "
    "SUM(value * value) AS sv2 FROM events GROUP BY event_type), "
    "m AS (SELECT event_type, sv / n AS mu, "
    "sqrt(GREATEST(sv2 / n - (sv / n) * (sv / n), 0.0)) AS sd FROM s) "
    "SELECT e.event_id, e.event_type, e.value, "
    "ROUND(abs(e.value - m.mu) / GREATEST(m.sd, 1e-300), 6) AS z "
    "FROM events e JOIN m ON m.event_type = e.event_type "
    f"WHERE ROUND(abs(e.value - m.mu) / GREATEST(m.sd, 1e-300), 6) > {_OUTLIER_Z}"
)


def q_edge_reciprocity(sf_dir: str):
    """Fraction of directed edges whose reverse also exists — the
    reciprocity statistic of the link graph. A self semi-join: reversed
    edges tagged and co-partitioned with forward edges in one exchange;
    emit per-partition counts, reduce on the driver."""
    edges = derived_edges_ds(sf_dir).select_columns(["src", "dst"])

    def tag(reverse: bool):
        from signal_collect_ray.util import part_of

        def fn(tbl: pa.Table) -> pa.Table:
            s = tbl.column("src").to_numpy(zero_copy_only=False)
            d = tbl.column("dst").to_numpy(zero_copy_only=False)
            a, b = (d, s) if reverse else (s, d)
            # directed pair key packed into 32+32 bits, WITHOUT
            # canonicalization: (a,b) and (b,a) must stay distinct for
            # reciprocity
            hi = np.maximum(a, b) if len(a) else a
            if len(hi) and hi.max() >= (1 << 31):
                raise ValueError("edge_reciprocity requires ids < 2^31")
            key = (a.astype(np.int64) << 32) | b.astype(np.int64)
            return pa.table(
                {
                    "gpart": pa.array(part_of(key, 32), pa.int32()),
                    "key": pa.array(key, pa.int64()),
                    "side": pa.array(
                        np.full(len(key), int(reverse), np.int8), pa.int8()
                    ),
                }
            )

        return fn

    fwd = edges.map_batches(tag(False), batch_format="pyarrow")
    rev = edges.map_batches(tag(True), batch_format="pyarrow")

    def count_part(tbl: pa.Table) -> pa.Table:
        side = tbl.column("side").to_numpy(zero_copy_only=False)
        key = tbl.column("key").to_numpy(zero_copy_only=False)
        f = np.unique(key[side == 0])
        r = np.unique(key[side == 1])
        hits = np.isin(f, r, assume_unique=True).sum()
        return pa.table(
            {
                "n_fwd": pa.array([int(len(f))], pa.int64()),
                "n_recip": pa.array([int(hits)], pa.int64()),
            }
        )

    parts = fwd.union(rev).groupby("gpart").map_groups(
        count_part, batch_format="pyarrow"
    ).take_all()
    n = sum(r["n_fwd"] for r in parts)
    h = sum(r["n_recip"] for r in parts)
    return pa.table(
        {
            "n_edges": pa.array([n], pa.int64()),
            "n_reciprocal": pa.array([h], pa.int64()),
            "reciprocity": pa.array([round(h / n, 6) if n else 0.0], pa.float64()),
        }
    )


_RECIPROCITY_SQL = (
    f"WITH e AS MATERIALIZED ({_E_SQL}), "
    "r AS (SELECT COUNT(*) AS h FROM e a SEMI JOIN e b "
    "ON b.src = a.dst AND b.dst = a.src), "
    "n AS (SELECT COUNT(*) AS n FROM e) "
    "SELECT n.n AS n_edges, r.h AS n_reciprocal, "
    "ROUND(CAST(r.h AS DOUBLE) / n.n, 6) AS reciprocity FROM n, r"
)


def q_degree_assortativity(sf_dir: str):
    """Newman (2002, public) degree assortativity over the symmetric
    graph: Pearson correlation of endpoint degrees across edges.
    Endpoint degrees attach via capped_broadcast_join (broadcast under
    the byte cap, co-partitioned hash-join above it); per-block partial
    sums of (j, k, j², k², jk) — products of integer-valued degrees,
    so the float partials are exact and order-independent; one
    driver-side formula."""
    from signal_collect_ray.functions.joins import capped_broadcast_join

    g = _graph(sf_dir, True)
    vds = g.vertices_ds().select_columns(["vid", "out_degree"])

    def as_deg(key: str, out: str):
        def fn(tbl: pa.Table) -> pa.Table:
            return pa.table(
                {
                    key: tbl.column("vid"),
                    out: tbl.column("out_degree").cast(pa.float64()),
                }
            )

        return fn

    e = g.edges_ds().select_columns(["src", "dst"])
    e = capped_broadcast_join(
        e, vds.map_batches(as_deg("src", "dj"), batch_format="pyarrow"),
        on="src", max_broadcast_bytes=_LOOKUP_CAP(),
    )
    e = capped_broadcast_join(
        e, vds.map_batches(as_deg("dst", "dk"), batch_format="pyarrow"),
        on="dst", max_broadcast_bytes=_LOOKUP_CAP(),
    )

    def sums(tbl: pa.Table) -> pa.Table:
        j = tbl.column("dj").to_numpy(zero_copy_only=False)
        k = tbl.column("dk").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "m": pa.array([float(len(j))], pa.float64()),
                "sjk": pa.array([float((j * k).sum())], pa.float64()),
                "sj": pa.array([float((0.5 * (j + k)).sum())], pa.float64()),
                "sj2": pa.array(
                    [float((0.5 * (j * j + k * k)).sum())], pa.float64()
                ),
            }
        )

    parts = e.map_batches(sums, batch_format="pyarrow").take_all()
    m = sum(r["m"] for r in parts)
    sjk = sum(r["sjk"] for r in parts)
    sj = sum(r["sj"] for r in parts)
    sj2 = sum(r["sj2"] for r in parts)
    num = sjk / m - (sj / m) ** 2
    den = sj2 / m - (sj / m) ** 2
    r_coef = num / den if den else 0.0
    return pa.table({"assortativity": pa.array([round(r_coef, 6)], pa.float64())})


def _assortativity_sql() -> str:
    return (
        f"WITH e0 AS MATERIALIZED ({_E_SQL}), "
        "e AS MATERIALIZED (SELECT src, dst FROM e0 "
        "UNION SELECT dst AS src, src AS dst FROM e0), "
        "deg AS (SELECT src AS vid, CAST(COUNT(*) AS DOUBLE) AS d "
        "FROM e GROUP BY src), "
        "je AS (SELECT dj.d AS j, dk.d AS k FROM e "
        "JOIN deg dj ON dj.vid = e.src JOIN deg dk ON dk.vid = e.dst), "
        "s AS (SELECT COUNT(*) AS m, SUM(j * k) AS sjk, "
        "SUM(0.5 * (j + k)) AS sj, SUM(0.5 * (j * j + k * k)) AS sj2 "
        "FROM je) "
        "SELECT ROUND((sjk / m - (sj / m) * (sj / m)) / "
        "(sj2 / m - (sj / m) * (sj / m)), 6) AS assortativity FROM s"
    )


def q_orders_by_nation(sf_dir: str):
    """Order count + revenue per nation: the star-schema pattern —
    orders fact streams, customer/nation dimensions broadcast
    (functions.joins.broadcast_join), one small groupby."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from signal_collect_ray.functions.joins import broadcast_join

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_totalprice"],
    )

    def cents(tbl: pa.Table) -> pa.Table:
        # exact integer cents: order-independent distributed sum (see
        # regional_revenue — float SUM flakes on cent boundaries)
        tp = tbl.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_custkey": tbl.column("o_custkey"),
                "cents": pa.array(
                    np.round(tp * 100.0).astype(np.int64), pa.int64()
                ),
            }
        )

    orders = orders.map_batches(cents, batch_format="pyarrow")
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).rename_columns({"c_custkey": "o_custkey"})
    nation = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    ).rename_columns({"n_nationkey": "c_nationkey"})
    j = broadcast_join(orders, cust, on="o_custkey")
    j = broadcast_join(j, nation, on="c_nationkey")

    def nation_partials(tbl: pa.Table) -> pa.Table:
        # 25-key aggregation: per-block partials so the exchange moves
        # blocks × 25 rows, not the whole fact stream (the full-stream
        # groupby was the stage's dominant wall at sf0.1)
        names = tbl.column("n_name").to_numpy(zero_copy_only=False)
        cts = tbl.column("cents").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(names, return_inverse=True)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        acc = np.zeros(len(uniq), np.int64)
        np.add.at(acc, inv, cts)
        return pa.table(
            {
                "n_name": pa.array(uniq.astype(object), pa.string()),
                "n_orders": pa.array(cnt, pa.int64()),
                "cents": pa.array(acc, pa.int64()),
            }
        )

    agg = (
        j.map_batches(nation_partials, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("cents", alias_name="revenue"),
        )
    )

    def rnd(tbl: pa.Table) -> pa.Table:
        units = tbl.column("revenue").to_numpy(zero_copy_only=False)
        r = _round_half_away(units / 100.0, 2)
        return pa.table(
            {
                "n_name": tbl.column("n_name"),
                "n_orders": tbl.column("n_orders"),
                "revenue": pa.array(r, pa.float64()),
            }
        )

    return agg.map_batches(rnd, batch_format="pyarrow")


_ORDERS_BY_NATION_SQL = (
    "SELECT n.n_name, CAST(COUNT(*) AS BIGINT) AS n_orders, "
    "ROUND(SUM(CAST(ROUND(o.o_totalprice * 100, 0) AS BIGINT)) / 100.0, 2) "
    "AS revenue "
    "FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey "
    "JOIN nation n ON n.n_nationkey = c.c_nationkey "
    "GROUP BY n.n_name"
)


def q_pricing_summary(sf_dir: str):
    """TPC-H-Q1-shaped pricing summary: multi-aggregate per
    (returnflag, linestatus) with per-block partial aggregation — the
    plain relational face of the engine."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount",
        ],
    )

    def disc(tbl: pa.Table) -> pa.Table:
        # exact integer units (cents for base price, 10^-4 dollars for
        # the discounted price) — order-independent distributed sums;
        # quantities are integer-valued doubles, already exact
        ep = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
        d = tbl.column("l_discount").to_numpy(zero_copy_only=False)
        ep_c = np.round(ep * 100.0).astype(np.int64)
        dm = np.round((1.0 - d) * 100.0).astype(np.int64)
        return tbl.append_column(
            "base_cents", pa.array(ep_c, pa.int64())
        ).append_column("disc_units", pa.array(ep_c * dm, pa.int64()))

    agg = li.map_batches(disc, batch_format="pyarrow").groupby(
        ["l_returnflag", "l_linestatus"]
    ).aggregate(
        Sum("l_quantity", alias_name="sum_qty"),
        Sum("base_cents", alias_name="base_cents"),
        Sum("disc_units", alias_name="disc_units"),
        Count(alias_name="count_order"),
    )

    def rnd(tbl: pa.Table) -> pa.Table:
        cols = {c: tbl.column(c) for c in ("l_returnflag", "l_linestatus")}
        cols["sum_qty"] = pa.array(
            _round_half_away(
                tbl.column("sum_qty").to_numpy(zero_copy_only=False), 2
            ),
            pa.float64(),
        )
        cols["sum_base_price"] = pa.array(
            _round_half_away(
                tbl.column("base_cents").to_numpy(zero_copy_only=False)
                / 100.0,
                2,
            ),
            pa.float64(),
        )
        cols["sum_disc_price"] = pa.array(
            _round_half_away(
                tbl.column("disc_units").to_numpy(zero_copy_only=False)
                / 10000.0,
                2,
            ),
            pa.float64(),
        )
        cols["count_order"] = tbl.column("count_order")
        return pa.table(cols)

    return agg.map_batches(rnd, batch_format="pyarrow")


_PRICING_SQL = (
    "SELECT l_returnflag, l_linestatus, "
    "ROUND(SUM(l_quantity), 2) AS sum_qty, "
    "ROUND(SUM(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)) / 100.0, 2) "
    "AS sum_base_price, "
    "ROUND(SUM(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT) "
    "* CAST(ROUND((1 - l_discount) * 100, 0) AS BIGINT)) / 10000.0, 2) "
    "AS sum_disc_price, "
    "CAST(COUNT(*) AS BIGINT) AS count_order "
    "FROM lineitem GROUP BY l_returnflag, l_linestatus"
)


_COCITE_K = 20


def q_cocitation_top20(sf_dir: str):
    """Top-20 'related page' pairs by shared in-link sources
    (algorithms.cocitation.cocitation_top_pairs)."""
    from signal_collect_ray.algorithms.cocitation import cocitation_top_pairs

    return cocitation_top_pairs(derived_edges_ds(sf_dir), k=_COCITE_K)


def _cocitation_sql() -> str:
    return (
        f"WITH e AS MATERIALIZED ({_E_SQL}), "
        "p AS (SELECT a.dst AS id_a, b.dst AS id_b FROM e a "
        "JOIN e b ON a.src = b.src AND a.dst < b.dst), "
        "c AS (SELECT id_a, id_b, CAST(COUNT(*) AS BIGINT) AS n "
        "FROM p GROUP BY id_a, id_b) "
        "SELECT id_a, id_b, n FROM c "
        f"ORDER BY n DESC, id_a ASC, id_b ASC LIMIT {_COCITE_K}"
    )


def q_adamic_adar_top20(sf_dir: str):
    """Top-20 link-prediction pairs by Adamic–Adar score over shared
    in-link sources (algorithms.cocitation.adamic_adar_top_pairs)."""
    from signal_collect_ray.algorithms.cocitation import adamic_adar_top_pairs

    return adamic_adar_top_pairs(derived_edges_ds(sf_dir), k=_COCITE_K)


def _adamic_adar_sql() -> str:
    return (
        f"WITH e AS MATERIALIZED ({_E_SQL}), "
        "deg AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS d "
        "FROM e GROUP BY src), "
        "p AS (SELECT a.dst AS id_a, b.dst AS id_b, 1.0 / ln(deg.d) AS w "
        "FROM e a JOIN e b ON a.src = b.src AND a.dst < b.dst "
        "JOIN deg ON deg.src = a.src), "
        "c AS (SELECT id_a, id_b, ROUND(SUM(w), 6) AS aa "
        "FROM p GROUP BY id_a, id_b) "
        "SELECT id_a, id_b, aa FROM c "
        f"ORDER BY aa DESC, id_a ASC, id_b ASC LIMIT {_COCITE_K}"
    )


def q_jaccard_top20(sf_dir: str):
    """Top-20 link-prediction pairs by Jaccard similarity of in-link
    source sets (algorithms.cocitation.jaccard_top_pairs)."""
    from signal_collect_ray.algorithms.cocitation import jaccard_top_pairs

    return jaccard_top_pairs(derived_edges_ds(sf_dir), k=_COCITE_K)


def _jaccard_sql() -> str:
    return (
        f"WITH e AS MATERIALIZED ({_E_SQL}), "
        "deg AS (SELECT dst, CAST(COUNT(*) AS DOUBLE) AS d "
        "FROM e GROUP BY dst), "
        "p AS (SELECT a.dst AS id_a, b.dst AS id_b FROM e a "
        "JOIN e b ON a.src = b.src AND a.dst < b.dst), "
        "c AS (SELECT id_a, id_b, CAST(COUNT(*) AS DOUBLE) AS n "
        "FROM p GROUP BY id_a, id_b) "
        "SELECT id_a, id_b, "
        "ROUND(n / (da.d + db.d - n), 6) AS jac FROM c "
        "JOIN deg da ON da.dst = id_a JOIN deg db ON db.dst = id_b "
        f"ORDER BY jac DESC, id_a ASC, id_b ASC LIMIT {_COCITE_K}"
    )


# SimRank runs over a deterministically THINNED edge subset: the s2
# double expansion costs Σ|O(u)|·|O(v)| over nonzero-s1 pairs, and the
# derived 500-vertex graph only densifies with sf — the thinning keeps
# the query (and its SQL mirror) at a fixed cost at every gate scale
# while still exercising the full distributed pipeline. Pure integer
# arithmetic (no hash) ⇒ trivially SQL-mirrorable.
_SIMRANK_THIN_MOD = 8
_SIMRANK_E_SQL = (
    f"SELECT src, dst FROM ({_E_SQL}) "
    f"WHERE (src * 31 + dst) % {_SIMRANK_THIN_MOD} = 0"
)


def q_simrank_top20(sf_dir: str):
    """Top-20 pairs by 2-iteration SimRank (algorithms/simrank.py) over
    the thinned derived edge set — integer micro-unit s1 quantization
    keeps both sides bit-identical (no float-sum-order hazard)."""
    from signal_collect_ray.algorithms.simrank import simrank_top_pairs

    def thin(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        keep = (s * 31 + d) % _SIMRANK_THIN_MOD == 0
        return pa.table(
            {
                "src": pa.array(s[keep], pa.int64()),
                "dst": pa.array(d[keep], pa.int64()),
            }
        )

    edges = derived_edges_ds(sf_dir).map_batches(thin, batch_format="pyarrow")
    return simrank_top_pairs(
        edges, k=_COCITE_K, num_partitions=8, lookup_cap_bytes=_LOOKUP_CAP()
    )


def _simrank_sql() -> str:
    return (
        f"WITH e AS MATERIALIZED ({_SIMRANK_E_SQL}), "
        "ind AS (SELECT dst AS vid, CAST(COUNT(*) AS BIGINT) AS deg "
        "FROM e GROUP BY dst), "
        "cc AS (SELECT a.dst AS ua, b.dst AS ub, "
        "CAST(COUNT(*) AS BIGINT) AS cnt FROM e a "
        "JOIN e b ON a.src = b.src AND a.dst < b.dst GROUP BY 1, 2), "
        "n1 AS (SELECT ua, ub, CAST(ROUND(750000.0 * cnt / "
        "(da.deg * db.deg), 0) AS BIGINT) AS n FROM cc "
        "JOIN ind da ON da.vid = ua JOIN ind db ON db.vid = ub), "
        "n1o AS (SELECT ua AS u, ub AS v, n FROM n1 "
        "UNION ALL SELECT ub, ua, n FROM n1 "
        "UNION ALL SELECT DISTINCT src, src, 1000000 FROM e), "
        "num AS (SELECT ea.dst AS a, eb.dst AS b, "
        "CAST(SUM(n1o.n) AS BIGINT) AS s FROM n1o "
        "JOIN e ea ON ea.src = n1o.u JOIN e eb ON eb.src = n1o.v "
        "WHERE ea.dst < eb.dst GROUP BY 1, 2), "
        "sc AS (SELECT a, b, ROUND(0.75 * s / "
        "(1000000.0 * da.deg * db.deg), 6) AS simrank FROM num "
        "JOIN ind da ON da.vid = a JOIN ind db ON db.vid = b) "
        "SELECT a AS id_a, b AS id_b, simrank FROM sc "
        f"ORDER BY simrank DESC, id_a ASC, id_b ASC LIMIT {_COCITE_K}"
    )


def q_salsa_k4(sf_dir: str):
    """4 SALSA rounds (degree-normalized HITS sibling) over the signed
    bidirected build; final L1 normalization of both vectors."""
    from signal_collect_ray.algorithms import Salsa

    g = _hits_graph(sf_dir)
    info = _engine(4, eps=0.0).run(
        g, Salsa(), run_dir=_work_dir(sf_dir, "run_salsa_k4"), resume=False,
        checkpoint_interval=50,
    )
    t = info.state_table()
    hub = t.column("state").to_numpy(zero_copy_only=False)
    auth = t.column("last").to_numpy(zero_copy_only=False)
    hs, as_ = hub.sum(), auth.sum()
    return pa.table(
        {
            "vid": t.column("vid"),
            "hub": pa.array(np.round(hub / hs if hs else hub, 6), pa.float64()),
            "auth": pa.array(np.round(auth / as_ if as_ else auth, 6), pa.float64()),
        }
    )


def _salsa_sql(k: int) -> str:
    """SALSA oracle — simultaneous update, k rounds, final L1
    normalization (mirrors ``algorithms/salsa.py`` exactly: hub_i(u) =
    Σ auth_{i-1}(v)/indeg(v) over out-links u→v; auth_i(v) =
    Σ hub_{i-1}(u)/outdeg(u) over in-links)."""
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS d FROM e GROUP BY src)",
        "idg AS (SELECT dst, CAST(COUNT(*) AS DOUBLE) AS d FROM e GROUP BY dst)",
        "ha0 AS (SELECT vid, CAST(1.0 AS DOUBLE) AS h, CAST(1.0 AS DOUBLE) AS a FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"ha{i} AS MATERIALIZED (SELECT v.vid, "
            f"COALESCE(hb.s, 0) AS h, COALESCE(ab.s, 0) AS a FROM v "
            f"LEFT JOIN (SELECT e.src AS vid, SUM(p.a / idg.d) AS s FROM e "
            f"JOIN ha{i-1} p ON p.vid = e.dst "
            f"JOIN idg ON idg.dst = e.dst GROUP BY e.src) hb ON hb.vid = v.vid "
            f"LEFT JOIN (SELECT e.dst AS vid, SUM(p.h / od.d) AS s FROM e "
            f"JOIN ha{i-1} p ON p.vid = e.src "
            f"JOIN od ON od.src = e.src GROUP BY e.dst) ab ON ab.vid = v.vid)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, ROUND(h / NULLIF((SELECT SUM(h) FROM ha{k}), 0), 6) AS hub, "
        f"ROUND(a / NULLIF((SELECT SUM(a) FROM ha{k}), 0), 6) AS auth FROM ha{k}"
    )


def q_order_priority_lines(sf_dir: str):
    """Line counts + quantity per order priority: big-big equi-join
    (lineitem ⨝ orders on orderkey) via the co-partitioned
    functions.joins.hash_join — no broadcast, one exchange."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from signal_collect_ray.functions.joins import hash_join

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"],
    ).rename_columns({"l_orderkey": "orderkey"})
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    ).rename_columns({"o_orderkey": "orderkey"})
    j = hash_join(li, orders, on="orderkey", how="inner")

    def prio_partials(tbl: pa.Table) -> pa.Table:
        # 5-key aggregation: per-block partials, tiny exchange (same
        # idiom as orders_by_nation); quantities are integral so the
        # per-block float sums stay exact in any order
        pr = tbl.column("o_orderpriority").to_numpy(zero_copy_only=False)
        qty = tbl.column("l_quantity").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(pr, return_inverse=True)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        acc = np.bincount(inv, weights=qty, minlength=len(uniq))
        return pa.table(
            {
                "o_orderpriority": pa.array(uniq.astype(object), pa.string()),
                "n_lines": pa.array(cnt, pa.int64()),
                "l_quantity": pa.array(acc, pa.float64()),
            }
        )

    agg = (
        j.map_batches(prio_partials, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n_lines", alias_name="n_lines"),
            Sum("l_quantity", alias_name="sum_qty"),
        )
    )

    def rnd(tbl: pa.Table) -> pa.Table:
        s = np.round(tbl.column("sum_qty").to_numpy(zero_copy_only=False), 2)
        return pa.table(
            {
                "o_orderpriority": tbl.column("o_orderpriority"),
                "n_lines": tbl.column("n_lines"),
                "sum_qty": pa.array(s, pa.float64()),
            }
        )

    return agg.map_batches(rnd, batch_format="pyarrow")


_ORDER_PRIORITY_SQL = (
    "SELECT o.o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_lines, "
    "ROUND(SUM(l.l_quantity), 2) AS sum_qty "
    "FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey "
    "GROUP BY o.o_orderpriority"
)


_BIG_ORDER = 400000


def q_customers_without_orders(sf_dir: str):
    """Anti-join: customers who never placed a large order
    (hash_join how='anti' — existence test over the co-partitioned
    exchange; right-side duplicate keys are fine for semi/anti)."""
    import ray.data as rd

    from signal_collect_ray.functions.joins import hash_join

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).rename_columns({"c_custkey": "custkey"})

    def big(tbl: pa.Table) -> pa.Table:
        tp = tbl.column("o_totalprice").to_numpy(zero_copy_only=False)
        t = tbl.take(pa.array(np.flatnonzero(tp > _BIG_ORDER), pa.int64()))
        return pa.table({"custkey": t.column("o_custkey")})

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_totalprice"],
    ).map_batches(big, batch_format="pyarrow")
    return hash_join(cust, orders, on="custkey", how="anti")


_CUST_NO_ORDERS_SQL = (
    "SELECT c_custkey AS custkey, c_mktsegment FROM customer "
    "WHERE c_custkey NOT IN "
    f"(SELECT o_custkey FROM orders WHERE o_totalprice > {_BIG_ORDER})"
)


def q_distinct_users_per_event(sf_dir: str):
    """Exact distinct-user counts per event type: per-block partial
    dedup of (type, user) pairs (vectorized np.unique — no per-pair
    Python), then one groupby(type) whose kernel dedups the merged
    partials and counts — the standard two-stage exact COUNT(DISTINCT)
    with the exchange bounded by distinct pairs per block."""
    import ray.data as rd

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "user_id"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist(), dtype=object)
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        codes, inv = np.unique(et.astype(str), return_inverse=True)
        pairs = np.unique(
            np.stack([inv.astype(np.int64), u.astype(np.int64)], axis=1),
            axis=0,
        )
        return pa.table(
            {
                "event_type": pa.array(codes[pairs[:, 0]], pa.string()),
                "user_id": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def count_group(tbl: pa.Table) -> pa.Table:
        et = tbl.column("event_type")[0].as_py()
        n = len(np.unique(tbl.column("user_id").to_numpy(zero_copy_only=False)))
        return pa.table(
            {
                "event_type": pa.array([et], pa.string()),
                "n_users": pa.array([n], pa.int64()),
            }
        )

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(count_group, batch_format="pyarrow")
    )


_DISTINCT_USERS_SQL = (
    "SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users "
    "FROM events GROUP BY event_type"
)


_SLIDE_W_S, _SLIDE_S_S = 7200, 3600


def q_event_sliding_windows(sf_dir: str):
    """2h windows sliding hourly over events (functions.windows.
    sliding_window — vectorized key explosion, pre-combined hash agg)."""
    import ray.data as rd

    from signal_collect_ray.functions.windows import sliding_window

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type", "value"],
    )
    return sliding_window(ev, width_s=_SLIDE_W_S, slide_s=_SLIDE_S_S)


def _sliding_sql() -> str:
    w = _SLIDE_W_S * 1_000_000
    s = _SLIDE_S_S * 1_000_000
    k = w // s
    return (
        f"SELECT (epoch_us(ts) // {s}) * {s} - j.j * {s} AS window_us, "
        "event_type, CAST(COUNT(*) AS BIGINT) AS n_events, "
        "SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) / 100.0 AS sum_value "
        f"FROM events, unnest(range(0, {k})) AS j(j) "
        "GROUP BY 1, 2"
    )


def q_user_running_totals(sf_dir: str):
    """Per-user cumulative value over time (functions.windows.
    running_totals — prefix-aggregate window, one user exchange)."""
    import ray.data as rd

    from signal_collect_ray.functions.windows import running_totals

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "value"],
    )
    return running_totals(ev)


_RUNNING_TOTALS_SQL = (
    "SELECT user_id, epoch_us(ts) AS ts_us, "
    "ROUND(SUM(value) OVER (PARTITION BY user_id ORDER BY ts "
    "ROWS UNBOUNDED PRECEDING), 6) AS running_value FROM events"
)


def q_click_sessions(sf_dir: str):
    """Assign every click to its gap-session: sessionize → interval
    (range) join on [start_us, end_us] per user (functions.joins.
    interval_join — the brief's range-join operator)."""
    import ray.data as rd

    from signal_collect_ray.functions.joins import interval_join
    from signal_collect_ray.functions.windows import sessionize

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    sessions = sessionize(ev.select_columns(["user_id", "ts", "value"]))

    def clicks(tbl: pa.Table) -> pa.Table:
        et = tbl.column("event_type").to_pylist()
        keep = np.array([e == "click" for e in et], dtype=bool)
        t = tbl.filter(pa.array(keep))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.int64()),
            }
        )

    left = ev.map_batches(clicks, batch_format="pyarrow")
    out = interval_join(
        left, sessions, by="user_id", time_col="ts_us",
        start_col="start_us", end_col="end_us", value_cols=["session"],
    )
    return out.select_columns(["event_id", "user_id", "ts_us", "session"])


def _click_sessions_sql() -> str:
    sessions = (
        "WITH o AS (SELECT user_id, ts, value, CASE WHEN "
        "epoch(ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)) "
        "> 14400 THEN 1 ELSE 0 END AS brk FROM events), "
        "s AS (SELECT user_id, ts, SUM(brk) OVER "
        "(PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) "
        "AS session FROM o) "
        "SELECT user_id, session, epoch_us(MIN(ts)) AS start_us, "
        "epoch_us(MAX(ts)) AS end_us FROM s GROUP BY user_id, session"
    )
    return (
        f"WITH sess AS ({sessions}) "
        "SELECT e.event_id, e.user_id, epoch_us(e.ts) AS ts_us, "
        "CAST(sess.session AS BIGINT) AS session "
        "FROM events e JOIN sess ON sess.user_id = e.user_id "
        "AND epoch_us(e.ts) BETWEEN sess.start_us AND sess.end_us "
        "WHERE e.event_type = 'click'"
    )


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids, exploded to (label, pos, mean_val)
    (functions.similarity.vector_mean_by_key)."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import vector_mean_by_key

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["label", "embedding"],
    )
    out = vector_mean_by_key(emb, "label")

    def rnd(tbl: pa.Table) -> pa.Table:
        m = np.round(tbl.column("mean_val").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                "label": tbl.column("label"),
                "pos": tbl.column("pos"),
                "mean_val": pa.array(m, pa.float64()),
            }
        )

    return out.map_batches(rnd, batch_format="pyarrow")


_LABEL_CENTROIDS_SQL = (
    "SELECT CAST(label AS BIGINT) AS label, "
    "CAST(r.pos - 1 AS BIGINT) AS pos, "
    "ROUND(SUM(CAST(embedding[r.pos] AS DOUBLE)) / COUNT(*), 6) AS mean_val "
    "FROM embeddings, "
    "unnest(range(1, len(embedding) + 1)) AS r(pos) "
    "GROUP BY label, r.pos"
)


def q_coupling_top20(sf_dir: str):
    """Top-20 source pairs by bibliographic coupling (shared out-link
    targets) — the dual of co-citation: the same operator over the
    REVERSED edge table (Kessler 1963, public)."""
    from signal_collect_ray.algorithms.cocitation import cocitation_top_pairs

    def rev(tbl: pa.Table) -> pa.Table:
        return pa.table({"src": tbl.column("dst"), "dst": tbl.column("src")})

    edges = derived_edges_ds(sf_dir).select_columns(["src", "dst"]).map_batches(
        rev, batch_format="pyarrow"
    )
    return cocitation_top_pairs(edges, k=_COCITE_K)


def _coupling_sql() -> str:
    return (
        f"WITH e AS MATERIALIZED ({_E_SQL}), "
        "p AS (SELECT a.src AS id_a, b.src AS id_b FROM e a "
        "JOIN e b ON a.dst = b.dst AND a.src < b.src), "
        "c AS (SELECT id_a, id_b, CAST(COUNT(*) AS BIGINT) AS n "
        "FROM p GROUP BY id_a, id_b) "
        "SELECT id_a, id_b, n FROM c "
        f"ORDER BY n DESC, id_a ASC, id_b ASC LIMIT {_COCITE_K}"
    )


_STRAT_RATES, _STRAT_DEFAULT, _STRAT_SEED = {"en": 0.25}, 1.0, 42


def q_stratified_sample(sf_dir: str):
    """Language-rebalanced corpus sample: cap predicted-English docs at
    25%, keep every other language whole (functions.sampling.
    stratified_sample over the LanguageId stage — pure map, no
    shuffle)."""
    import ray.data as rd

    from signal_collect_ray.functions.sampling import stratified_sample
    from signal_collect_ray.functions.text import LanguageId

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(LanguageId(), batch_format="pyarrow", batch_size=2048)
    out = stratified_sample(
        ds, "lang_pred", _STRAT_RATES, _STRAT_DEFAULT, seed=_STRAT_SEED
    )
    return out.select_columns(["doc_id", "lang_pred"])


def _stratified_sql() -> str:
    cases = " ".join(
        f"WHEN pred.lang_pred = '{s}' THEN {int(r * (1 << 32))}::UBIGINT"
        for s, r in _STRAT_RATES.items()
    )
    default = f"{int(_STRAT_DEFAULT * (1 << 32))}::UBIGINT"
    return (
        f"WITH pred AS ({_lang_pred_sql()}) "
        "SELECT doc_id, lang_pred FROM pred WHERE "
        f"CAST(('0x' || substr(md5('{_STRAT_SEED}:' || CAST(doc_id AS VARCHAR)), "
        "1, 8)) AS UBIGINT) "
        f"< CASE {cases} ELSE {default} END"
    )


def q_class_balanced_sample(sf_dir: str):
    """EXACT-COUNT class balancing over the embedding labels — the
    deterministic undersampler a biased training set goes through:
    every class keeps exactly k = (size of the smallest class) members,
    chosen as the k smallest by a per-row md5 hash (ties → smaller
    vec_id), so the selection is reproducible, order-free, and
    SQL-mirrorable row for row. Complements stratified_sample (which
    caps by RATE, probabilistically): this is the exact-k variant,
    built on grouped_top_k's per-block partial-top-k combiner — the
    exchange carries ≤ k rows per (class, block), never the full
    class."""
    import hashlib

    import ray.data as rd
    from ray.data.aggregate import Count

    from signal_collect_ray.functions.aggregations import grouped_top_k

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label"],
    )

    def hashed(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("vec_id").to_pylist()
        h = [
            int(
                hashlib.md5(f"bal:{v}".encode()).hexdigest()[:15], 16
            )
            for v in ids
        ]
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "label": tbl.column("label").cast(pa.int64()),
                "h": pa.array(h, pa.int64()),
            }
        )

    hds = emb.map_batches(hashed, batch_format="pyarrow").materialize()
    counts = hds.groupby("label").aggregate(Count(alias_name="n")).take_all()
    k = min(int(r["n"]) for r in counts)
    sel = grouped_top_k(hds, "label", "h", "vec_id", k, descending=False)
    return sel.select_columns(["vec_id", "label"])


_CLASS_BALANCED_SQL = """
WITH h AS (SELECT vec_id, CAST(label AS BIGINT) AS label,
           CAST(concat('0x', substr(md5('bal:' || CAST(vec_id AS VARCHAR)),
                1, 15)) AS UBIGINT) AS hv
           FROM embeddings),
k AS (SELECT MIN(n) AS k FROM
      (SELECT COUNT(*) AS n FROM h GROUP BY label)),
r AS (SELECT vec_id, label, ROW_NUMBER() OVER
      (PARTITION BY label ORDER BY hv, vec_id) AS rn FROM h)
SELECT vec_id, label FROM r, k WHERE rn <= k.k
"""


_HB_SQL_ROUNDS = 8  # SQL ball unroll bound; the query asserts rounds fit


def q_neighborhood_function(sf_dir: str):
    """HyperBall neighborhood function N(t) + effective diameter of the
    derived graph (algorithms.hyperball), EXACTLY oracle-backed in its
    ``exact`` mode: per-vertex HLL estimates use the integer register
    sum Σ2^(64−rho) and the per-round total is accumulated as
    2^20-quantized int64 (addition-order-free), so DuckDB can replay
    the whole computation — mix64 vertex hashes, register max over the
    unrolled ≤{K}-hop out-ball, the alpha/linear-counting estimate,
    and the register-change stopping rule (Σrho strictly grows while
    any register grows). ≤15 % error vs an exact BFS closure and
    partition-invariance stay pinned in tests/test_hyperball.py."""
    from signal_collect_ray.algorithms.hyperball import neighborhood_function

    out = neighborhood_function(_graph(sf_dir), p=8, exact=True)
    nf = out["nf"]
    if len(nf) - 1 > _HB_SQL_ROUNDS:
        raise RuntimeError(
            f"HyperBall converged in {len(nf) - 1} rounds — raise "
            f"_HB_SQL_ROUNDS (= {_HB_SQL_ROUNDS}) so the SQL oracle's "
            "unrolled ball covers it"
        )
    return pa.table(
        {
            "t": pa.array(np.arange(len(nf), dtype=np.int64), pa.int64()),
            "n_pairs": pa.array(
                _round_half_away(np.asarray(nf, np.float64), 3), pa.float64()
            ),
            "effective_diameter": pa.array(
                np.full(len(nf), out["effective_diameter"], np.int64),
                pa.int64(),
            ),
        }
    )


def q_top_event_types(sf_dir: str):
    """Misra–Gries/Space-Saving heavy hitters over event_type
    (functions.sketches.heavy_hitters). With the distinct-value count
    below the counter capacity the sketch never evicts and the counts
    are EXACT — which is what makes this oracle-checkable; the
    approximate regime's N/capacity error bound is pinned on Zipf data
    in tests/test_functions.py."""
    import ray.data as rd

    from signal_collect_ray.functions.sketches import heavy_hitters

    return heavy_hitters(
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"), columns=["event_type"]
        ),
        "event_type",
        k=5,
        capacity=64,
    )


_TOP_EVENT_TYPES_SQL = """
SELECT event_type AS value, CAST(COUNT(*) AS BIGINT) AS approx_count
FROM events GROUP BY event_type
ORDER BY approx_count DESC, value ASC LIMIT 5
"""


def q_betweenness(sf_dir: str):
    """Pivot-sampled Brandes betweenness over the derived graph
    (algorithms.betweenness.betweenness_sampled, sources = vids
    divisible by 16). Rows-only driver check; exactness of the
    all-sources case vs a brute-force path-counting oracle is pinned in
    tests/test_betweenness.py."""
    from signal_collect_ray.algorithms.betweenness import betweenness_sampled

    return betweenness_sampled(_graph(sf_dir), sample_mod=16)


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog approximate distinct users per event type
    (functions.sketches.approx_distinct_by_key) — the shuffle-free
    sketch counterpart of the exact ``distinct_users_per_event`` query.
    EXACTLY oracle-backed since sketches._estimate lifted the register
    sum to the integer Σ2^(64−M): the estimate is addition-order
    independent and bit-identical to the SQL recomputation of the same
    mix64 registers (_HLL_EST_SQL family), rounded to 3 digits; the
    ≤5 % error bound vs the exact counts stays pinned in
    tests/test_functions.py."""
    import ray.data as rd

    from signal_collect_ray.functions.sketches import approx_distinct_by_key

    out = approx_distinct_by_key(
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "user_id"],
        ),
        key="event_type",
        col="user_id",
    )

    def round3(tbl: pa.Table) -> pa.Table:
        v = tbl.column("approx_n").to_numpy(zero_copy_only=False)
        return tbl.set_column(
            tbl.schema.get_field_index("approx_n"),
            "approx_n",
            pa.array(_round_half_away(v, 3), pa.float64()),
        )

    return out.map_batches(round3, batch_format="pyarrow")


def q_event_rollup(sf_dir: str):
    """GROUP BY ROLLUP(event_type, user cohort) over events — count +
    value sum at every rollup level, finest level aggregated once and
    coarser levels derived from it
    (functions.aggregations.rollup_aggregate)."""
    import ray.data as rd

    from signal_collect_ray.functions.aggregations import rollup_aggregate

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "user_id", "value"],
    )

    def cohort(tbl: pa.Table) -> pa.Table:
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": tbl.column("event_type"),
                "cohort": pa.array(u % 4, pa.int64()),
                "value": tbl.column("value"),
            }
        )

    return rollup_aggregate(
        ds.map_batches(cohort, batch_format="pyarrow"),
        ["event_type", "cohort"],
        "value",
    )


_EVENT_ROLLUP_SQL = """
SELECT event_type, user_id % 4 AS cohort,
       CAST(COUNT(*) AS BIGINT) AS n, ROUND(SUM(value), 6) AS sum_val
FROM events GROUP BY ROLLUP(event_type, cohort)
"""


def q_event_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, cohort) over events — count + value
    sum at all four grouping sets, derived lattice-style from ONE
    finest-level aggregation (functions.aggregations.cube_aggregate):
    coarser cells re-aggregate the previous level's tiny result, never
    the raw rows."""
    import ray.data as rd

    from signal_collect_ray.functions.aggregations import cube_aggregate

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "user_id", "value"],
    )

    def cohort(tbl: pa.Table) -> pa.Table:
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": tbl.column("event_type"),
                "cohort": pa.array(u % 4, pa.int64()),
                "value": tbl.column("value"),
            }
        )

    return cube_aggregate(
        ds.map_batches(cohort, batch_format="pyarrow"),
        ["event_type", "cohort"],
        "value",
    )


_EVENT_CUBE_SQL = """
SELECT event_type, user_id % 4 AS cohort,
       CAST(COUNT(*) AS BIGINT) AS n, ROUND(SUM(value), 6) AS sum_val
FROM events GROUP BY CUBE(event_type, cohort)
"""

def q_rfm_segments(sf_dir: str):
    """RFM segmentation — the classic CRM / data-mixture user split:
    per user Recency (last active day), Frequency (event count),
    Monetary (exact cents sum); each dimension splits at its LOWER
    MEDIAN across users (the (n−1)//2 order statistic — DuckDB
    quantile_disc(0.5), pinned empirically), giving 8 segments
    (segment id = R·4 + F·2 + M, bit set ⇔ strictly above the
    median). One exchange on user builds the RFM table; each
    threshold is a counting-histogram selection over DISTINCT metric
    values (days / counts / whole currency units — value-range
    bounded, not user bounded), and the segment census is a per-block
    bincount + one 8-row groupby. Precondition: cents sums are
    non-negative (true of this corpus), so numpy's flooring // and
    DuckDB's truncating // agree on the dollars quantization."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "value"],
    )

    def per_block(tbl: pa.Table) -> pa.Table:
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        day = (
            tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        cents = _round_half_away(
            tbl.column("value").to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        t = pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "last_day": pa.array(day, pa.int64()),
                "n_ev": pa.array(np.ones(len(u), np.int64), pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )
        return (
            t.group_by("user_id")
            .aggregate(
                [("last_day", "max"), ("n_ev", "sum"), ("cents", "sum")]
            )
            .rename_columns(["user_id", "last_day", "n_ev", "cents"])
        )

    rfm = (
        ds.map_batches(per_block, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Max("last_day", alias_name="last_day"),
            Sum("n_ev", alias_name="n_ev"),
            Sum("cents", alias_name="cents"),
        )
        .materialize()
    )

    def lower_median(metric_fn) -> int:
        def histo(tbl: pa.Table) -> pa.Table:
            v = metric_fn(tbl)
            t = pa.table(
                {
                    "v": pa.array(v, pa.int64()),
                    "c": pa.array(np.ones(len(v), np.int64), pa.int64()),
                }
            )
            return (
                t.group_by("v").aggregate([("c", "sum")])
                .rename_columns(["v", "c"])
            )

        rows = (
            rfm.map_batches(histo, batch_format="pyarrow")
            .groupby("v")
            .aggregate(Sum("c", alias_name="c"))
            .take_all()
        )
        vals = np.array(sorted(int(r["v"]) for r in rows), dtype=np.int64)
        cnts = np.array(
            [c for _, c in sorted((int(r["v"]), int(r["c"])) for r in rows)],
            dtype=np.int64,
        )
        cum = np.cumsum(cnts)
        total = int(cum[-1])
        k = (total - 1) // 2 + 1  # lower median = k-th smallest
        return int(vals[np.searchsorted(cum, k)])

    med_r = lower_median(
        lambda t: t.column("last_day").to_numpy(zero_copy_only=False)
    )
    med_f = lower_median(
        lambda t: t.column("n_ev").to_numpy(zero_copy_only=False)
    )
    med_m = lower_median(
        lambda t: t.column("cents").to_numpy(zero_copy_only=False) // 100
    )

    def census(tbl: pa.Table) -> pa.Table:
        r = tbl.column("last_day").to_numpy(zero_copy_only=False) > med_r
        f = tbl.column("n_ev").to_numpy(zero_copy_only=False) > med_f
        m = (
            tbl.column("cents").to_numpy(zero_copy_only=False) // 100
            > med_m
        )
        seg = r * 4 + f * 2 + m
        n = np.bincount(seg, minlength=8)
        keep = np.flatnonzero(n)
        return pa.table(
            {
                "segment": pa.array(keep.astype(np.int64), pa.int64()),
                "n_users": pa.array(n[keep].astype(np.int64), pa.int64()),
            }
        )

    return (
        rfm.map_batches(census, batch_format="pyarrow")
        .groupby("segment")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


_RFM_SQL = """
WITH u AS (SELECT user_id,
           MAX(epoch_us(ts) // 86400000000) AS last_day,
           CAST(COUNT(*) AS BIGINT) AS n_ev,
           SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) // 100 AS dollars
           FROM events GROUP BY user_id),
m AS (SELECT quantile_disc(last_day, 0.5) AS mr,
             quantile_disc(n_ev, 0.5) AS mf,
             quantile_disc(dollars, 0.5) AS mm FROM u)
SELECT CAST((CASE WHEN u.last_day > m.mr THEN 4 ELSE 0 END)
          + (CASE WHEN u.n_ev > m.mf THEN 2 ELSE 0 END)
          + (CASE WHEN u.dollars > m.mm THEN 1 ELSE 0 END) AS BIGINT)
       AS segment,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM u, m GROUP BY 1
"""


def q_user_first_purchase(sf_dir: str):
    """First purchase per user — the ROW_NUMBER() = 1 window computed
    WITHOUT a global sort (functions.analytics.first_event_per_key):
    a per-block vectorized lexsort argmin keeps one candidate per user
    per block, then one hash exchange merges candidates with the same
    kernel per partition."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import first_event_per_key

    return first_event_per_key(
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "ts", "event_id", "value", "event_type"],
        ),
        event_type="purchase",
    )


_FIRST_PURCHASE_SQL = """
SELECT user_id, epoch_us(ts) AS first_ts_us, event_id AS first_event_id,
       ROUND(value, 6) AS first_value
FROM (SELECT *, ROW_NUMBER() OVER (
          PARTITION BY user_id ORDER BY ts, event_id) AS rn
      FROM events WHERE event_type = 'purchase')
WHERE rn = 1
"""


def q_hub_robustness(sf_dir: str):
    """Targeted-attack robustness (Albert-Jeong-Barabási, public
    literature): remove the top-10 in-degree hubs, rerun connected
    components on the symmetrized remainder, report surviving vertex
    count, component count, and largest-component size. Composition:
    one degree aggregate → broadcast hub set → edge filter → engine CC.
    Oracle: the same unrolled min-label CC over the SQL-filtered edge
    set."""
    from ray.data.aggregate import Count

    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import ConnectedComponents

    key = (sf_dir, "hub_robustness")
    out = _RESULT_CACHE.get(key)
    if out is not None:
        return out

    edges = derived_edges_ds(sf_dir)
    indeg = edges.groupby("dst").aggregate(Count(alias_name="d"))

    def block_top10(tbl: pa.Table) -> pa.Table:
        # per-block prune to the 10 best (d desc, dst asc) rows — the
        # driver only ever sees O(blocks x 10) rows, not O(V)
        if tbl.num_rows <= 10:
            return tbl
        d = tbl.column("d").to_numpy(zero_copy_only=False)
        v = tbl.column("dst").to_numpy(zero_copy_only=False)
        idx = np.lexsort((v, -d))[:10]
        return tbl.take(pa.array(np.sort(idx), pa.int64()))

    rows = indeg.map_batches(block_top10, batch_format="pyarrow").take_all()
    # top-10 by (in-degree desc, vid asc) — deterministic
    hubs = {
        r["dst"]
        for r in sorted(rows, key=lambda r: (-r["d"], r["dst"]))[:10]
    }

    def drop_hubs(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        keep = ~(np.isin(s, list(hubs)) | np.isin(d, list(hubs)))
        return tbl.filter(pa.array(keep))

    filtered = edges.map_batches(drop_hubs, batch_format="pyarrow")
    g = Graph.build(
        sym_edges(filtered),
        _work_dir(sf_dir, "graph_robust"),
        num_partitions=_P,
        dedup=True,
    )
    eng = _engine(_CC_K)
    info = eng.run(
        g,
        ConnectedComponents(),
        run_dir=_work_dir(sf_dir, "run_cc_robust"),
        resume=False,
        checkpoint_interval=50,
    )
    t = info.state_table()
    lab = t.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    _u, counts = np.unique(lab, return_counts=True)
    out = pa.table(
        {
            "n_vertices": pa.array([len(lab)], pa.int64()),
            "n_components": pa.array([len(counts)], pa.int64()),
            "largest_component": pa.array(
                [int(counts.max()) if len(counts) else 0], pa.int64()
            ),
        }
    )
    _RESULT_CACHE[key] = out
    return out


def _hub_robust_sql(k: int) -> str:
    filtered = (
        f"WITH base AS ({_E_SQL}), "
        "deg AS (SELECT dst, COUNT(*) AS d FROM base GROUP BY dst), "
        "hubs AS (SELECT dst FROM deg ORDER BY d DESC, dst ASC LIMIT 10) "
        "SELECT src, dst FROM base "
        "WHERE src NOT IN (SELECT dst FROM hubs) "
        "AND dst NOT IN (SELECT dst FROM hubs)"
    )
    return (
        f"WITH cc AS ({_cc_sql(k, filtered)}) "
        "SELECT CAST(COUNT(*) AS BIGINT) AS n_vertices, "
        "CAST(COUNT(DISTINCT label) AS BIGINT) AS n_components, "
        "CAST(MAX(csize) AS BIGINT) AS largest_component "
        "FROM (SELECT label, COUNT(*) OVER (PARTITION BY label) AS csize "
        "FROM cc)"
    )


def q_entity_resolution(sf_dir: str):
    """End-to-end entity resolution: prefix blocking → in-block
    normalized-Levenshtein verify (no broadcast — texts co-located by
    the block groupby) → engine-CC closure → canonical entity_id
    (functions.dedup.entity_resolve). Oracle: SQL levenshtein + unrolled
    min-label CC over the match graph."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import entity_resolve

    return entity_resolve(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        ),
        _work_dir(sf_dir, "entity"),
        prefix_len=12,
        tau=0.05,
    )


def _entity_sql(k: int = 8) -> str:
    ctes = [
        "t AS (SELECT doc_id, trim(regexp_replace(COALESCE(text, ''), "
        "'\\s+', ' ', 'g')) AS nt FROM documents)",
        "tk AS (SELECT doc_id, nt, substr(nt, 1, 12) AS bk FROM t)",
        "m AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b FROM tk a "
        "JOIN tk b ON a.bk = b.bk AND a.doc_id < b.doc_id "
        "WHERE levenshtein(a.nt, b.nt) "
        "<= 0.05 * GREATEST(length(a.nt), length(b.nt), 1))",
        "e AS MATERIALIZED (SELECT id_a AS src, id_b AS dst FROM m "
        "UNION SELECT id_b, id_a FROM m)",
        "v AS (SELECT doc_id AS vid FROM documents)",
        "l0 AS (SELECT vid, vid AS lab FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"l{i} AS MATERIALIZED (SELECT v.vid, "
            "LEAST(own.lab, COALESCE(MIN(nb.lab), own.lab)) AS lab "
            f"FROM v JOIN l{i-1} own ON own.vid = v.vid "
            "LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN l{i-1} nb ON nb.vid = e.src "
            "GROUP BY v.vid, own.lab)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid AS doc_id, CAST(lab AS BIGINT) AS entity_id FROM l{k}"
    )


def q_vocab_cover(sf_dir: str):
    """Greedy max-coverage corpus selection: the 4 documents that
    together cover the most vocabulary (submodular greedy,
    functions.text.greedy_vocab_cover — k shuffle-free passes with a
    broadcast covered set and per-block single-candidate reduction)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import greedy_vocab_cover

    return greedy_vocab_cover(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        ),
        k=4,
    )


def _greedy_cover_sql(k: int) -> str:
    ctes = [
        "d AS (SELECT doc_id, regexp_split_to_array(trim(lower("
        "COALESCE(text, ''))), '\\s+') AS w FROM documents)",
        "words AS (SELECT DISTINCT doc_id, unnest(w) AS word FROM d "
        "WHERE w[1] <> '')",
        "g1 AS (SELECT doc_id, COUNT(*) AS cnt FROM words GROUP BY doc_id)",
        "p1 AS (SELECT doc_id, cnt FROM g1 ORDER BY cnt DESC, doc_id "
        "LIMIT 1)",
        "c1 AS (SELECT DISTINCT word FROM words JOIN p1 USING (doc_id))",
    ]
    for i in range(2, k + 1):
        excl = " AND ".join(
            f"w.doc_id NOT IN (SELECT doc_id FROM p{j})"
            for j in range(1, i)
        )
        ctes.append(
            f"g{i} AS (SELECT w.doc_id, COUNT(*) AS cnt FROM words w "
            f"WHERE w.word NOT IN (SELECT word FROM c{i-1}) AND {excl} "
            "GROUP BY w.doc_id)"
        )
        ctes.append(
            f"p{i} AS (SELECT doc_id, cnt FROM g{i} "
            "ORDER BY cnt DESC, doc_id LIMIT 1)"
        )
        ctes.append(
            f"c{i} AS (SELECT word FROM c{i-1} UNION "
            f"SELECT word FROM words JOIN p{i} USING (doc_id))"
        )
    selects = " UNION ALL ".join(
        f"SELECT {i} AS round, doc_id, CAST(cnt AS BIGINT) AS new_words "
        f"FROM p{i}"
        for i in range(1, k + 1)
    )
    return "WITH " + ", ".join(ctes) + " " + selects


def q_degree_corr(sf_dir: str):
    """Pearson correlation of per-vertex in-degree vs out-degree (do
    hubs also link out a lot?) — per-block degree partials, one
    groupby(vid) sum, then the one-pass moment fold
    (functions.analytics.pearson_corr)."""
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.analytics import pearson_corr

    edges = derived_edges_ds(sf_dir)

    def partial(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        su, sc = np.unique(s, return_counts=True)
        du, dc = np.unique(d, return_counts=True)
        return pa.table(
            {
                "vid": pa.array(np.concatenate([su, du]), pa.int64()),
                "o": pa.array(
                    np.concatenate([sc, np.zeros(len(du), np.int64)]),
                    pa.int64(),
                ),
                "i": pa.array(
                    np.concatenate([np.zeros(len(su), np.int64), dc]),
                    pa.int64(),
                ),
            }
        )

    deg = (
        edges.map_batches(partial, batch_format="pyarrow")
        .groupby("vid")
        .aggregate(Sum("o", alias_name="o"), Sum("i", alias_name="i"))
    )
    return pearson_corr(deg, "o", "i")


_DEGREE_CORR_SQL = (
    f"WITH e AS ({_E_SQL}), "
    "od AS (SELECT src AS vid, COUNT(*) AS o FROM e GROUP BY src), "
    "idg AS (SELECT dst AS vid, COUNT(*) AS i FROM e GROUP BY dst), "
    "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e), "
    "d AS (SELECT v.vid, COALESCE(od.o, 0) AS o, COALESCE(idg.i, 0) AS i "
    "FROM v LEFT JOIN od USING (vid) LEFT JOIN idg USING (vid)) "
    "SELECT CAST(COUNT(*) AS BIGINT) AS n, ROUND(corr(o, i), 6) AS corr "
    "FROM d"
)


def q_mixture_weights(sf_dir: str):
    """Training-data mixture weights per source: each source's sampling
    weight ∝ n_docs × mean quality, normalized to sum 1 — the data-
    mixing knob a corpus build feeds its sampler (quality-weighted
    source proportions). One quality-scoring pass, one tiny
    groupby(source) aggregate, driver-side normalization over the
    handful of sources."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from signal_collect_ray.functions.text import QualityScore

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    ).map_batches(QualityScore(), batch_format="pyarrow", batch_size=2048)

    def shape(tbl: pa.Table) -> pa.Table:
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                "source": tbl.column("source"),
                "quality": pa.array(q, pa.float64()),
            }
        )

    agg = (
        ds.map_batches(shape, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Count(alias_name="n_docs"), Sum("quality", alias_name="qsum")
        )
    )
    rows = agg.take_all()
    mass = {
        r["source"]: r["n_docs"] * (r["qsum"] / r["n_docs"]) for r in rows
    }
    total = sum(mass.values())
    srcs = sorted(mass)
    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "n_docs": pa.array(
                [next(r["n_docs"] for r in rows if r["source"] == s)
                 for s in srcs],
                pa.int64(),
            ),
            "mean_quality": pa.array(
                [
                    round(
                        next(
                            r["qsum"] / r["n_docs"]
                            for r in rows
                            if r["source"] == s
                        ),
                        6,
                    )
                    for s in srcs
                ],
                pa.float64(),
            ),
            "weight": pa.array(
                [round(mass[s] / total, 6) for s in srcs], pa.float64()
            ),
        }
    )


_MIXTURE_SQL = (
    f"WITH q AS ({{inner}}), "
    "j AS (SELECT d.source, q.quality FROM documents d JOIN q USING (doc_id)), "
    "a AS (SELECT source, COUNT(*) AS n_docs, SUM(quality) AS qsum "
    "FROM j GROUP BY source), "
    "t AS (SELECT SUM(n_docs * (qsum / n_docs)) AS tot FROM a) "
    "SELECT source, CAST(n_docs AS BIGINT) AS n_docs, "
    "ROUND(qsum / n_docs, 6) AS mean_quality, "
    "ROUND(n_docs * (qsum / n_docs) / t.tot, 6) AS weight "
    "FROM a CROSS JOIN t AS t"
)


def _bfs_ctes(k: int, prefix: str, source_expr: str) -> list:
    """Unrolled BFS CTE chain with a dynamic source expression (shares
    `e`/`v` CTEs defined by the caller)."""
    ctes = [
        f"{prefix}d0 AS (SELECT vid, CASE WHEN vid = ({source_expr}) "
        "THEN CAST(0 AS DOUBLE) ELSE CAST(1e18 AS DOUBLE) END AS d FROM v)"
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"{prefix}d{i} AS MATERIALIZED (SELECT v.vid, "
            f"LEAST(own.d, COALESCE(MIN(nb.d + 1.0), 1e18)) AS d "
            f"FROM v JOIN {prefix}d{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN {prefix}d{i-1} nb ON nb.vid = e.src "
            "GROUP BY v.vid, own.d)"
        )
    return ctes


def _diameter_sql(k: int) -> str:
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS MATERIALIZED (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
    ]
    ctes += _bfs_ctes(k, "a_", "0")
    ctes.append(
        f"far AS (SELECT vid, d FROM a_d{k} WHERE d < 1e17 "
        "ORDER BY d DESC, vid ASC LIMIT 1)"
    )
    ctes += _bfs_ctes(k, "b_", "SELECT vid FROM far")
    return (
        "WITH " + ", ".join(ctes)
        + " SELECT far.vid AS far_vid, far.d AS ecc0, "
        f"(SELECT MAX(d) FROM b_d{k} WHERE d < 1e17) AS far_ecc, "
        f"GREATEST(far.d, (SELECT MAX(d) FROM b_d{k} WHERE d < 1e17)) "
        "AS diameter_lb FROM far"
    )


def q_diameter_bound(sf_dir: str):
    """Double-sweep diameter lower bound (Magnien-Latapy-Habib, public
    literature): BFS from vertex 0, then BFS from the farthest reached
    vertex; the larger eccentricity lower-bounds the directed diameter.
    Two engine SSSP runs — the argmax between sweeps is a tiny
    aggregate over the distance table (computed driver-side here; at
    web scale it is one top-1 reduce). Exact unrolled two-BFS SQL
    oracle."""
    from signal_collect_ray.algorithms import SSSP

    t1 = _state(sf_dir, SSSP(0), False, _BFS_K, tag="_dia0")
    d1 = t1.column("state").to_numpy(zero_copy_only=False)
    vid1 = t1.column("vid").to_numpy(zero_copy_only=False)
    fin = np.isfinite(d1)
    # farthest vertex from 0; ties by min vid (mirrors ORDER BY d DESC,
    # vid ASC LIMIT 1)
    order = np.lexsort((vid1[fin], -d1[fin]))
    far_vid = int(vid1[fin][order[0]])
    ecc0 = float(d1[fin][order[0]])

    t2 = _state(sf_dir, SSSP(far_vid), False, _BFS_K, tag="_diaF")
    d2 = t2.column("state").to_numpy(zero_copy_only=False)
    far_ecc = float(d2[np.isfinite(d2)].max())
    return pa.table(
        {
            "far_vid": pa.array([far_vid], pa.int64()),
            "ecc0": pa.array([ecc0], pa.float64()),
            "far_ecc": pa.array([far_ecc], pa.float64()),
            "diameter_lb": pa.array([max(ecc0, far_ecc)], pa.float64()),
        }
    )


def q_partition_edge_cut(sf_dir: str):
    """Partitioner quality diagnostic: fraction of edges whose
    endpoints land on different partitions under (a) the default Knuth
    hash mapper (`util.part_of`, P=8) and (b) a host-affinity mapper
    ((vid % _HOST_MOD) % 8 — the MapperSpec locality story: pages of a
    host co-locate, so intra-host links never cross the exchange). One
    streaming pass of per-block counts; the hash arithmetic is exactly
    SQL-mirrorable (Knuth multiplicative mod 2^32 — vids < 2^32 here,
    so the high-bit fold is zero)."""
    from signal_collect_ray.util import part_of

    edges = derived_edges_ds(sf_dir)

    def partial(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        cut_h = int((part_of(s, _P) != part_of(d, _P)).sum())
        cut_a = int(((s % _HOST_MOD) % _P != (d % _HOST_MOD) % _P).sum())
        return pa.table(
            {
                "n": pa.array([len(s)], pa.int64()),
                "ch": pa.array([cut_h], pa.int64()),
                "ca": pa.array([cut_a], pa.int64()),
            }
        )

    parts = edges.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    ch = sum(r["ch"] for r in parts)
    ca = sum(r["ca"] for r in parts)
    return pa.table(
        {
            "n_edges": pa.array([n], pa.int64()),
            "cut_hash": pa.array([ch], pa.int64()),
            "cut_host": pa.array([ca], pa.int64()),
            "frac_hash": pa.array([round(ch / n, 6)], pa.float64()),
            "frac_host": pa.array([round(ca / n, 6)], pa.float64()),
        }
    )


def q_value_quantiles_cont(sf_dir: str):
    """EXACT interpolated quantiles (SQL quantile_cont convention) of
    event value — mergeable fixed-point counting histogram, no global
    sort (functions.aggregations.exact_quantiles_cont)."""
    import ray.data as rd

    from signal_collect_ray.functions.aggregations import (
        exact_quantiles_cont,
    )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )
    qs = [0.25, 0.5, 0.75, 0.9]
    res = exact_quantiles_cont(ds, "value", qs, scale=100)
    return pa.table(
        {
            f"q{int(q * 100)}": pa.array([v], pa.float64())
            for q, v in res
        }
    )


_EDGE_CUT_SQL = f"""
WITH e AS ({_E_SQL}),
c AS (
  SELECT COUNT(*) AS n,
         COUNT(*) FILTER (
           ((CAST(src AS UBIGINT) * 2654435761) % 4294967296) % {_P}
           <> ((CAST(dst AS UBIGINT) * 2654435761) % 4294967296) % {_P}
         ) AS ch,
         COUNT(*) FILTER (
           (src % {_HOST_MOD}) % {_P} <> (dst % {_HOST_MOD}) % {_P}
         ) AS ca
  FROM e)
SELECT CAST(n AS BIGINT) AS n_edges, CAST(ch AS BIGINT) AS cut_hash,
       CAST(ca AS BIGINT) AS cut_host,
       ROUND(ch * 1.0 / n, 6) AS frac_hash,
       ROUND(ca * 1.0 / n, 6) AS frac_host
FROM c
"""


_VALUE_QUANTILES_CONT_SQL = """
SELECT ROUND(quantile_cont(value, 0.25), 6) AS q25,
       ROUND(quantile_cont(value, 0.5), 6) AS q50,
       ROUND(quantile_cont(value, 0.75), 6) AS q75,
       ROUND(quantile_cont(value, 0.9), 6) AS q90
FROM events
"""


def q_vocab_stats(sf_dir: str):
    """Corpus vocabulary health check: token total, distinct vocab,
    hapax legomena, type-token ratio (functions.text.vocab_stats —
    Counter partials, one word exchange, tiny aggregate)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import vocab_stats

    return vocab_stats(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
    )


_VOCAB_STATS_SQL = """
WITH d AS (
  SELECT regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
words AS (SELECT unnest(w) AS word FROM d WHERE w[1] <> ''),
cu AS (SELECT word, COUNT(*) AS c FROM words GROUP BY word)
SELECT CAST(SUM(c) AS BIGINT) AS n_tokens,
       CAST(COUNT(*) AS BIGINT) AS n_distinct,
       CAST(COUNT(*) FILTER (c = 1) AS BIGINT) AS n_hapax,
       ROUND(COUNT(*) * 1.0 / SUM(c), 6) AS ttr
FROM cu
"""


def q_event_seq_num(sf_dir: str):
    """Full per-user ROW_NUMBER() sequence numbers (ordered by ts,
    event_id) — functions.analytics.rank_in_group: one user exchange,
    one lexsort + segmented-iota kernel per partition."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import rank_in_group

    return rank_in_group(
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "ts", "event_id"],
        )
    )


_EVENT_SEQ_SQL = """
SELECT user_id, epoch_us(ts) AS ts_us, event_id,
       ROW_NUMBER() OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS seq
FROM events
"""


def q_user_last_state(sf_dir: str):
    """Latest event per user — the CDC/SCD current-state snapshot
    (dedup-by-latest upsert compaction),
    functions.analytics.last_event_per_key: per-block vectorized
    arg-latest candidates + one hash exchange."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import last_event_per_key

    return last_event_per_key(
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "ts", "event_id", "value"],
        )
    )


_USER_LAST_STATE_SQL = """
SELECT user_id, epoch_us(ts) AS last_ts_us, event_id AS last_event_id,
       ROUND(value, 6) AS last_value
FROM (SELECT *, ROW_NUMBER() OVER (
          PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
      FROM events)
WHERE rn = 1
"""


def q_top_pmi_bigrams(sf_dir: str):
    """Top-20 collocations by pointwise mutual information (min bigram
    count 5) — functions.text.top_pmi_bigrams: one counting pass for
    both marginals, hash-join marginal resolution (no vocabulary
    broadcast), vectorized scoring, per-block-pruned global top-k."""
    import ray.data as rd

    from signal_collect_ray.functions.text import top_pmi_bigrams

    return top_pmi_bigrams(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        ),
        k=20,
        min_count=5,
    )


_TOP_PMI_SQL = """
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
words AS (
  SELECT doc_id, i, w[i] AS word
  FROM d, UNNEST(generate_series(1, len(w))) AS t(i) WHERE w[1] <> ''),
bg AS (
  SELECT a.word AS w1, b.word AS w2 FROM words a
  JOIN words b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
cb AS (SELECT w1, w2, COUNT(*) AS c_xy FROM bg GROUP BY w1, w2),
cu AS (SELECT word, COUNT(*) AS c_w FROM words GROUP BY word),
tw AS (SELECT SUM(c_xy) * 1.0 AS wt FROM cb),
tu AS (SELECT SUM(c_w) * 1.0 AS ut FROM cu)
SELECT w1 || ' ' || w2 AS bg, CAST(c_xy AS BIGINT) AS n,
       ROUND(ln((c_xy / wt) / ((cx.c_w / ut) * (cy.c_w / ut))), 6) AS pmi
FROM cb
JOIN cu cx ON cx.word = cb.w1
JOIN cu cy ON cy.word = cb.w2
CROSS JOIN tw CROSS JOIN tu
WHERE c_xy >= 5
ORDER BY pmi DESC, bg ASC LIMIT 20
"""


def q_weekly_trend(sf_dir: str):
    """Week-over-week event-count trend per type (LAG delta over the
    type's active weeks) — functions.analytics.weekly_type_trend, the
    window-function-on-aggregate shape."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import weekly_type_trend

    return weekly_type_trend(
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["ts", "event_type"],
        )
    )


_WEEKLY_TREND_SQL = """
WITH wk AS (
  SELECT epoch_us(date_trunc('week', ts)) AS week_us, event_type,
         COUNT(*) AS n
  FROM events GROUP BY 1, 2)
SELECT week_us, event_type, CAST(n AS BIGINT) AS n,
       CAST(n - LAG(n) OVER (PARTITION BY event_type ORDER BY week_us)
            AS BIGINT) AS delta
FROM wk
"""


def q_shipping_priority(sf_dir: str):
    """TPC-H-Q3-shaped shipping priority: top-10 BUILDING-segment
    orders by open revenue (ordered before / shipped after the cutoff).
    Composition: segment customers broadcast-semi-join orders (small
    dimension), date-filtered orders hash_join the lineitem FACT stream
    (big-big tagged-union co-partition), partial-per-block revenue
    groupby, grouped_top_k global selection."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.aggregations import grouped_top_k
    from signal_collect_ray.functions.joins import broadcast_join, hash_join

    cutoff_us = int(
        (np.datetime64("1998-01-01") - np.datetime64("1970-01-01"))
        / np.timedelta64(1, "us")
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )

    def cust_keys(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = tbl.filter(pc.equal(tbl.column("c_mktsegment"), "BUILDING"))
        return pa.table({"o_custkey": t.column("c_custkey")})

    def order_filter(tbl: pa.Table) -> pa.Table:
        d = tbl.column("o_orderdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = d < cutoff_us
        return pa.table(
            {
                "l_orderkey": tbl.column("o_orderkey").filter(pa.array(keep)),
                "order_date_us": pa.array(d[keep], pa.int64()),
            }
        )

    # semi-join shape: orders filtered to BUILDING customers first
    seg_orders = broadcast_join(
        orders,
        cust.map_batches(cust_keys, batch_format="pyarrow"),
        on="o_custkey",
        how="inner",
    ).map_batches(order_filter, batch_format="pyarrow")

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def li_filter(tbl: pa.Table) -> pa.Table:
        d = tbl.column("l_shipdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = d > cutoff_us
        p = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = tbl.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey").filter(pa.array(keep)),
                "rev": pa.array((p * (1.0 - disc))[keep], pa.float64()),
            }
        )

    j = hash_join(
        li.map_batches(li_filter, batch_format="pyarrow"),
        seg_orders,
        on="l_orderkey",
        how="inner",
        num_partitions=32,
    )
    agg = j.groupby(["l_orderkey", "order_date_us"]).aggregate(
        Sum("rev", alias_name="revenue")
    )

    def rnd(tbl: pa.Table) -> pa.Table:
        r = np.round(tbl.column("revenue").to_numpy(zero_copy_only=False), 2)
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey"),
                "order_date_us": tbl.column("order_date_us"),
                "revenue": pa.array(r, pa.float64()),
                "g": pa.array(np.zeros(tbl.num_rows, np.int64), pa.int64()),
            }
        )

    top = grouped_top_k(
        agg.map_batches(rnd, batch_format="pyarrow"),
        "g",
        "revenue",
        "l_orderkey",
        10,
        descending=True,
    )
    return top.drop_columns(["g"])


_SHIPPING_PRIORITY_SQL = """
WITH r AS (
  SELECT l_orderkey, epoch_us(o_orderdate) AS order_date_us,
         ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS revenue
  FROM customer, orders, lineitem
  WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
    AND l_orderkey = o_orderkey
    AND o_orderdate < TIMESTAMP '1998-01-01'
    AND l_shipdate > TIMESTAMP '1998-01-01'
  GROUP BY l_orderkey, o_orderdate)
SELECT l_orderkey, order_date_us, revenue FROM r
ORDER BY revenue DESC, l_orderkey ASC LIMIT 10
"""


def q_promo_revenue(sf_dir: str):
    """TPC-H-Q14-shaped monthly promo revenue share: lineitem joined to
    the part dimension (broadcast — the canonical small-side lookup),
    per-block integer-unit partials (cents × discount-hundredths, the
    pricing_summary money protocol), one tiny groupby on the month key.
    promo_share is a single float expression over the two integer sums,
    bit-identical to the SQL mirror."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import broadcast_join

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )

    def flag(tbl: pa.Table) -> pa.Table:
        promo = pc.equal(tbl.column("p_type"), "PROMO")
        return pa.table(
            {
                "l_partkey": tbl.column("p_partkey"),
                "is_promo": promo.cast(pa.int8()),
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    j = broadcast_join(
        li, part.map_batches(flag, batch_format="pyarrow"), on="l_partkey"
    )

    def partial(tbl: pa.Table) -> pa.Table:
        d = tbl.column("l_shipdate").to_numpy(zero_copy_only=False)
        m_idx = d.astype("datetime64[M]").astype(np.int64)
        ym = (1970 + m_idx // 12) * 100 + (m_idx % 12 + 1)
        ep = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = tbl.column("l_discount").to_numpy(zero_copy_only=False)
        u = np.round(ep * 100.0).astype(np.int64) * np.round(
            (1.0 - disc) * 100.0
        ).astype(np.int64)
        promo = tbl.column("is_promo").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        keys, inv = np.unique(ym, return_inverse=True)
        tot = np.zeros(len(keys), np.int64)
        pro = np.zeros(len(keys), np.int64)
        np.add.at(tot, inv, u)
        np.add.at(pro, inv, u * promo)
        return pa.table(
            {
                "ym": pa.array(keys, pa.int64()),
                "pu": pa.array(pro, pa.int64()),
                "tu": pa.array(tot, pa.int64()),
            }
        )

    agg = j.map_batches(partial, batch_format="pyarrow").groupby("ym").aggregate(
        Sum("pu", alias_name="pu"), Sum("tu", alias_name="tu")
    )

    def final(tbl: pa.Table) -> pa.Table:
        pu = tbl.column("pu").to_numpy(zero_copy_only=False).astype(np.int64)
        tu = tbl.column("tu").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "ym": tbl.column("ym"),
                "promo_revenue": pa.array(
                    _round_half_away(pu / 10000.0, 2), pa.float64()
                ),
                "total_revenue": pa.array(
                    _round_half_away(tu / 10000.0, 2), pa.float64()
                ),
                "promo_share": pa.array(
                    _round_half_away(100.0 * pu / tu, 6), pa.float64()
                ),
            }
        )

    return agg.map_batches(final, batch_format="pyarrow")


_PROMO_REVENUE_SQL = (
    "WITH u AS (SELECT CAST(YEAR(l_shipdate) * 100 + MONTH(l_shipdate) "
    "AS BIGINT) AS ym, "
    "CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT) * "
    "CAST(ROUND((1 - l_discount) * 100, 0) AS BIGINT) AS units, "
    "CASE WHEN p_type = 'PROMO' THEN 1 ELSE 0 END AS promo "
    "FROM lineitem JOIN part ON p_partkey = l_partkey), "
    "s AS (SELECT ym, CAST(SUM(units * promo) AS BIGINT) AS pu, "
    "CAST(SUM(units) AS BIGINT) AS tu FROM u GROUP BY ym) "
    "SELECT ym, ROUND(pu / 10000.0, 2) AS promo_revenue, "
    "ROUND(tu / 10000.0, 2) AS total_revenue, "
    "ROUND(100.0 * pu / tu, 6) AS promo_share FROM s"
)


def q_lineitem_corr(sf_dir: str):
    """Pearson correlation of lineitem quantity vs extended price —
    one streaming pass of sufficient moments, no shuffle
    (functions.analytics.pearson_corr)."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import pearson_corr

    return pearson_corr(
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_quantity", "l_extendedprice"],
        ),
        "l_quantity",
        "l_extendedprice",
    )


_LINEITEM_CORR_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(corr(l_quantity, l_extendedprice), 6) AS corr
FROM lineitem
"""


def q_semdedup_drops(sf_dir: str):
    """SemDeDup (cluster-then-exact-cosine semantic dedup) over the
    embeddings table: k-means buckets, shared chunked in-cluster
    verifier, engine-CC closure, min-id representative
    (functions.similarity.semdedup). Rows-only driver check (k-means is
    an iterative float fixpoint, no SQL mirror); the planted-duplicate
    recall and exact-path subset guarantees are pinned in
    tests/test_functions.py."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import semdedup

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    _pairs, drops = semdedup(
        emb, _work_dir(sf_dir, "semdedup"), k=8, threshold=0.5
    )
    return drops


def q_user_top_event(sf_dir: str):
    """Per-user MODE of event_type (ties by type ascending) —
    functions.analytics.grouped_mode: per-block (user, type) count
    partials + one hash exchange resolving the argmax vectorized per
    partition."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import grouped_mode

    return grouped_mode(
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_type"],
        ),
        key="user_id",
        val="event_type",
    )


_USER_TOP_EVENT_SQL = """
WITH c AS (
  SELECT user_id, event_type, COUNT(*) AS cnt
  FROM events GROUP BY user_id, event_type),
r AS (
  SELECT user_id, event_type AS mode_val,
         CAST(cnt AS BIGINT) AS mode_count,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY cnt DESC, event_type ASC) AS rn
  FROM c)
SELECT user_id, mode_val, mode_count FROM r WHERE rn = 1
"""


def q_event_value_winsorized(sf_dir: str):
    """Winsorized mean of event value: clip at the EXACT p01/p99 order
    statistics (fixed-point cents → mergeable counting histogram, no
    global sort), then one streaming clip+mean pass
    (functions.analytics.winsorized_stats)."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import winsorized_stats

    return winsorized_stats(
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"), columns=["value"]
        ),
        "value",
        lo_q=0.01,
        hi_q=0.99,
        scale=100,
    )


_WINSORIZED_SQL = """
WITH v AS (SELECT CAST(round(value * 100) AS BIGINT) AS vi FROM events),
n AS (SELECT COUNT(*) AS c FROM v),
o AS (SELECT vi, ROW_NUMBER() OVER (ORDER BY vi) AS rn FROM v),
lo AS (SELECT vi AS lv FROM o, n
       WHERE rn = GREATEST(CAST(ceil(0.01 * c) AS BIGINT), 1)),
hi AS (SELECT vi AS hv FROM o, n
       WHERE rn = GREATEST(CAST(ceil(0.99 * c) AS BIGINT), 1))
SELECT lv / 100.0 AS lo_cut, hv / 100.0 AS hi_cut, n.c AS n,
       ROUND(SUM(LEAST(GREATEST(v.vi, lv), hv) / 100.0) / n.c, 6)
         AS mean_winsorized
FROM v, lo, hi, n GROUP BY lv, hv, n.c
"""


def q_lang_pareto(sf_dir: str):
    """Per-language Pareto frontier of (n_chars, quality) — the grouped
    skyline (one independent frontier per lang), same per-block prune +
    one groupby finalizer."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import pareto_frontier
    from signal_collect_ray.functions.text import QualityScore

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    ).map_batches(QualityScore(), batch_format="pyarrow", batch_size=2048)

    def shape(tbl: pa.Table) -> pa.Table:
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "lang": tbl.column("lang"),
                "n_chars": tbl.column("n_chars_q"),
                "quality": pa.array(q, pa.float64()),
            }
        )

    return pareto_frontier(
        ds.map_batches(shape, batch_format="pyarrow"),
        "n_chars",
        "quality",
        group_col="lang",
    )


def q_node2vec_walks(sf_dir: str):
    """Second-order node2vec biased walks (p=0.5, q=2) from every 16th
    vertex of the derived graph — algorithms.walks.node2vec_walks,
    KnightKing-style chunked rejection sampling (one adjacency probe
    per proposal on prev's partition, never the candidate list).
    Rows-only driver check: the rejection chain is not reasonably
    SQL-expressible; bit-equality to a sequential simulator is pinned
    in tests/test_walks_n2v.py."""
    from signal_collect_ray.algorithms.walks import node2vec_walks

    return node2vec_walks(
        _graph(sf_dir), walk_len=6, p=0.5, q=2.0, seed=11, start_mod=16
    )


def q_doc_pareto(sf_dir: str):
    """Skyline selection: documents on the Pareto frontier of
    (n_chars, quality), both maximized — no other doc is ≥ on both and
    > on one (functions.analytics.pareto_frontier: per-block frontier
    prune, one final merge; dominated rows never leave their block)."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import pareto_frontier
    from signal_collect_ray.functions.text import QualityScore

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(QualityScore(), batch_format="pyarrow", batch_size=2048)

    def shape(tbl: pa.Table) -> pa.Table:
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "n_chars": tbl.column("n_chars_q"),
                "quality": pa.array(q, pa.float64()),
            }
        )

    return pareto_frontier(
        ds.map_batches(shape, batch_format="pyarrow"), "n_chars", "quality"
    )


def q_mst_forest(sf_dir: str):
    """Boruvka minimum spanning forest of the derived graph under
    deterministic weights w = (u·7 + v·13) % 97 + 1
    (algorithms/mst.py: per-component argmin exchange → engine-CC
    contraction → broadcast/hash-join relabel, ≤ log2(V) rounds).
    Rows-only driver check — MST is not SQL-expressible; exact equality
    to a union-find Kruskal oracle under the same (w, u, v) edge total
    order is pinned in tests/test_mst.py."""
    from signal_collect_ray.algorithms.mst import minimum_spanning_forest

    def weigh(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        w = ((s * 7 + d * 13) % 97 + 1).astype(np.float64)
        return pa.table(
            {
                "src": tbl.column("src"),
                "dst": tbl.column("dst"),
                "weight": pa.array(w, pa.float64()),
            }
        )

    return minimum_spanning_forest(
        derived_edges_ds(sf_dir).map_batches(weigh, batch_format="pyarrow"),
        _work_dir(sf_dir, "mst"),
        num_partitions=_P,
    )


def _custkeys_dense_n(sf_dir: str) -> int:
    """Customer-key count for the planted graph fixtures, asserting the
    dense 0..N−1 layout the SQL mirrors rely on (the same documented
    precondition style as the <2^32 id note on _SKEW_SQL)."""
    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    n = ds.count()
    assert ds.max("c_custkey") == n - 1, "customer keys not dense 0..N-1"
    return n


def _customer_keys_ds(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )


def q_mst_planted(sf_dir: str):
    """Boruvka MSF under a FULL-equality oracle on a planted fixture:
    the graph is a weight-1 path over the (dense) customer keys plus
    weight-100 chords (k, k+3) — the unique MSF is exactly the path, so
    the oracle is pure SQL arithmetic (LEAD over the key order). The
    fixture's round-1 merge graph is an O(V) chain: the case where the
    pointer-doubling contraction must converge in O(log V) where a
    superstep-capped label propagation would under-contract and emit
    duplicate forest rows. General MSF equality to a Kruskal union-find
    oracle under the (w, u, v) total order stays pinned in
    tests/test_mst.py; this query puts the same invariant under the
    driver's exact-hash gate."""
    from signal_collect_ray.algorithms.mst import minimum_spanning_forest

    n = _custkeys_dense_n(sf_dir)

    def fixture(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        pk = k[k + 1 <= n - 1]
        ck = k[k + 3 <= n - 1]
        return pa.table(
            {
                "src": pa.array(np.concatenate([pk, ck]), pa.int64()),
                "dst": pa.array(
                    np.concatenate([pk + 1, ck + 3]), pa.int64()
                ),
                "weight": pa.array(
                    np.concatenate(
                        [np.ones(len(pk)), np.full(len(ck), 100.0)]
                    ),
                    pa.float64(),
                ),
            }
        )

    return minimum_spanning_forest(
        _customer_keys_ds(sf_dir).map_batches(fixture, batch_format="pyarrow"),
        _work_dir(sf_dir, "mst_planted"),
        num_partitions=_P,
    )


_MST_PLANTED_SQL = (
    "SELECT c_custkey AS u, c_custkey + 1 AS v, CAST(1.0 AS DOUBLE) AS weight "
    "FROM customer WHERE c_custkey + 1 <= (SELECT MAX(c_custkey) FROM customer)"
)


def q_redirect_chains_planted(sf_dir: str):
    """Redirect-chain resolution (algorithms/redirects.py pointer
    doubling) under a FULL-equality oracle: the planted functional
    graph chains v→v+1 inside blocks of 50 (block tails and the last
    key self-point), so every url's final destination is pure SQL
    arithmetic. 6 doubling rounds cover the 49-hop worst case
    (2^6 ≥ 49); each round is one co-partitioned hash self-join."""
    from signal_collect_ray.algorithms.redirects import resolve_redirects

    n = _custkeys_dense_n(sf_dir)

    def fixture(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        nxt = np.where((k % 50 == 49) | (k == n - 1), k, k + 1)
        return pa.table(
            {
                "vid": pa.array(k, pa.int64()),
                "next": pa.array(nxt, pa.int64()),
            }
        )

    return resolve_redirects(
        _customer_keys_ds(sf_dir).map_batches(fixture, batch_format="pyarrow"),
        rounds=6,
        num_partitions=_P,
    )


_REDIRECT_PLANTED_SQL = """
SELECT c_custkey AS vid,
       CAST(LEAST((c_custkey // 50) * 50 + 49,
                  (SELECT COUNT(*) FROM customer) - 1) AS BIGINT) AS final
FROM customer
"""


def q_betweenness_planted(sf_dir: str):
    """EXACT Brandes betweenness (all sources) under a FULL-equality
    oracle: the graph is the symmetric 4-ary heap tree over the dense
    customer keys (parent (v−1)//4), where every shortest path is
    unique and the ordered-pair flow through each vertex has the
    closed form (n−1)(n−2) − Σ_child s(s−1) − r(r−1) with r the
    rest-of-tree size — pure subtree arithmetic the SQL recomputes via
    one recursive ancestor walk. Exercises the full Brandes dependency
    accumulation (sigma, level order, delta folds) bit-for-bit; the
    sampled variant over the derived graph stays the rows-only
    betweenness_sampled probe."""
    from signal_collect_ray.algorithms.betweenness import betweenness_sampled
    from signal_collect_ray.graph import Graph

    _custkeys_dense_n(sf_dir)

    def tree(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        child = k[k > 0]
        par = (child - 1) // 4
        return pa.table(
            {
                "src": pa.array(np.concatenate([par, child]), pa.int64()),
                "dst": pa.array(np.concatenate([child, par]), pa.int64()),
            }
        )

    g = Graph.build(
        _customer_keys_ds(sf_dir).map_batches(tree, batch_format="pyarrow"),
        _work_dir(sf_dir, "bet_planted"),
        num_partitions=_P,
    )
    return betweenness_sampled(g, sample_mod=1)


_BET_PLANTED_SQL = (
    "WITH RECURSIVE up AS ("
    "SELECT c_custkey AS v, c_custkey AS node FROM customer "
    "UNION ALL "
    "SELECT v, (node - 1) // 4 FROM up WHERE node > 0), "
    "sub AS (SELECT node, COUNT(*) AS size FROM up GROUP BY node), "
    "csz AS (SELECT (node - 1) // 4 AS p, SUM(size) AS ssum, "
    "SUM(size * (size - 1)) AS s2 FROM sub WHERE node > 0 GROUP BY 1), "
    "n AS (SELECT COUNT(*) AS n FROM customer) "
    "SELECT c_custkey AS vid, ROUND(CAST("
    "(n.n - 1) * (n.n - 2) - COALESCE(c.s2, 0) "
    "- (n.n - 1 - COALESCE(c.ssum, 0)) * (n.n - 2 - COALESCE(c.ssum, 0)) "
    "AS DOUBLE), 6) AS betweenness "
    "FROM customer CROSS JOIN n LEFT JOIN csz c ON c.p = c_custkey"
)


def q_louvain_planted(sf_dir: str):
    """One-level Louvain under a FULL-equality oracle on a planted
    fixture: disjoint 10-cliques over the dense customer keys
    (clique = vid // 10). Modularity-greedy moves must collapse each
    clique to ONE community and can never merge disconnected cliques,
    so the normalized labeling (community := min member vid) is pure
    SQL window arithmetic. The derived-graph run stays the rows-only
    louvain_communities probe (iterative greedy fixed point)."""
    from ray.data.aggregate import Min

    from signal_collect_ray.algorithms.modularity import louvain_one_level
    from signal_collect_ray.functions.joins import capped_broadcast_join

    n = _custkeys_dense_n(sf_dir)

    def cliques(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        base = (k // 10) * 10
        dst = base[:, None] + np.arange(10, dtype=np.int64)[None, :]
        src = np.repeat(k, 10)
        dst = dst.ravel()
        keep = (dst != src) & (dst < n)
        return pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
            }
        )

    lab = louvain_one_level(
        _customer_keys_ds(sf_dir).map_batches(cliques, batch_format="pyarrow"),
        rounds=6,
        num_partitions=16,
    )
    mins = lab.groupby("label").aggregate(Min("vid", alias_name="community"))
    return capped_broadcast_join(lab, mins, on="label").select_columns(
        ["vid", "community"]
    )


_LOUVAIN_PLANTED_SQL = (
    "SELECT c_custkey AS vid, "
    "MIN(c_custkey) OVER (PARTITION BY c_custkey // 10) AS community "
    "FROM customer"
)


def _planted_blobs_ds(sf_dir: str, n: int):
    """8 well-separated blobs in R^8 derived from the customer keys:
    x(vid) = 100·e_{vid%8} + j(vid)·e_{(vid%8+1)%8} with a UNIQUE tiny
    jitter j(vid) = 1e-4·vid — except vids {0, 8, 16, 24, 32}, which
    get j = 0 and are therefore five bit-identical copies of 100·e_0.
    Properties the planted oracles rely on: inter-blob distance ≈ 141
    ≫ intra-blob spread (nearest-centroid assignment = vid % 8 for any
    one-seed-per-blob centroid set); every same-blob cosine ≥ 0.999
    and cross-blob ≤ 0.05; all cosines to vec 0 are DISTINCT floats
    except the five exact copies at exactly 1.0 — so any top-5 search
    that scores the copies returns exactly {0, 8, 16, 24, 32} with no
    tie ambiguity, and exact-copy bucketing (identical LSH codes,
    identical IVF cells) guarantees the copies are always candidates."""

    def blobs(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        b = (k % 8).astype(np.int64)
        j = 1e-4 * k
        j[(k % 8 == 0) & (k <= 32)] = 0.0
        x = np.zeros((len(k), 8), dtype=np.float64)
        x[np.arange(len(k)), b] = 100.0
        x[np.arange(len(k)), (b + 1) % 8] = j
        return pa.table(
            {
                "vec_id": pa.array(k, pa.int64()),
                "embedding": pa.array(list(x), pa.list_(pa.float64())),
            }
        )

    return _customer_keys_ds(sf_dir).map_batches(
        blobs, batch_format="pyarrow"
    )


def q_kmeans_planted(sf_dir: str):
    """Lloyd k-means under a FULL-equality oracle on a planted fixture:
    8 well-separated blobs (centers 100·e_b, intra spread ≤ 0.04), with
    the deterministic Gonzalez maximin init — farthest-point seeding
    provably lands one seed per blob, after which nearest-centroid
    assignment IS the blob id at every Lloyd iteration. Labels
    normalize to the min vec_id per cluster, so the oracle is a SQL
    window min over vid % 8. The full-corpus seeded-init run stays the
    rows-only kmeans_clusters probe."""
    from ray.data.aggregate import Min

    from signal_collect_ray.functions.joins import capped_broadcast_join
    from signal_collect_ray.functions.similarity import kmeans_lloyd

    n = _custkeys_dense_n(sf_dir)
    _C, assign_ds, _j = kmeans_lloyd(
        _planted_blobs_ds(sf_dir, n), k=8, iters=10, init="maximin"
    )
    mins = assign_ds.groupby("cluster").aggregate(
        Min("vec_id", alias_name="cluster_min")
    )
    out = capped_broadcast_join(assign_ds, mins, on="cluster")
    return out.map_batches(
        lambda t: pa.table(
            {"vec_id": t.column("vec_id"), "cluster": t.column("cluster_min")}
        ),
        batch_format="pyarrow",
    )


_KMEANS_PLANTED_SQL = (
    "SELECT c_custkey AS vec_id, "
    "MIN(c_custkey) OVER (PARTITION BY c_custkey % 8) AS cluster "
    "FROM customer"
)


def q_pca_planted(sf_dir: str):
    """Distributed power-iteration PCA under a FULL-equality oracle on
    a rank-1 planted fixture: x(vid) = t·e_3 with integer
    t = (vid % 17) − 8. Every quantity in the iteration stays EXACTLY
    on the e_3 axis (zero columns produce exact float zeros, c/|c| is
    ±1.0 exactly), so the converged component is bit-for-bit e_3, the
    sign convention makes it +e_3, and the projection is the integer t
    itself — the oracle recomputes t in pure SQL arithmetic. Exercises
    the mean partials, the covariance matvec exchange, normalization,
    sign fix, and the projection pass end-to-end with no float-parity
    hazard (the ADVICE knn class). The real-embedding run stays the
    rows-only pca_projection probe."""
    from signal_collect_ray.functions.similarity import (
        pca_project,
        pca_top_component,
    )

    n = _custkeys_dense_n(sf_dir)

    def rank1(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        t = (k % 17) - 8
        x = np.zeros((len(k), 8), dtype=np.float64)
        x[:, 3] = t.astype(np.float64)
        return pa.table(
            {
                "vec_id": pa.array(k, pa.int64()),
                "embedding": pa.array(list(x), pa.list_(pa.float64())),
            }
        )

    emb = _customer_keys_ds(sf_dir).map_batches(rank1, batch_format="pyarrow")
    v, _lam, _n = pca_top_component(emb, iters=50)
    return pca_project(emb, v)


_PCA_PLANTED_SQL = (
    "SELECT c_custkey AS vec_id, "
    "CAST((c_custkey % 17) - 8 AS DOUBLE) AS pc1 FROM customer"
)


def q_knn_ivf_planted(sf_dir: str):
    """IVF ANN under a FULL-equality oracle: the blob fixture carries
    five exact copies of 100·e_0 (vids 0,8,16,24,32) and every other
    cosine to vec 0 is a strictly smaller distinct float, so the top-5
    is forced with no tie ambiguity. Centroids are the known blob axes
    (passed precomputed — the supported quantizer-reuse path), so cell
    assignment and probe pruning are deterministic: cell 0 holds all
    copies, any second probed cell only contributes ≈0-scores. The
    real-embedding run stays the rows-only knn_ivf_vec0_top5 probe
    (recall pinned vs brute force in tests)."""
    from signal_collect_ray.functions.similarity import knn_ivf

    n = _custkeys_dense_n(sf_dir)
    q0 = np.zeros((1, 8))
    q0[0, 0] = 100.0
    out = knn_ivf(
        _planted_blobs_ds(sf_dir, n),
        q0,
        k=5,
        n_probe=2,
        centroids=np.eye(8),
    ).take_all()
    return pa.table(
        {
            "id": pa.array([r["id"] for r in out], pa.int64()),
            "score": pa.array(
                [round(r["score"], 4) for r in out], pa.float64()
            ),
        }
    )


def q_knn_lsh_planted(sf_dir: str):
    """Random-hyperplane LSH ANN under a FULL-equality oracle: the five
    exact copies of the query vector share its EXACT bucket code in
    every table (bit-identical inputs hash identically), so they are
    always candidates; exact re-ranking then forces top-5 =
    {0,8,16,24,32} at score 1.0 regardless of which other blob-0
    members land in the bucket. The real-embedding run stays the
    rows-only knn_lsh_vec0_top5 probe."""
    from signal_collect_ray.functions.similarity import knn_lsh

    n = _custkeys_dense_n(sf_dir)
    q0 = np.zeros((1, 8))
    q0[0, 0] = 100.0
    out = knn_lsh(
        _planted_blobs_ds(sf_dir, n), q0, k=5, n_planes=8, n_tables=8
    ).take_all()
    return pa.table(
        {
            "id": pa.array([r["id"] for r in out], pa.int64()),
            "score": pa.array(
                [round(r["score"], 4) for r in out], pa.float64()
            ),
        }
    )


_KNN_PLANTED_SQL = (
    "SELECT c_custkey AS id, CAST(1.0 AS DOUBLE) AS score FROM customer "
    "WHERE c_custkey % 8 = 0 AND c_custkey <= 32"
)


def q_scc_planted(sf_dir: str):
    """Forward-backward SCC under a FULL-equality oracle on a planted
    fixture: one directed cycle over the first min(N, 600) customer
    keys — a single SCC whose reach propagation needs more supersteps
    than the old 500-cap (which silently split it into singletons; see
    algorithms/scc.py:_REACH_MAX_SUPERSTEPS), labeled by the component
    min (vid 0). Pins the quiescence-bounded reach guard under the
    driver's exact-hash gate; the derived-graph run stays the
    recursive-CTE-oracled scc_labels query."""
    from signal_collect_ray.algorithms.scc import scc_labels

    n = min(_custkeys_dense_n(sf_dir), 600)

    def cycle(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        k = k[k < n]
        return pa.table(
            {
                "src": pa.array(k, pa.int64()),
                "dst": pa.array((k + 1) % n, pa.int64()),
            }
        )

    return scc_labels(
        _customer_keys_ds(sf_dir).map_batches(cycle, batch_format="pyarrow"),
        _work_dir(sf_dir, "scc_planted"),
        num_partitions=4,
    )


_SCC_PLANTED_SQL = (
    "SELECT c_custkey AS vid, CAST(0 AS BIGINT) AS scc FROM customer "
    "WHERE c_custkey < LEAST((SELECT COUNT(*) FROM customer), 600)"
)


def q_semdedup_planted(sf_dir: str):
    """SemDeDup end-to-end (k-means buckets → exact in-cluster cosine →
    engine-CC closure → min-id representative) under a FULL-equality
    oracle: on the 8-blob fixture every same-blob pair has cosine
    ≥ 0.999996 and every cross-blob pair ≤ 0.05, so at threshold 0.5
    each blob collapses to ONE duplicate cluster — on BOTH verifier
    paths (all-pairs keeps consecutive-id chains connected; the
    degenerate min-link path links every member to the bucket min) —
    and the drop set is exactly "all but the min vid per vid % 8",
    pure SQL window arithmetic. Maximin init makes cluster = blob
    deterministic. The real-embedding run stays the rows-only
    semdedup_drops probe."""
    from signal_collect_ray.functions.similarity import semdedup

    n = _custkeys_dense_n(sf_dir)
    _pairs, drops = semdedup(
        _planted_blobs_ds(sf_dir, n),
        _work_dir(sf_dir, "semdedup_planted"),
        k=8,
        threshold=0.5,
        init="maximin",
    )
    return drops


_SEMDEDUP_PLANTED_SQL = (
    "SELECT c_custkey AS id FROM ("
    "SELECT c_custkey, MIN(c_custkey) OVER (PARTITION BY c_custkey % 8) AS m "
    "FROM customer) WHERE c_custkey <> m"
)


def q_dbscan_planted(sf_dir: str):
    """Density clustering with noise (DBSCAN over cosine,
    functions/similarity.dbscan_cosine) under a FULL-equality oracle:
    the 8-blob fixture plus four planted OUTLIERS — the last four keys
    get the mixed direction 100·(e_b − e_{b+1}), whose cosine to every
    blob is ≤ 0.71 and to every other outlier ≤ 0 — so at ε-threshold
    0.9 / minPts 3 each blob is one complete core component labeled by
    its min id (= vid % 8) and the outliers are noise (−1): pure SQL
    arithmetic. Exercises the whole distributed path (ε-pair kernel,
    degree exchange, engine-CC closure, border/noise assignment)."""
    from signal_collect_ray.functions.similarity import dbscan_cosine

    n = _custkeys_dense_n(sf_dir)

    def blobs_noise(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        b = (k % 8).astype(np.int64)
        j = 1e-4 * k
        j[(k % 8 == 0) & (k <= 32)] = 0.0
        x = np.zeros((len(k), 8), dtype=np.float64)
        x[np.arange(len(k)), b] = 100.0
        x[np.arange(len(k)), (b + 1) % 8] = j
        noise = k >= n - 4
        x[noise] = 0.0
        x[noise, b[noise]] = 100.0
        x[noise, (b[noise] + 1) % 8] = -100.0
        return pa.table(
            {
                "vec_id": pa.array(k, pa.int64()),
                "embedding": pa.array(list(x), pa.list_(pa.float64())),
            }
        )

    return dbscan_cosine(
        _customer_keys_ds(sf_dir).map_batches(
            blobs_noise, batch_format="pyarrow"
        ),
        _work_dir(sf_dir, "dbscan_planted"),
        threshold=0.9,
        min_pts=3,
    )


_DBSCAN_PLANTED_SQL = (
    "WITH n AS (SELECT COUNT(*) AS n FROM customer) "
    "SELECT c_custkey AS vec_id, "
    "CAST(CASE WHEN c_custkey >= n.n - 4 THEN -1 "
    "ELSE c_custkey % 8 END AS BIGINT) AS cluster "
    "FROM customer, n"
)


def q_dbscan_clusters(sf_dir: str):
    """DBSCAN over the real embeddings table (cosine ε = 0.3, minPts 4).
    Rows-only probe: an exact SQL mirror would re-derive the ε-pair
    graph with DuckDB's own cosine — a different float expression whose
    last-ulp disagreements at the threshold boundary are precisely the
    nondeterministic-parity class ADVICE flagged on knn; the kernel is
    pinned bit-exactly by the planted twin (dbscan_planted) instead."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import dbscan_cosine

    return dbscan_cosine(
        rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        _work_dir(sf_dir, "dbscan_real"),
        threshold=0.3,
        min_pts=4,
    )


def q_node2vec_planted(sf_dir: str):
    """Second-order node2vec walks under a FULL-equality oracle on a
    planted fixture: a directed cycle over the dense customer keys.
    Every vertex has out-degree 1, so whatever the rejection sampler
    draws the accepted step is forced — the trace is pure modular
    arithmetic ((start + step) % n) and the oracle pins the whole
    distributed machinery (chunked proposals, prev-shard judging,
    partition routing, trace assembly) bit-for-bit. The biased-walk
    SEMANTICS (acceptance probabilities, attempt order) stay pinned
    against the sequential simulator in tests/test_walks_n2v.py; the
    derived-graph run stays the rows-only node2vec_walks probe."""
    from signal_collect_ray.algorithms.walks import node2vec_walks
    from signal_collect_ray.graph import Graph

    n = _custkeys_dense_n(sf_dir)

    def cycle(tbl: pa.Table) -> pa.Table:
        k = tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "src": pa.array(k, pa.int64()),
                "dst": pa.array((k + 1) % n, pa.int64()),
            }
        )

    g = Graph.build(
        _customer_keys_ds(sf_dir).map_batches(cycle, batch_format="pyarrow"),
        _work_dir(sf_dir, "n2v_planted"),
        num_partitions=_P,
    )
    return node2vec_walks(g, walk_len=6, p=0.5, q=2.0, seed=11, start_mod=4)


_N2V_PLANTED_SQL = (
    "WITH n AS (SELECT COUNT(*) AS n FROM customer) "
    "SELECT c_custkey AS walk_id, s.step AS step, "
    "(c_custkey + s.step) % n.n AS vid "
    "FROM customer CROSS JOIN n, "
    "LATERAL (SELECT unnest(range(0, 7)) AS step) s "
    "WHERE c_custkey % 4 = 0"
)


def q_bm25_top_docs(sf_dir: str):
    """BM25 retrieval: top-10 documents for the fixed query
    ('merge', 'window', 'hash') — functions.text.bm25_top_docs, zero
    word-level exchange (query broadcast in the closure; tiny N / avgdl
    / df stats aggregate; per-block partial top-k)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import bm25_top_docs

    return bm25_top_docs(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        ),
        ["merge", "window", "hash"],
        k=10,
    )


_BM25_SQL = """
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
words AS (
  SELECT doc_id, unnest(w) AS word FROM d WHERE w[1] <> ''),
dl AS (
  SELECT d.doc_id, COALESCE(c.cnt, 0) AS dl
  FROM d LEFT JOIN (
    SELECT doc_id, COUNT(*) AS cnt FROM words GROUP BY doc_id) c
  USING (doc_id)),
stats AS (SELECT COUNT(*) AS n, AVG(dl * 1.0) AS avgdl FROM dl),
tf AS (
  SELECT doc_id, word, COUNT(*) AS tf FROM words
  WHERE word IN ('merge', 'window', 'hash') GROUP BY doc_id, word),
df AS (SELECT word, COUNT(*) AS df FROM tf GROUP BY word),
scored AS (
  SELECT tf.doc_id,
         SUM(ln(1.0 + (stats.n - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * 2.2
             / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl))) AS s
  FROM tf
  JOIN df USING (word)
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id)
SELECT doc_id, ROUND(s, 6) AS bm25 FROM scored
WHERE ROUND(s, 6) > 0
ORDER BY bm25 DESC, doc_id ASC LIMIT 10
"""


def q_benchmark_contamination(sf_dir: str):
    """Benchmark-decontamination scan: documents containing any
    'benchmark' 5-gram (deterministically drawn from doc_id % 97 == 0
    docs, words 10..15) as a consecutive word window —
    functions.text.benchmark_contamination; the bench set is broadcast
    once and each block intersects its docs' window sets (O(words) per
    doc, independent of benchmark size)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import (
        benchmark_contamination,
        benchmark_grams_from_docs,
    )

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    bench = benchmark_grams_from_docs(docs, mod=97, n=5, skip=10)
    return benchmark_contamination(docs, bench, n=5)


_CONTAMINATION_SQL = """
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
bench AS (
  SELECT DISTINCT array_to_string(w[11:15], ' ') AS gram
  FROM d WHERE doc_id % 97 = 0 AND len(w) >= 15 AND w[1] <> ''),
wins AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+4], ' ') AS gram
  FROM d, UNNEST(generate_series(1, len(w) - 4)) AS t(i)
  WHERE w[1] <> '' AND len(w) >= 5)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_hits
FROM wins JOIN bench USING (gram)
GROUP BY doc_id
"""


def q_classifier_scores(sf_dir: str):
    """fastText-style hashed-linear-classifier inference over documents
    (functions.models.classify_documents) — actor-pool model scoring
    with a deterministic md5-derived weight vector, so the inference
    dataflow has an exact SQL mirror."""
    import ray.data as rd

    from signal_collect_ray.functions.models import classify_documents

    return classify_documents(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        ),
        concurrency=2,
    ).select_columns(["doc_id", "cls_score"])


_CLASSIFIER_SQL = """
WITH d AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
words AS (
  SELECT doc_id, unnest(w) AS word FROM d WHERE w[1] <> ''),
wt AS (
  SELECT doc_id,
         (CAST(('0x' || substr(md5('w:' || CAST(
             CAST(('0x' || substr(md5(word), 1, 8)) AS UBIGINT) % 1024
           AS VARCHAR)), 1, 8)) AS UBIGINT) / 4294967296.0 - 0.5) AS v
  FROM words WHERE word <> ''),
s AS (SELECT doc_id, AVG(v) AS raw FROM wt GROUP BY doc_id)
SELECT d.doc_id,
       ROUND(COALESCE(1.0 / (1.0 + exp(-8.0 * s.raw)), 0.5), 6) AS cls_score
FROM d LEFT JOIN s USING (doc_id)
"""


def q_quality_percentiles(sf_dir: str):
    """Percentile-rank (CUME_DIST) transform of the quality score —
    computed WITHOUT a global sort: the rounded scores are discrete, so
    a counting histogram (one tiny aggregate) broadcast with its cumsum
    ranks every row in a streaming second pass. Exact: the rank ratio
    is int/int on both engines."""
    import ray
    import ray.data as rd

    from signal_collect_ray.functions.text import QualityScore

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(QualityScore(), batch_format="pyarrow", batch_size=2048)

    def keyed(tbl: pa.Table) -> pa.Table:
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        qi = np.round(q * 1e6).astype(np.int64)
        return pa.table({"doc_id": tbl.column("doc_id"),
                         "qi": pa.array(qi, pa.int64())})

    kd = ds.map_batches(keyed, batch_format="pyarrow").materialize()

    def hist(tbl: pa.Table) -> pa.Table:
        u, c = np.unique(tbl.column("qi").to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"qi": pa.array(u, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    parts = kd.map_batches(hist, batch_format="pyarrow").take_all()
    agg: dict = {}
    for r in parts:
        agg[r["qi"]] = agg.get(r["qi"], 0) + r["c"]
    vals = np.array(sorted(agg), dtype=np.int64)
    cum = np.cumsum(np.array([agg[v] for v in vals], dtype=np.int64))
    n = float(cum[-1]) if len(cum) else 1.0
    ref = ray.put((vals, cum))

    def rank(tbl: pa.Table) -> pa.Table:
        v, c = ray.get(ref)
        qi = tbl.column("qi").to_numpy(zero_copy_only=False)
        pct = c[np.searchsorted(v, qi)] / n
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "quality": pa.array(qi / 1e6, pa.float64()),
                "pct_rank": pa.array(np.round(pct, 6), pa.float64()),
            }
        )

    return kd.map_batches(rank, batch_format="pyarrow")


def _quality_pct_sql() -> str:
    return (
        f"WITH q AS ({_QUALITY_SQL}) "
        "SELECT doc_id, quality, "
        "ROUND(CUME_DIST() OVER (ORDER BY quality), 6) AS pct_rank FROM q"
    )


_WSAMPLE_K, _WSAMPLE_SEED = 50, 42


def q_weighted_sample(sf_dir: str):
    """Quality-weighted 50-doc sample without replacement
    (functions.sampling.weighted_sample, Efraimidis–Spirakis keys)."""
    import ray.data as rd

    from signal_collect_ray.functions.sampling import weighted_sample
    from signal_collect_ray.functions.text import QualityScore

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(QualityScore(), batch_format="pyarrow", batch_size=2048)

    def prep(tbl: pa.Table) -> pa.Table:
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {"doc_id": tbl.column("doc_id"), "quality": pa.array(q)}
        )

    out = weighted_sample(
        ds.map_batches(prep, batch_format="pyarrow"),
        "quality", _WSAMPLE_K, seed=_WSAMPLE_SEED,
    )

    def rnd(tbl: pa.Table) -> pa.Table:
        s = np.round(tbl.column("score").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "quality": tbl.column("quality"),
                "score": pa.array(s, pa.float64()),
            }
        )

    return out.map_batches(rnd, batch_format="pyarrow")


def _weighted_sample_sql() -> str:
    u = (
        f"(CAST(('0x' || substr(md5('{_WSAMPLE_SEED}:' || "
        "CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) + 0.5) / 4294967296.0"
    )
    return (
        f"WITH q AS ({_QUALITY_SQL}), "
        f"s AS (SELECT doc_id, quality, pow({u}, 1.0 / quality) AS score "
        "FROM q WHERE quality > 0) "
        "SELECT doc_id, quality, ROUND(score, 6) AS score FROM s "
        f"ORDER BY s.score DESC, doc_id ASC LIMIT {_WSAMPLE_K}"
    )


_QUANTILE_QS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def q_doc_length_quantiles(sf_dir: str):
    """Exact word-count quantiles via distributed counting histograms
    (functions.aggregations.exact_quantiles_int — no global sort)."""
    import ray.data as rd

    from signal_collect_ray.functions.aggregations import exact_quantiles_int
    from signal_collect_ray.functions.text import TokenCount

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(TokenCount(), batch_format="pyarrow", batch_size=2048)
    res = exact_quantiles_int(ds, "n_words", _QUANTILE_QS)
    return pa.table(
        {
            "q": pa.array([q for q, _ in res], pa.float64()),
            "n_words": pa.array([v for _, v in res], pa.int64()),
        }
    )


def _quantiles_sql() -> str:
    vals = ", ".join(f"({q})" for q in _QUANTILE_QS)
    return (
        "WITH w AS (SELECT CAST(length(regexp_extract_all(COALESCE(text, ''), "
        "'\\S+')) AS BIGINT) AS v FROM documents), "
        "o AS (SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS rn FROM w), "
        "n AS (SELECT COUNT(*) AS n FROM w), "
        f"qs(q) AS (VALUES {vals}) "
        "SELECT CAST(qs.q AS DOUBLE) AS q, o.v AS n_words "
        "FROM qs, n JOIN o "
        "ON o.rn = GREATEST(CAST(CEIL(qs.q * n.n) AS BIGINT), 1)"
    )


def q_lang_length_quantiles(sf_dir: str):
    """Per-language doc-length quantiles (functions.aggregations.
    grouped_quantiles_int — per-block histograms, one group exchange)."""
    import ray.data as rd

    from signal_collect_ray.functions.aggregations import grouped_quantiles_int
    from signal_collect_ray.functions.text import LanguageId, TokenCount

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ds = ds.map_batches(LanguageId(), batch_format="pyarrow", batch_size=2048)
    ds = ds.map_batches(TokenCount(), batch_format="pyarrow", batch_size=2048)
    out = grouped_quantiles_int(
        ds.select_columns(["lang_pred", "n_words"]),
        "lang_pred", "n_words", _QUANTILE_QS,
    )
    return out.rename_columns({"value": "n_words"})


def _lang_quantiles_sql() -> str:
    vals = ", ".join(f"({q})" for q in _QUANTILE_QS)
    return (
        f"WITH pred AS ({_lang_pred_sql()}), "
        "w AS (SELECT pred.lang_pred, "
        "CAST(length(regexp_extract_all(COALESCE(d.text, ''), '\\S+')) "
        "AS BIGINT) AS v FROM documents d "
        "JOIN pred ON pred.doc_id = d.doc_id), "
        "o AS (SELECT lang_pred, v, ROW_NUMBER() OVER "
        "(PARTITION BY lang_pred ORDER BY v) AS rn FROM w), "
        "n AS (SELECT lang_pred, COUNT(*) AS n FROM w GROUP BY lang_pred), "
        f"qs(q) AS (VALUES {vals}) "
        "SELECT o.lang_pred, CAST(qs.q AS DOUBLE) AS q, o.v AS n_words "
        "FROM qs, n JOIN o ON o.lang_pred = n.lang_pred "
        "AND o.rn = GREATEST(CAST(CEIL(qs.q * n.n) AS BIGINT), 1)"
    )


_TFIDF_K = 5


def q_tfidf_top_terms(sf_dir: str):
    """Top-5 tf-idf terms per document (functions.text.tfidf_top_terms:
    tf+df in one groupby(word) exchange, then grouped_top_k)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import tfidf_top_terms

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return tfidf_top_terms(ds, k=_TFIDF_K)


def _tfidf_sql() -> str:
    return (
        "WITH d AS (SELECT doc_id, regexp_split_to_array("
        "trim(lower(COALESCE(text, ''))), '\\s+') AS w FROM documents), "
        "words AS (SELECT doc_id, unnest(w) AS word FROM d), "
        "tf AS (SELECT doc_id, word, CAST(COUNT(*) AS BIGINT) AS tf "
        "FROM words WHERE word <> '' GROUP BY doc_id, word), "
        "df AS (SELECT word, COUNT(*) AS df FROM tf GROUP BY word), "
        "n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents), "
        "s AS (SELECT tf.doc_id, tf.word, "
        "ROUND(tf.tf * ln(n.n / df.df), 6) AS tfidf, "
        "ROW_NUMBER() OVER (PARTITION BY tf.doc_id "
        "ORDER BY ROUND(tf.tf * ln(n.n / df.df), 6) DESC, tf.word ASC) AS rn "
        "FROM tf JOIN df USING (word), n) "
        f"SELECT doc_id, word, tfidf FROM s WHERE rn <= {_TFIDF_K}"
    )


_TOPDOCS_K = 3


def q_top_docs_per_lang(sf_dir: str):
    """Exact top-k documents by quality per predicted language —
    grouped_top_k (per-block partial top-k combiner, one groupby)."""
    import ray.data as rd

    from signal_collect_ray.functions.aggregations import grouped_top_k
    from signal_collect_ray.functions.text import LanguageId, QualityScore

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ds = ds.map_batches(LanguageId(), batch_format="pyarrow", batch_size=2048)
    ds = ds.map_batches(QualityScore(), batch_format="pyarrow", batch_size=2048)

    def prep(tbl: pa.Table) -> pa.Table:
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "lang_pred": tbl.column("lang_pred"),
                "quality": pa.array(q, pa.float64()),
            }
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    return grouped_top_k(
        ds, "lang_pred", "quality", "doc_id", _TOPDOCS_K, descending=True
    )


def _top_docs_sql() -> str:
    return (
        f"WITH pred AS ({_lang_pred_sql()}), q AS ({_QUALITY_SQL}), "
        "j AS (SELECT q.doc_id, pred.lang_pred, q.quality, "
        "ROW_NUMBER() OVER (PARTITION BY pred.lang_pred "
        "ORDER BY q.quality DESC, q.doc_id ASC) AS rn "
        "FROM q JOIN pred ON pred.doc_id = q.doc_id) "
        f"SELECT doc_id, lang_pred, quality FROM j WHERE rn <= {_TOPDOCS_K}"
    )


def q_lang_id_counts(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Count

    from signal_collect_ray.functions.text import LanguageId

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = ds.map_batches(LanguageId(), batch_format="pyarrow")
    return out.groupby("lang_pred").aggregate(Count(alias_name="n"))


def q_quality_scores(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.text import QualityScore

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = ds.map_batches(QualityScore(), batch_format="pyarrow")

    def rnd(tbl: pa.Table) -> pa.Table:
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {"doc_id": tbl.column("doc_id"), "quality": pa.array(q, pa.float64())}
        )

    return out.map_batches(rnd, batch_format="pyarrow")


def q_doc_fingerprints(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.text import Fingerprint

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = ds.map_batches(Fingerprint(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint"])


def q_pagerank_k20(sf_dir: str):
    """Fixed-20-step PageRank — the oracle-checkable stand-in for the
    converged run (pagerank_converged itself stays rows-only: its step
    count is data-dependent)."""
    from signal_collect_ray.algorithms import PageRank

    t = _state(sf_dir, PageRank(), False, 20, eps=0.0, tag="_k20")
    return _round_state(t, "rank", 6)


_GOL_W = 16  # cellular-query grid side (256 cells, fixed at every sf)


def _cellular_graph(sf_dir: str, tag: str):
    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms.cellular import grid8_edges

    key = (sf_dir, tag)
    g = _GRAPH_CACHE.get(key)
    if g is None:
        src, dst = grid8_edges(_GOL_W, _GOL_W)
        g = Graph.from_edge_arrays(
            src, dst, _work_dir(sf_dir, f"graph_{tag}"), num_partitions=4
        )
        _GRAPH_CACHE[key] = g
    return g


def _cellular_state(sf_dir, algo, steps, tag):
    from signal_collect_ray import EngineConfig
    from signal_collect_ray.engine_resident import ResidentEngine

    g = _cellular_graph(sf_dir, "grid8")
    eng = ResidentEngine(
        EngineConfig(num_partitions=4, eps=1e-9, max_supersteps=steps),
        num_workers=2,
    )
    info = eng.run(
        g, algo, run_dir=_work_dir(sf_dir, f"run_{tag}"), resume=False,
        checkpoint_interval=50,
    )
    t = info.state_table()
    return pa.table({"vid": t.column("vid"), "alive": t.column("state")})


def q_game_of_life_k8(sf_dir: str):
    """Conway's Game of Life, 8 synchronous steps on a 16×16 grid with a
    deterministic vid-derived seed pattern (reference
    examples/GameOfLife.scala rules; oracle = unrolled SQL over the
    same grid)."""
    from signal_collect_ray.algorithms import GameOfLife

    def init_fn(vid):
        x, y = vid % _GOL_W, vid // _GOL_W
        return ((x * 7 + y * 13) % 3 == 0).astype(np.int64)

    return _cellular_state(sf_dir, GameOfLife(init_fn=init_fn), 8, "gol8")


def q_schelling_k8(sf_dir: str):
    """Schelling segregation (threshold 0.45), 8 steps on the same grid
    (reference examples/SchellingSegregation.scala rule)."""
    from signal_collect_ray.algorithms import SchellingSegregation

    def init_fn(vid):
        x, y = vid % _GOL_W, vid // _GOL_W
        return ((x * 5 + y * 3) % 2).astype(np.int64)

    return _cellular_state(
        sf_dir, SchellingSegregation(0.45, init_fn=init_fn), 8, "schelling8"
    )


def q_token_diffusion_k4(sf_dir: str):
    """4 steps of token forwarding from vertex 0 — drives the
    ResetStateAfterSignaling mixin (algorithms/tokens.py) through the
    oracle gate."""
    from signal_collect_ray.algorithms import TokenDiffusion

    t = _state(sf_dir, TokenDiffusion(0), False, 4, eps=0.0, tag="_tok4")
    return _round_state(t, "mass", 6)


def q_dedup_minhash_survivors(sf_dir: str):
    """End-to-end near-dup dedup retention: LSH candidates → exact
    Jaccard ≥ 0.8 verify → transitive closure (ConnectedComponents over
    the verified-pair graph) → survivors = cluster minima + untouched
    docs. Oracle: exact all-pairs Jaccard in SQL + unrolled min-label
    CC — parity additionally requires the LSH candidate pass to link
    the same clusters the exact pair set does (bands=32 × rows=2 ⇒
    recall ≈ 1 − (1 − J²)³² > 0.9999 at J = 0.8)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import dedup_minhash

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = dedup_minhash(
        ds, threshold=0.8, workdir=_work_dir(sf_dir, "dedup_minhash"),
        num_perm=64, num_bands=32,
    )
    return out.select_columns(["doc_id"])


def q_simhash_dedup_pairs(sf_dir: str):
    """SimHash near-dup pairs over the RAW corpus under the exact
    oracle gate: md5-variant signatures (bit-for-bit mirrorable in
    DuckDB — _simhash_md5_sig_sql), Manku pigeonhole block candidates
    at radius 3 (recall deterministically 1: any pair within hamming 3
    shares one of the 4 blocks), exact popcount verify. The oracle is
    literal all-pairs bit_count(xor) ≤ 3 over recomputed signatures, so
    candidate generation AND verify are pinned end to end. The blake2b
    production hasher shares every step except the shingle-hash
    primitive (covered by simhash_signatures and pytest)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import simhash_dedup_pairs

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return simhash_dedup_pairs(ds, max_hamming=3, shingle_k=3, hasher="md5")


_LSH_PLANT_OFFSET = 1_000_000_000
_LSH_PLANT_N = 5
_LSH_THRESHOLD = 0.95


def q_embedding_dedup_pairs_lsh(sf_dir: str):
    """LSH-bucketed near-dup pairs — the 100-TB scale path. To make the
    check non-vacuous (the raw table has no pairs at cosine ≥ 0.95), the
    query PLANTS exact duplicates of the 5 smallest vec_ids (new id =
    old + 1e9) — a fixture both sides can construct. Identical vectors
    hash to the same bucket in EVERY LSH table, so recall on the planted
    pairs is deterministically 1.0 and the result equals the exact
    all-pairs oracle over the augmented table (general recall < 1 by
    design; the exact variant above is the broader baseline)."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import embedding_dedup_cosine

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet")).select_columns(
        ["vec_id", "embedding"]
    )

    def bump(tbl: pa.Table) -> pa.Table:
        v = tbl.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return tbl.set_column(
            tbl.schema.get_field_index("vec_id"),
            "vec_id",
            pa.array(v + _LSH_PLANT_OFFSET, pa.int64()),
        )

    planted = ds.sort("vec_id").limit(_LSH_PLANT_N).map_batches(
        bump, batch_format="pyarrow"
    )
    pairs = embedding_dedup_cosine(ds.union(planted), threshold=_LSH_THRESHOLD)

    def round4(tbl: pa.Table) -> pa.Table:
        c = tbl.column("cosine").to_numpy(zero_copy_only=False)
        return tbl.set_column(
            tbl.schema.get_field_index("cosine"),
            "cosine",
            pa.array(np.round(c, 4), pa.float64()),
        )

    return pairs.map_batches(round4, batch_format="pyarrow")


_EMB_LSH_SQL = (
    "WITH aug AS MATERIALIZED ("
    "SELECT CAST(vec_id AS BIGINT) AS vec_id, embedding FROM embeddings "
    "UNION ALL "
    f"SELECT CAST(vec_id + {_LSH_PLANT_OFFSET} AS BIGINT), embedding FROM "
    f"(SELECT * FROM embeddings ORDER BY vec_id LIMIT {_LSH_PLANT_N})) "
    "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
    "ROUND(CAST(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    "CAST(b.embedding AS DOUBLE[])) AS DOUBLE), 4) AS cosine "
    "FROM aug a JOIN aug b ON a.vec_id < b.vec_id "
    "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    f"CAST(b.embedding AS DOUBLE[])) >= {_LSH_THRESHOLD}"
)


def q_minhash_dedup_pairs(sf_dir: str):
    """MinHash+LSH candidates + exact-Jaccard verify at τ = 0.5 over
    the raw corpus, under the FULL-equality oracle (exact all-pairs
    word-5-shingle Jaccard ≥ 0.5). Soundness: the verify step makes
    false positives impossible (candidates are filtered by EXACT
    Jaccard), and recall is total on this corpus — its near-dup pairs
    all sit at J ≥ 0.857 (no pair anywhere in [0.3, 0.857)), where the
    fixed-seed 16-band × 4-row LSH detects every pair (per-pair miss
    probability < 5e-6, and the seeded pipeline is DETERMINISTIC, so
    the containment candidates ⊇ exact-pairs is a fixed fact of the
    corpus — asserted per-run by the oracle hash itself and pinned in
    tests/test_planted_oracles.py)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import (
        jaccard_verify,
        minhash_lsh_candidates,
    )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    pairs = minhash_lsh_candidates(ds)
    verified = jaccard_verify(ds, pairs, threshold=0.5)
    return verified.map_batches(_round_jaccard, batch_format="pyarrow")


def _round_jaccard(tbl: pa.Table) -> pa.Table:
    """Pair rows with jaccard rounded to 6 places the way the DuckDB
    oracle's ROUND does (half away from zero)."""
    j = tbl.column("jaccard").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "id_a": tbl.column("id_a"),
            "id_b": tbl.column("id_b"),
            "jaccard": pa.array(_round_half_away(j, 6), pa.float64()),
        }
    )


def q_simhash_signatures(sf_dir: str):
    import ray.data as rd

    from signal_collect_ray.functions.dedup import simhash_signatures

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return simhash_signatures(ds).select_columns(["doc_id", "simhash"])


_DOC_PLANT_OFFSET = 1_000_000_000
_DOC_PLANT_N = 5
# Augmented documents relation shared by the planted-fixture dedup
# oracles: the 5 smallest doc_ids duplicated verbatim at id + 1e9.
_DOCS_PLANTED_SQL = (
    "(SELECT doc_id, text FROM documents UNION ALL "
    f"SELECT doc_id + {_DOC_PLANT_OFFSET}, text FROM "
    f"(SELECT doc_id, text FROM documents ORDER BY doc_id "
    f"LIMIT {_DOC_PLANT_N})) aug"
)


def _docs_planted(sf_dir: str):
    """documents ∪ verbatim copies of the 5 smallest doc_ids at
    id + 1e9 — the Ray side of _DOCS_PLANTED_SQL."""
    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def bump(tbl: pa.Table) -> pa.Table:
        v = tbl.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return tbl.set_column(
            tbl.schema.get_field_index("doc_id"),
            "doc_id",
            pa.array(v + _DOC_PLANT_OFFSET, pa.int64()),
        )

    planted = ds.sort("doc_id").limit(_DOC_PLANT_N).map_batches(
        bump, batch_format="pyarrow"
    )
    return ds.union(planted)


def q_minhash_dedup_pairs_planted(sf_dir: str):
    """MinHash+LSH candidate generation + exact-Jaccard verify with a
    DETERMINISTIC full-equality oracle: the corpus is augmented with
    verbatim duplicates of the 5 smallest doc_ids (J = 1 with their
    originals — identical shingle sets give identical minhash
    signatures, so every band bucket contains the pair and recall is
    exactly 1, no probabilistic argument), and the verify threshold
    0.999 sits above the corpus's maximum non-identical pair Jaccard
    (0.9889 at sf0.01 — asserted by the oracle itself: a missed or
    spurious pair fails the hash). The general-recall behavior at lower
    thresholds stays covered by dedup_minhash_survivors' 1-1e-14
    recall argument and the rows-only minhash_dedup_pairs probe."""
    from signal_collect_ray.functions.dedup import (
        jaccard_verify,
        minhash_lsh_candidates,
    )

    aug = _docs_planted(sf_dir)
    pairs = minhash_lsh_candidates(aug)
    return jaccard_verify(aug, pairs, threshold=0.999)


def _simhash_md5_sig_sql(docs_src: str = "documents") -> str:
    """Exact SQL mirror of SimHasherMd5 (word-3-shingle strings with
    multiplicity → md5 → first-8-bytes uint64 → per-bit ±1 vote →
    bits 0..62): the same sh CTE family as _ngram_pairs_sql at k = 3,
    hex16 → UBIGINT cast, vote per (doc, bit), HUGEINT bit assembly."""
    return (
        "WITH docs AS MATERIALIZED (SELECT doc_id, regexp_split_to_array("
        f"trim(lower(COALESCE(text, ''))), '\\s+') AS w FROM {docs_src}), "
        "sh AS MATERIALIZED ("
        "SELECT doc_id, array_to_string(w, ' ') AS s FROM docs WHERE len(w) < 3 "
        "UNION ALL "
        "SELECT d.doc_id, array_to_string(d.w[i.i:i.i+2], ' ') AS s "
        "FROM docs d, LATERAL (SELECT unnest(range(1, len(d.w) - 1)) AS i) i "
        "WHERE len(d.w) >= 3), "
        "hv AS MATERIALIZED (SELECT doc_id, "
        "CAST(concat('0x', substr(md5(s), 1, 16)) AS UBIGINT) AS h FROM sh), "
        "votes AS (SELECT doc_id, b.b AS b, "
        "SUM(CASE WHEN (h >> CAST(b.b AS INT)) & 1 = 1 THEN 1 ELSE -1 END) AS v "
        "FROM hv, LATERAL (SELECT unnest(range(0, 63)) AS b) b GROUP BY 1, 2) "
        "SELECT doc_id, CAST(SUM(CASE WHEN v > 0 THEN "
        "CAST(1 AS HUGEINT) << CAST(b AS INT) ELSE 0 END) AS BIGINT) AS simhash "
        "FROM votes GROUP BY doc_id"
    )


def q_simhash_md5_signatures(sf_dir: str):
    """The SimHash SIGNATURE computation itself under the exact oracle
    gate: the md5-shingle-hash variant (functions/dedup.py:SimHasherMd5)
    is bit-for-bit mirrorable in DuckDB, so all 63 signature bits of
    every document are hash-checked — the blake2b production variant
    (simhash_signatures default) shares every step except the shingle
    hash primitive."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import simhash_signatures

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return simhash_signatures(ds, hasher="md5").select_columns(
        ["doc_id", "simhash"]
    )


def q_simhash_dedup_pairs_md5(sf_dir: str):
    """SimHash near-dup pairs with a FULL-equality oracle: md5-variant
    signatures over the planted corpus, Manku pigeonhole block search
    at radius 3 (4 blocks — any pair within hamming 3 shares a block
    EXACTLY, so recall is deterministically 1 while every bucket stays
    under the all-pairs cap, which 505 total docs always do), exact
    popcount verify. The oracle recomputes the signatures in SQL
    (_simhash_md5_sig_sql) and takes literal all-pairs
    bit_count(xor) ≤ 3 — candidate generation, verify, and the planted
    hamming-0 pairs are all pinned."""
    from signal_collect_ray.functions.dedup import simhash_dedup_pairs

    return simhash_dedup_pairs(
        _docs_planted(sf_dir), max_hamming=3, shingle_k=3, hasher="md5"
    )


_SIMHASH_MD5_PAIRS_SQL = (
    f"WITH sig AS MATERIALIZED ({_simhash_md5_sig_sql(_DOCS_PLANTED_SQL)}) "
    "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
    "CAST(bit_count(xor(CAST(a.simhash AS UBIGINT), "
    "CAST(b.simhash AS UBIGINT))) AS BIGINT) AS hamming "
    "FROM sig a JOIN sig b ON a.doc_id < b.doc_id "
    "WHERE bit_count(xor(CAST(a.simhash AS UBIGINT), "
    "CAST(b.simhash AS UBIGINT))) <= 3"
)


# the same all-pairs hamming ≤ 3 oracle over the RAW corpus — the
# simhash_dedup_pairs gate (the planted variant above pins hamming-0
# recall on the augmented relation)
_SIMHASH_MD5_RAW_PAIRS_SQL = (
    f"WITH sig AS MATERIALIZED ({_simhash_md5_sig_sql()}) "
    "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
    "CAST(bit_count(xor(CAST(a.simhash AS UBIGINT), "
    "CAST(b.simhash AS UBIGINT))) AS BIGINT) AS hamming "
    "FROM sig a JOIN sig b ON a.doc_id < b.doc_id "
    "WHERE bit_count(xor(CAST(a.simhash AS UBIGINT), "
    "CAST(b.simhash AS UBIGINT))) <= 3"
)


def q_embedding_dedup_pairs(sf_dir: str):
    """EXACT all-pairs cosine ≥ 0.5 (brute-force baseline, broadcast
    matrix + chunked matmul per batch) — DuckDB-oracle-checked via
    list_cosine_similarity. The LSH scale path is the _lsh variant."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import embedding_pairs_exact

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return embedding_pairs_exact(ds, threshold=0.5, round_digits=4)


def q_embedding_dedup_survivors(sf_dir: str):
    """End-to-end embedding near-dup retention: exact pairs (cosine ≥
    0.5) → transitive closure (ConnectedComponents on the pair graph) →
    keep each cluster's min vec_id. Oracle: all-pairs cosine SQL +
    unrolled min-label CC."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import (
        drop_ids,
        duplicate_ids_from_pairs,
    )
    from signal_collect_ray.functions.similarity import embedding_pairs_exact

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    pairs = embedding_pairs_exact(ds, threshold=0.5, round_digits=None)
    dupes = duplicate_ids_from_pairs(
        pairs, _work_dir(sf_dir, "emb_dedup_cc")
    )
    out = drop_ids(ds.select_columns(["vec_id"]), dupes, "vec_id")
    return out.select_columns(["vec_id"])


def q_knn_ivf_vec0_top5(sf_dir: str):
    """IVF-bucketed ANN (coarse-quantizer cells + n_probe search) — the
    partition-pruning scale path; rows-only (k-means centroids are not
    SQL-expressible), recall pinned vs brute force in tests."""
    import ray.data as rd

    from ray.data.aggregate import Min

    from signal_collect_ray.functions.similarity import knn_ivf

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    min_id = ds.aggregate(Min("vec_id", alias_name="m"))["m"]

    def _is_min(tbl: pa.Table) -> pa.Table:
        v = tbl.column("vec_id").to_numpy(zero_copy_only=False)
        return tbl.take(pa.array(np.flatnonzero(v == min_id), pa.int64()))

    first = ds.map_batches(_is_min, batch_format="pyarrow").take(1)[0]
    q0 = np.asarray(first["embedding"], dtype=np.float64)
    out = knn_ivf(ds, q0[None, :], k=5, n_clusters=16, n_probe=8).take_all()
    return pa.table(
        {
            "id": pa.array([r["id"] for r in out], pa.int64()),
            "score": pa.array([round(r["score"], 4) for r in out], pa.float64()),
        }
    )


def q_pagerank_async(sf_dir: str):
    """Delta PageRank under the PureAsynchronous executor (chaotic
    worker-local rounds, coordinator quiescence) — rows-only: the async
    schedule is nondeterministic between runs, but the fixpoint agrees
    with the synchronous run within the signal threshold (equivalence
    pinned exactly in tests/test_async.py); ranks here are rounded to 4
    decimals where the 1e-9-threshold fixpoints coincide."""
    from signal_collect_ray.algorithms import PageRank
    from signal_collect_ray.engine_async import AsyncEngine
    from signal_collect_ray import EngineConfig

    g = _graph(sf_dir)
    eng = AsyncEngine(
        EngineConfig(num_partitions=_P, signal_threshold=1e-9), num_workers=4
    )
    info = eng.run(
        g, PageRank(), run_dir=_work_dir(sf_dir, "run_pr_async")
    )
    return _round_state(info.state_table(), "rank", 4)


def q_media_features(sf_dir: str):
    """Multimodal plumbing through the oracle gate: the media table is
    derived from documents (payload = UTF-8 text bytes as an opaque
    binary column), the fake decoder is md5-based, so every feature has
    an exact DuckDB mirror (md5 hex-nibble arithmetic). Features are
    returned as 16 flat float columns rounded to 6."""
    import ray.data as rd

    from signal_collect_ray.functions.multimodal import (
        MediaFeatureExtractor,
        extract_media_features,
        media_from_documents,
    )

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    feats = extract_media_features(
        media_from_documents(docs), concurrency=2, batch_size=64
    )
    dim = MediaFeatureExtractor.DIM

    def flatten(tbl: pa.Table) -> pa.Table:
        f = np.asarray(tbl.column("features").to_pylist(), dtype=np.float64)
        if f.size == 0:
            f = f.reshape(0, dim)
        cols = {
            "media_id": tbl.column("media_id"),
            "kind": tbl.column("kind"),
            "payload_bytes": tbl.column("payload_bytes"),
        }
        for j in range(dim):
            cols[f"f{j:02d}"] = pa.array(np.round(f[:, j], 6), pa.float64())
        return pa.table(cols)

    return feats.map_batches(flatten, batch_format="pyarrow")


def _media_sql() -> str:
    """Exact SQL mirror of q_media_features: md5 over the same UTF-8
    payload bytes, each feature byte reconstructed from the hex digest
    via nibble positions, /255 and ROUND(,6) matching the Ray side."""
    hexd = "'0123456789abcdef'"
    feats = ", ".join(
        f"ROUND(((strpos({hexd}, substr(h, {2 * j + 1}, 1)) - 1) * 16 "
        f"+ strpos({hexd}, substr(h, {2 * j + 2}, 1)) - 1) / 255.0, 6) "
        f"AS f{j:02d}"
        for j in range(16)
    )
    return (
        "WITH m AS (SELECT doc_id AS media_id, "
        "CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' "
        "ELSE 'video' END AS kind, "
        "octet_length(encode(COALESCE(text, ''))) AS payload_bytes, "
        "md5(COALESCE(text, '')) AS h FROM documents) "
        "SELECT media_id, kind, CAST(payload_bytes AS BIGINT) AS payload_bytes, "
        f"{feats} FROM m"
    )


def q_media_real_decode(sf_dir: str):
    """The REAL multimodal decode path under the oracle gate: documents
    render to genuine on-disk formats (doc_id mod 3: an 8x8 binary PGM
    whose 2x2-replicated pixels are the md5 digest of the text; a
    64-sample PCM16 WAV encoding the digest as 16 constant 4-sample
    segments; a 4-frame 4x4 Y4M Cmono video whose frame f carries
    digest bytes 4f..4f+3 as 2x2 blocks), then
    MediaFeatureExtractor(decoder="real") sniffs the magic bytes,
    decodes with the zero-dependency codecs (functions/codecs.py),
    grayscales + 4x4-thumbnails the image / envelope-folds the audio /
    frame-samples + 2x2-thumbnails the video. Features land back on
    md5-nibble arithmetic, so the whole decode pipeline has an exact
    DuckDB mirror: f_j = byte_j/255 (image, video) or |byte_j-128|/128
    (audio). All intermediate floats are exact (dyadic) or the /255
    family the committed sweep already pins; rounding is half-away on
    both sides."""
    import ray.data as rd

    from signal_collect_ray.functions.multimodal import (
        MediaFeatureExtractor,
        extract_media_features,
        real_media_from_documents,
    )

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    feats = extract_media_features(
        real_media_from_documents(docs), concurrency=2, batch_size=64,
        decoder="real",
    )
    dim = MediaFeatureExtractor.DIM

    def flatten(tbl: pa.Table) -> pa.Table:
        f = np.asarray(tbl.column("features").to_pylist(), dtype=np.float64)
        if f.size == 0:
            f = f.reshape(0, dim)
        cols = {
            "media_id": tbl.column("media_id"),
            "kind": tbl.column("kind"),
            "payload_bytes": tbl.column("payload_bytes"),
        }
        for j in range(dim):
            cols[f"f{j:02d}"] = pa.array(
                _round_half_away(f[:, j], 6), pa.float64()
            )
        return pa.table(cols)

    return feats.map_batches(flatten, batch_format="pyarrow")


def _media_real_sql() -> str:
    """Exact SQL mirror of q_media_real_decode (see its docstring)."""
    hexd = "'0123456789abcdef'"
    feats = ", ".join(
        "ROUND(CASE WHEN media_id % 3 = 1 THEN ABS(b{j} - 128) / 128.0 "
        "ELSE b{j} / 255.0 END, 6) AS f{j:02d}".format(j=j)
        for j in range(16)
    )
    bytes_ = ", ".join(
        f"(strpos({hexd}, substr(h, {2 * j + 1}, 1)) - 1) * 16 "
        f"+ strpos({hexd}, substr(h, {2 * j + 2}, 1)) - 1 AS b{j}"
        for j in range(16)
    )
    return (
        "WITH m AS (SELECT doc_id AS media_id, "
        "md5(COALESCE(text, '')) AS h FROM documents), "
        f"d AS (SELECT media_id, {bytes_} FROM m) "
        "SELECT media_id, "
        "CASE media_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' "
        "ELSE 'video' END AS kind, "
        # PGM: 'P5\\n8 8\\n255\\n' (11 B) + 64 px; WAV: 44 B header
        # + 128 B; Y4M: 36 B header + 4 x ('FRAME\\n' + 16 px)
        "CASE media_id % 3 WHEN 0 THEN 75 WHEN 1 THEN 172 "
        "ELSE 124 END AS payload_bytes, "
        f"{feats} FROM d"
    )


# ---------------------------------------------------------------------------
# SQL generators for the document / embedding oracles
# ---------------------------------------------------------------------------

def _lang_pred_sql(
    src: str = "documents", text_col: str = "text", key: str = "doc_id"
) -> str:
    """Exact SQL mirror of functions.text.LanguageId: per-language marker
    substring counts per 1000 chars (non-overlapping counts via the
    replace-length trick, identical to ``str.count``), argmax with
    first-in-language-order tie-break, 'unknown' when every score is 0.
    Float parity is exact: each count and length is an exact-integer
    double, and the op order ``(count / n) * 1000.0`` matches numpy's."""
    from signal_collect_ray.functions.text import _LANG_MARKERS

    langs = list(_LANG_MARKERS)
    score_cols = []
    for lang in langs:
        terms = " + ".join(
            f"(length(t) - length(replace(t, '{m}', ''))) / {len(m)}"
            for m in _LANG_MARKERS[lang]
        )
        score_cols.append(f"(({terms}) / n) * 1000.0 AS s_{lang}")
    all_zero = " AND ".join(f"s_{lang} <= 0" for lang in langs)
    cases = [f"WHEN {all_zero} THEN 'unknown'"]
    for i, lang in enumerate(langs):
        if i == len(langs) - 1:
            cases.append(f"ELSE '{lang}'")
        else:
            geq = " AND ".join(
                f"s_{lang} >= s_{other}" for other in langs[i + 1 :]
            )
            cases.append(f"WHEN {geq} THEN '{lang}'")
    return (
        f"WITH s AS (SELECT {key}, lower(COALESCE({text_col}, '')) AS t, "
        f"GREATEST(length(COALESCE({text_col}, '')), 1) AS n FROM {src}), "
        f"sc AS (SELECT {key}, " + ", ".join(score_cols) + " FROM s) "
        f"SELECT {key}, CASE " + " ".join(cases) + " END AS lang_pred "
        "FROM sc"
    )


def _lang_sql() -> str:
    return (
        f"WITH pred AS ({_lang_pred_sql()}) "
        "SELECT lang_pred, COUNT(*) AS n FROM pred GROUP BY lang_pred"
    )


# Exact SQL mirror of functions.text.QualityScore. Word regex [a-z]+ over
# lowered text, punct regex [^\w\s] over the raw text (ASCII corpus: RE2
# and Python re agree), ratios as int/int double division, and the
# composite in the same left-associative op order as the numpy
# expression — bit-identical doubles before the shared ROUND(,6).
_QUALITY_SQL = (
    "WITH f AS (SELECT doc_id, length(COALESCE(text, '')) AS n_chars, "
    "len(regexp_extract_all(COALESCE(text, ''), '[^\\w\\s]')) AS n_punct, "
    "regexp_extract_all(lower(COALESCE(text, '')), '[a-z]+') AS words "
    "FROM documents), "
    "g AS (SELECT doc_id, n_chars, "
    "n_punct / GREATEST(n_chars, 1) AS punct_ratio, "
    "len(list_filter(words, x -> list_contains("
    "['the','and','of','a','to','in','is','it','that','for','on','as','with',"
    "'was','at','by','an','be','this','are','or'], x))) "
    "/ GREATEST(len(words), 1) AS stop_ratio, "
    "COALESCE(list_sum(list_transform(words, x -> length(x))), 0) "
    "/ GREATEST(len(words), 1) AS mean_wlen FROM f) "
    "SELECT doc_id, ROUND("
    "LEAST(GREATEST(n_chars / 500.0, 0), 1) * 0.3 "
    "+ LEAST(GREATEST(1.0 - punct_ratio * 4.0, 0), 1) * 0.2 "
    "+ LEAST(GREATEST(stop_ratio * 3.0, 0), 1) * 0.3 "
    "+ LEAST(GREATEST(1.0 - abs(mean_wlen - 5.0) / 5.0, 0), 1) * 0.2, 6) "
    "AS quality FROM g"
)

_DEDUP_BEST_SQL = (
    f"WITH q AS ({_QUALITY_SQL}), "
    "k AS (SELECT doc_id, "
    "trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS key "
    "FROM documents), "
    "r AS (SELECT k.doc_id, q.quality, ROW_NUMBER() OVER ("
    "PARTITION BY k.key ORDER BY q.quality DESC, k.doc_id) AS rn "
    "FROM k JOIN q USING (doc_id)) "
    "SELECT doc_id, quality FROM r WHERE rn = 1"
)


# same features, n_chars kept in the output — the skyline query's base
_QUALITY_SQL_INNER = _QUALITY_SQL.replace(
    "SELECT doc_id, ROUND(", "SELECT doc_id, n_chars, ROUND("
)

_DOC_PARETO_SQL = (
    f"WITH q AS ({_QUALITY_SQL_INNER}) "
    "SELECT doc_id, n_chars, quality FROM q t "
    "WHERE NOT EXISTS (SELECT 1 FROM q o "
    "WHERE o.n_chars >= t.n_chars AND o.quality >= t.quality "
    "AND (o.n_chars > t.n_chars OR o.quality > t.quality))"
)

_LANG_PARETO_SQL = (
    "WITH q AS (SELECT d.lang, i.* FROM documents d "
    f"JOIN ({_QUALITY_SQL_INNER}) i USING (doc_id)) "
    "SELECT doc_id, lang, n_chars, quality FROM q t "
    "WHERE NOT EXISTS (SELECT 1 FROM q o WHERE o.lang = t.lang "
    "AND o.n_chars >= t.n_chars AND o.quality >= t.quality "
    "AND (o.n_chars > t.n_chars OR o.quality > t.quality))"
)

# Exact SQL mirror of functions.text.Fingerprint: md5 of the
# whitespace-normalized text (Python " ".join(t.split())).
_FINGERPRINT_SQL = (
    "SELECT doc_id, md5(trim(regexp_replace(COALESCE(text, ''), "
    "'\\s+', ' ', 'g'))) AS fingerprint FROM documents"
)

# Exact all-pairs cosine ≥ 0.5 over the embeddings table — oracle for
# functions.similarity.embedding_pairs_exact. Lists cast to DOUBLE[] so
# both sides accumulate in float64; ROUND(,4) absorbs summation-order
# ulps between DuckDB's dot/norm form and numpy's normalize-then-matmul.
_EMB_PAIRS_SQL = (
    "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
    "ROUND(CAST(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    "CAST(b.embedding AS DOUBLE[])) AS DOUBLE), 4) AS cosine "
    "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
    "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    "CAST(b.embedding AS DOUBLE[])) >= 0.5"
)


def _token_sql(k: int, source: int = 0) -> str:
    """Oracle for TokenDiffusion (ResetStateAfterSignaling semantics):
    per step, every vertex with out-edges forwards its whole mass split
    evenly over them and resets to 0; sinks accumulate. Unrolled k-step
    CTE over the derived lineitem graph."""
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd FROM e GROUP BY src)",
        f"t0 AS (SELECT vid, CASE WHEN vid = {source} THEN CAST(1.0 AS DOUBLE) "
        "ELSE CAST(0.0 AS DOUBLE) END AS s FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"t{i} AS MATERIALIZED (SELECT v.vid, "
            "CASE WHEN myod.outd IS NULL THEN own.s ELSE 0.0 END "
            f"+ COALESCE(SUM(nb.s / srcod.outd), 0.0) AS s "
            f"FROM v JOIN t{i-1} own ON own.vid = v.vid "
            "LEFT JOIN od myod ON myod.src = v.vid "
            "LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN t{i-1} nb ON nb.vid = e.src "
            "LEFT JOIN od srcod ON srcod.src = e.src "
            "GROUP BY v.vid, own.s, myod.outd)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, ROUND(s, 6) AS mass FROM t{k}"
    )


def _cellular_sql(kind: str, k: int, w: int = _GOL_W, threshold: float = 0.45) -> str:
    """Unrolled SQL oracle for the cellular queries: the same 8-neighbor
    grid, vid-derived seed and per-step rule as the GameOfLife /
    SchellingSegregation algorithms, k synchronous steps. Self-contained
    (grid from range()) — no input table needed. Extra rounds past a
    fixed point are idempotent, mirroring early engine termination."""
    init = {
        "gol": "(x * 7 + y * 13) % 3 = 0",
        "schelling": "(x * 5 + y * 3) % 2 = 1",
    }[kind]
    if kind == "gol":
        rule = (
            "CASE WHEN SUM(n.s) = 3 THEN 1 WHEN SUM(n.s) = 2 THEN own.s "
            "ELSE 0 END"
        )
    else:
        rule = (
            "CASE WHEN (CASE WHEN own.s = 1 THEN CAST(SUM(n.s) AS BIGINT) "
            "ELSE COUNT(*) - CAST(SUM(n.s) AS BIGINT) END) / COUNT(*) "
            f">= {threshold} THEN own.s ELSE (own.s + 1) % 2 END"
        )
    ctes = [
        f"cells AS MATERIALIZED (SELECT x + y * {w} AS vid, x, y "
        f"FROM range({w}) tx(x), range({w}) ty(y))",
        "e AS MATERIALIZED (SELECT a.vid AS src, b.vid AS dst "
        "FROM cells a JOIN cells b ON abs(a.x - b.x) <= 1 "
        "AND abs(a.y - b.y) <= 1 AND NOT (a.x = b.x AND a.y = b.y))",
        f"s0 AS MATERIALIZED (SELECT vid, CASE WHEN {init} THEN 1 ELSE 0 END "
        "AS s FROM cells)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"s{i} AS MATERIALIZED (SELECT c.vid, {rule} AS s "
            f"FROM cells c JOIN s{i-1} own ON own.vid = c.vid "
            f"JOIN e ON e.dst = c.vid JOIN s{i-1} n ON n.vid = e.src "
            "GROUP BY c.vid, own.s)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, CAST(s AS BIGINT) AS alive FROM s{k}"
    )


def _closure_survivors_sql(
    dup_pairs_sql: str, vtable: str, id_col: str, k: int = 16,
    extra_ctes: str = "",
) -> str:
    """Generic transitive-closure retention oracle: duplicate pairs
    (columns ida, idb) → k rounds of unrolled min-label propagation →
    survivors = vertices whose converged label is their own id. Every
    CTE MATERIALIZED (DuckDB expands self-referencing round CTEs
    exponentially otherwise — fd exhaustion)."""
    ctes = [
        f"dup AS MATERIALIZED ({dup_pairs_sql})",
        "e AS MATERIALIZED (SELECT ida AS src, idb AS dst FROM dup "
        "UNION SELECT idb, ida FROM dup)",
        f"v AS MATERIALIZED (SELECT {id_col} AS vid FROM {vtable})",
        "l0 AS MATERIALIZED (SELECT vid, vid AS lab FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"l{i} AS MATERIALIZED (SELECT v.vid, "
            f"LEAST(own.lab, COALESCE(MIN(nb.lab), own.lab)) AS lab "
            f"FROM v JOIN l{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN l{i-1} nb ON nb.vid = e.src GROUP BY v.vid, own.lab)"
        )
    return (
        "WITH " + (extra_ctes + ", " if extra_ctes else "") + ", ".join(ctes)
        + f" SELECT vid AS {id_col} FROM l{k} WHERE lab = vid"
    )


_EMB_DUP_PAIRS_SQL = (
    "SELECT a.vec_id AS ida, b.vec_id AS idb "
    "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
    "WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
    "CAST(b.embedding AS DOUBLE[])) >= 0.5"
)


def _ngram_pairs_sql(threshold: float = 0.8, docs_src: str = "documents") -> str:
    """Exact word-5-shingle Jaccard pairs (string shingles — the Ray
    side hashes shingles, which preserves set Jaccard up to 64-bit hash
    collisions). Same shingle CTEs as ``_survivors_sql``; the filter is
    on the unrounded Jaccard, mirroring ``ngram_jaccard_pairs``.
    ``docs_src`` lets planted-fixture oracles swap in an augmented
    (doc_id, text) relation."""
    return (
        "WITH docs AS MATERIALIZED (SELECT doc_id, regexp_split_to_array("
        f"trim(lower(COALESCE(text, ''))), '\\s+') AS w FROM {docs_src}), "
        "sh AS MATERIALIZED ("
        "SELECT doc_id, array_to_string(w, ' ') AS s FROM docs WHERE len(w) < 5 "
        "UNION ALL "
        "SELECT d.doc_id, array_to_string(d.w[i.i:i.i+4], ' ') AS s "
        "FROM docs d, LATERAL (SELECT unnest(range(1, len(d.w) - 3)) AS i) i "
        "WHERE len(d.w) >= 5), "
        "shs AS MATERIALIZED (SELECT doc_id, list(DISTINCT s) AS S "
        "FROM sh GROUP BY doc_id), "
        "p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
        "len(list_intersect(a.S, b.S)) / GREATEST(len(a.S) + len(b.S) "
        "- len(list_intersect(a.S, b.S)), 1) AS j "
        "FROM shs a JOIN shs b ON a.doc_id < b.doc_id) "
        "SELECT id_a, id_b, ROUND(j, 6) AS jaccard FROM p "
        f"WHERE j >= {threshold}"
    )


def _survivors_sql(k: int = 16, threshold: float = 0.8) -> str:
    """Oracle for dedup_minhash end-to-end retention: EXACT all-pairs
    word-5-shingle Jaccard ≥ threshold (the LSH pass at 32 bands × 2
    rows has recall > 1 − 1e-14 at J = 0.8, so candidate sets agree),
    then k rounds of unrolled min-label propagation over the duplicate
    graph; survivors are vertices whose converged label is their own id
    (cluster minima + untouched docs). Every CTE is MATERIALIZED —
    DuckDB otherwise expands the self-referencing round CTEs
    exponentially (fd exhaustion). k = 16 bounds the duplicate-chain
    diameter; near-dup clusters are copy groups, far smaller than that."""
    ctes = [
        "docs AS MATERIALIZED (SELECT doc_id, regexp_split_to_array("
        "trim(lower(COALESCE(text, ''))), '\\s+') AS w FROM documents)",
        (
            "sh AS MATERIALIZED ("
            "SELECT doc_id, array_to_string(w, ' ') AS s FROM docs WHERE len(w) < 5 "
            "UNION ALL "
            "SELECT d.doc_id, array_to_string(d.w[i.i:i.i+4], ' ') AS s "
            "FROM docs d, LATERAL (SELECT unnest(range(1, len(d.w) - 3)) AS i) i "
            "WHERE len(d.w) >= 5)"
        ),
        "shs AS MATERIALIZED (SELECT doc_id, list(DISTINCT s) AS S "
        "FROM sh GROUP BY doc_id)",
        (
            "p AS MATERIALIZED (SELECT a.doc_id AS ida, b.doc_id AS idb, "
            "len(list_intersect(a.S, b.S)) / GREATEST(len(a.S) + len(b.S) "
            "- len(list_intersect(a.S, b.S)), 1) AS j "
            "FROM shs a JOIN shs b ON a.doc_id < b.doc_id)"
        ),
        f"dup AS MATERIALIZED (SELECT ida, idb FROM p WHERE j >= {threshold})",
        "e AS MATERIALIZED (SELECT ida AS src, idb AS dst FROM dup "
        "UNION SELECT idb, ida FROM dup)",
        "v AS MATERIALIZED (SELECT doc_id AS vid FROM documents)",
        "l0 AS MATERIALIZED (SELECT vid, vid AS lab FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"l{i} AS MATERIALIZED (SELECT v.vid, "
            f"LEAST(own.lab, COALESCE(MIN(nb.lab), own.lab)) AS lab "
            f"FROM v JOIN l{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN l{i-1} nb ON nb.vid = e.src GROUP BY v.vid, own.lab)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid AS doc_id FROM l{k} WHERE lab = vid"
    )


# ---------------------------------------------------------------------------
# path query (examples/PathQuery.scala demo semantics)
# ---------------------------------------------------------------------------

# pinned query: from vertex 0, star(1) wildcards, through fixed vertex 7,
# one wildcard, ending at fixed vertex 11 — compiles to two chains
# (lengths 4 and 5), so the result set is bounded by
# |N(0)∩pred(7)| x |N(7)∩pred(11)| -style products, never all paths
_PQ_NODES = [("star", 1), ("fixed", 7), ("wild",), ("fixed", 11)]


_WALK_LEN, _WALK_MOD, _WALK_SEED = 6, 16, 42


def q_random_walks(sf_dir: str):
    """Deterministic random-walk traces (DeepWalk/node2vec sampling
    primitive) from every source vid divisible by 16
    (algorithms.walks.random_walks)."""
    from signal_collect_ray.algorithms.walks import random_walks

    return random_walks(
        _graph(sf_dir), walk_len=_WALK_LEN, seed=_WALK_SEED,
        start_mod=_WALK_MOD,
    )


def _walks_sql() -> str:
    head = (
        f"WITH e AS MATERIALIZED ({_E_SQL}), "
        "adj AS (SELECT src, dst, "
        "CAST(row_number() OVER (PARTITION BY src ORDER BY dst) - 1 "
        "AS UBIGINT) AS rn, "
        "CAST(COUNT(*) OVER (PARTITION BY src) AS UBIGINT) AS deg "
        "FROM e), "
        "s0 AS (SELECT DISTINCT src AS walk_id, src AS cur FROM e "
        f"WHERE src % {_WALK_MOD} = 0)"
    )
    steps = []
    for t in range(1, _WALK_LEN + 1):
        steps.append(
            f", s{t} AS (SELECT s{t - 1}.walk_id, a.dst AS cur "
            f"FROM s{t - 1} JOIN adj a ON a.src = s{t - 1}.cur "
            "AND a.rn = CAST(('0x' || substr(md5("
            f"'{_WALK_SEED}:' || CAST(s{t - 1}.walk_id AS VARCHAR) "
            f"|| ':{t}'), 1, 8)) AS UBIGINT) % a.deg)"
        )
    sels = [
        f"SELECT walk_id, CAST({t} AS BIGINT) AS step, cur AS vid FROM s{t}"
        for t in range(_WALK_LEN + 1)
    ]
    return head + "".join(steps) + " " + " UNION ALL ".join(sels)


def q_path_query(sf_dir: str):
    """Bounded path-pattern match over the derived graph — the
    reference's PathQuery example (``PathQuery.scala:28-160``) as an
    iterative co-partitioned frontier expansion."""
    from signal_collect_ray.algorithms.pathquery import path_query

    return path_query(_graph(sf_dir), 0, _PQ_NODES)


def _pq_sql() -> str:
    # chain 1: wild, fixed 7, wild, fixed 11 (len 4)
    # chain 2: wild, wild, fixed 7, wild, fixed 11 (len 5)
    return (
        f"WITH e AS MATERIALIZED ({_E_SQL}) "
        "SELECT CAST(e1.dst AS VARCHAR) || ',7,' || CAST(e3.dst AS VARCHAR) "
        "|| ',11' AS path, CAST(4 AS BIGINT) AS len "
        "FROM e e1 "
        "JOIN e e2 ON e2.src = e1.dst AND e2.dst = 7 "
        "JOIN e e3 ON e3.src = 7 "
        "JOIN e e4 ON e4.src = e3.dst AND e4.dst = 11 "
        "WHERE e1.src = 0 "
        "UNION ALL "
        "SELECT CAST(e1.dst AS VARCHAR) || ',' || CAST(e2.dst AS VARCHAR) "
        "|| ',7,' || CAST(e3.dst AS VARCHAR) || ',11', CAST(5 AS BIGINT) "
        "FROM e e1 "
        "JOIN e e2 ON e2.src = e1.dst "
        "JOIN e ex ON ex.src = e2.dst AND ex.dst = 7 "
        "JOIN e e3 ON e3.src = 7 "
        "JOIN e e4 ON e4.src = e3.dst AND e4.dst = 11 "
        "WHERE e1.src = 0"
    )


# ---------------------------------------------------------------------------
# Host-graph contraction (Common-Crawl host-level webgraph product):
# coarsen the page graph by a vid→host mapping, sum parallel-edge
# weights in the build shuffle (Graph.contracted, dedup="sum"), then
# weighted PageRank over the contracted graph.
# ---------------------------------------------------------------------------



def q_host_pagerank_k4(sf_dir: str):
    from signal_collect_ray.algorithms import PageRank

    key = (sf_dir, "host")
    gc = _GRAPH_CACHE.get(key)
    if gc is None:
        gc = _graph(sf_dir).contracted(
            lambda v: v % _HOST_MOD, _work_dir(sf_dir, "graph_host"),
            num_partitions=_P,
        )
        _GRAPH_CACHE[key] = gc
    eng = _engine(4, eps=0.0)
    info = eng.run(
        gc, PageRank(), run_dir=_work_dir(sf_dir, "run_pr_host"),
        resume=False, checkpoint_interval=50,
    )
    return _round_state(info.state_table(), "rank", 6)


def _host_pr_sql(k: int) -> str:
    ctes = [
        f"e0 AS MATERIALIZED ({_E_SQL})",
        f"e AS MATERIALIZED (SELECT src % {_HOST_MOD} AS src, "
        f"dst % {_HOST_MOD} AS dst, CAST(COUNT(*) AS DOUBLE) AS weight "
        f"FROM e0 WHERE (src % {_HOST_MOD}) <> (dst % {_HOST_MOD}) "
        "GROUP BY 1, 2)",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "sw AS (SELECT src, SUM(weight) AS sw FROM e GROUP BY src)",
        "r0 AS (SELECT vid, CAST(0.15 AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, 0.15 + 0.85 * "
            f"COALESCE(SUM(r{i-1}.r * e.weight / sw.sw), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src "
            f"LEFT JOIN sw ON sw.src = e.src GROUP BY v.vid)"
        )
    return "WITH " + ", ".join(ctes) + f" SELECT vid, ROUND(r, 6) AS rank FROM r{k}"


# ---------------------------------------------------------------------------
# Hamiltonian / simple-path enumeration (examples/Hamiltonian.scala:69-128)
# ---------------------------------------------------------------------------

# Path enumeration is exponential (the reference's own caveat), so the
# driver query runs on the derived graph RESTRICTED to vids < _HAM_V,
# symmetrized (the reference requires a bidirectional graph) with a
# deterministic symmetric integer weight both sides can compute.
_HAM_V = 8


def _ham_graph(sf_dir: str):
    from signal_collect_ray import Graph

    key = (sf_dir, "ham")
    g = _GRAPH_CACHE.get(key)
    if g is not None:
        return g
    import ray.data as rd

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey"],
    )

    def restrict(tbl: pa.Table) -> pa.Table:
        o = tbl.column("l_orderkey").to_numpy(zero_copy_only=False) % V_GRAPH
        p = tbl.column("l_partkey").to_numpy(zero_copy_only=False) % V_GRAPH
        keep = (o != p) & (o < _HAM_V) & (p < _HAM_V)
        o, p = o[keep], p[keep]
        # symmetrize + dedup in-batch (the restricted set is tiny)
        ss = np.concatenate([o, p])
        dd = np.concatenate([p, o])
        pairs = np.unique(np.stack([ss, dd], axis=1), axis=0)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        w = ((lo * 7 + hi * 13) % 5 + 1).astype(np.float64)
        return pa.table(
            {
                "gpart": pa.array(
                    part_of(pairs[:, 0], 4).astype(np.int64)
                ),
                "src": pa.array(pairs[:, 0], pa.int64()),
                "dst": pa.array(pairs[:, 1], pa.int64()),
                "weight": pa.array(w, pa.float64()),
            }
        )

    def dedup(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        w = tbl.column("weight").to_numpy(zero_copy_only=False)
        pairs, idx = np.unique(
            np.stack([s, d], axis=1), axis=0, return_index=True
        )
        return pa.table(
            {
                "src": pa.array(pairs[:, 0], pa.int64()),
                "dst": pa.array(pairs[:, 1], pa.int64()),
                "weight": pa.array(w[idx], pa.float64()),
            }
        )

    edges = (
        ds.map_batches(restrict, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(dedup, batch_format="pyarrow")
    )
    g = Graph.build(edges, _work_dir(sf_dir, "graph_ham"), num_partitions=4)
    _GRAPH_CACHE[key] = g
    return g


def q_hamiltonian_best(sf_dir: str):
    from signal_collect_ray.algorithms import best_paths, simple_paths

    return best_paths(simple_paths(_ham_graph(sf_dir)))


def _ham_sql() -> str:
    return (
        "WITH RECURSIVE "
        f"e0 AS MATERIALIZED (SELECT DISTINCT l_orderkey % {V_GRAPH} AS src, "
        f"l_partkey % {V_GRAPH} AS dst FROM lineitem "
        f"WHERE (l_orderkey % {V_GRAPH}) <> (l_partkey % {V_GRAPH}) "
        f"AND (l_orderkey % {V_GRAPH}) < {_HAM_V} "
        f"AND (l_partkey % {V_GRAPH}) < {_HAM_V}), "
        "e1 AS (SELECT src, dst FROM e0 UNION SELECT dst, src FROM e0), "
        "e AS (SELECT src, dst, CAST((LEAST(src, dst) * 7 + "
        "GREATEST(src, dst) * 13) % 5 + 1 AS DOUBLE) AS w FROM e1), "
        "v AS (SELECT DISTINCT src AS vid FROM e1), "
        "p AS ("
        "SELECT vid AS cur, CAST(vid AS VARCHAR) AS path, [vid] AS visited, "
        "CAST(0 AS DOUBLE) AS w, CAST(1 AS BIGINT) AS len FROM v "
        "UNION ALL "
        "SELECT e.dst, p.path || ',' || CAST(e.dst AS VARCHAR), "
        "list_append(p.visited, e.dst), p.w + e.w, p.len + 1 "
        "FROM p JOIN e ON e.src = p.cur "
        "WHERE NOT list_contains(p.visited, e.dst)) "
        "SELECT vid, best_len, best_w, best_path FROM ("
        "SELECT cur AS vid, len AS best_len, w AS best_w, path AS best_path, "
        "ROW_NUMBER() OVER (PARTITION BY cur "
        "ORDER BY len DESC, w ASC, path ASC) AS rn FROM p) t "
        "WHERE rn = 1"
    )


def q_inter_event_gaps(sf_dir: str):
    """Per-event LAG gap: microseconds since the same user's previous
    event (functions.analytics.inter_event_gaps — one user-hash
    exchange, one lexsort+diff kernel per partition)."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import inter_event_gaps

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )
    return inter_event_gaps(ev)


_INTER_EVENT_GAPS_SQL = (
    "SELECT user_id, epoch_us(ts) AS ts_us, "
    "epoch_us(ts) - LAG(epoch_us(ts)) OVER "
    "(PARTITION BY user_id ORDER BY ts) AS gap_us FROM events"
)


def q_cohort_retention(sf_dir: str):
    """Weekly cohort retention matrix (functions.analytics.
    cohort_retention — per-block distinct partials, one user exchange,
    tiny (cohort, k) sum)."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import cohort_retention

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )
    return cohort_retention(ev)


_COHORT_RETENTION_SQL = (
    "WITH uw AS (SELECT DISTINCT user_id, "
    "epoch_us(date_trunc('week', ts)) AS w FROM events), "
    "fw AS (SELECT user_id, MIN(w) AS cw FROM uw GROUP BY user_id) "
    "SELECT fw.cw AS cohort_us, (uw.w - fw.cw) // 604800000000 AS k, "
    "COUNT(*) AS n_users FROM uw JOIN fw USING (user_id) GROUP BY 1, 2"
)


def q_event_pair_cooccurrence(sf_dir: str):
    """Market-basket co-occurrence over event types (functions.
    analytics.cooccurring_event_pairs — distinct partials, one user
    exchange, per-partition pair emission)."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import (
        cooccurring_event_pairs,
    )

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type"],
    )
    return cooccurring_event_pairs(ev)


_EVENT_PAIR_COOCCURRENCE_SQL = (
    "WITH ut AS (SELECT DISTINCT user_id, event_type FROM events) "
    "SELECT a.event_type AS type_a, b.event_type AS type_b, "
    "COUNT(*) AS n_users FROM ut a JOIN ut b ON a.user_id = b.user_id "
    "AND a.event_type < b.event_type GROUP BY 1, 2"
)


def q_hll_registers(sf_dir: str):
    """Bit-exact oracle for the HyperLogLog sketch: the nonzero
    register vector (event_type, idx, rho) that approx_distinct_users
    estimates from — mix64 reproduced in SQL via 32-bit-limb modular
    multiplication and rho via exact bin() bit-length (no
    float log2 anywhere). Proves the sketch, not just its estimate:
    the estimator is then pure arithmetic over these registers."""
    import ray.data as rd
    from ray.data.aggregate import Max

    from signal_collect_ray.functions.sketches import _hash_col, _registers

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "user_id"],
    )
    P_HLL = 12

    def partial(tbl: pa.Table) -> pa.Table:
        ets = np.asarray(tbl.column("event_type").to_pylist(), dtype=object)
        out_e, out_i, out_r = [], [], []
        for et in np.unique(ets):
            sel = ets == et
            regs = _registers(
                _hash_col(tbl.column("user_id").filter(pa.array(sel))),
                P_HLL,
            )
            nz = np.flatnonzero(regs)
            out_e += [et] * len(nz)
            out_i.append(nz)
            out_r.append(regs[nz])
        return pa.table(
            {
                "event_type": pa.array(out_e, pa.string()),
                "idx": pa.array(
                    np.concatenate(out_i)
                    if out_i
                    else np.empty(0, np.int64),
                    pa.int64(),
                ),
                "rho": pa.array(
                    np.concatenate(out_r).astype(np.int64)
                    if out_r
                    else np.empty(0, np.int64),
                    pa.int64(),
                ),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "idx"])
        .aggregate(Max("rho", alias_name="rho"))
    )


def _mix64_mul_sql(col: str, c: int) -> str:
    """(col * c) mod 2^64 in DuckDB: 32-bit-limb split so no HUGEINT
    intermediate exceeds 2^96."""
    return (
        f"CAST(((CAST({col} & 4294967295 AS HUGEINT) * {c}) "
        "% 18446744073709551616 "
        f"+ ((CAST({col} >> 32 AS HUGEINT) * {c}) % 4294967296) "
        "* 4294967296) % 18446744073709551616 AS UBIGINT)"
    )


_HLL_REG_SQL = f"""
WITH u AS (SELECT DISTINCT event_type, CAST(user_id AS UBIGINT) AS x
           FROM events),
h1 AS (SELECT event_type, xor(x, x >> 33) AS x FROM u),
h2 AS (SELECT event_type, {_mix64_mul_sql('x', 0xFF51AFD7ED558CCD)} AS x
       FROM h1),
h3 AS (SELECT event_type, xor(x, x >> 33) AS x FROM h2),
h4 AS (SELECT event_type, {_mix64_mul_sql('x', 0xC4CEB9FE1A85EC53)} AS x
       FROM h3),
h AS (SELECT event_type, xor(x, x >> 33) AS x FROM h4),
r AS (SELECT event_type, CAST(x >> 52 AS BIGINT) AS idx,
      CASE WHEN (x & 4503599627370495) = 0 THEN 53
           ELSE 53 - length(bin(x & 4503599627370495)) END AS rho
      FROM h)
SELECT event_type, idx, CAST(MAX(rho) AS BIGINT) AS rho
FROM r GROUP BY 1, 2
"""


_P_HLL = 12


def _hll_regs_by_type(sf_dir: str) -> dict:
    """Per-event-type max-merged HLL registers (m = 2^12): per-block
    register partials over the event stream, fixed-size mergeable fold
    on the driver (5 types x 4 KiB — O(types), never O(rows))."""
    import ray.data as rd

    from signal_collect_ray.functions.sketches import _hash_col, _registers

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "user_id"],
    )
    m = 1 << _P_HLL

    def partial(tbl: pa.Table) -> pa.Table:
        ets = np.asarray(tbl.column("event_type").to_pylist(), dtype=object)
        out_e, out_r = [], []
        for et in np.unique(ets):
            sel = ets == et
            regs = _registers(
                _hash_col(tbl.column("user_id").filter(pa.array(sel))),
                _P_HLL,
            )
            out_e.append(et)
            out_r.append(regs)
        return pa.table(
            {
                "event_type": pa.array(out_e, pa.string()),
                "regs": pa.array(
                    [r.tolist() for r in out_r], pa.list_(pa.uint8())
                ),
            }
        )

    merged: dict = {}
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for et, r in zip(
            b.column("event_type").to_pylist(), b.column("regs").to_pylist()
        ):
            cur = merged.setdefault(et, np.zeros(m, dtype=np.uint8))
            np.maximum(cur, np.asarray(r, dtype=np.uint8), out=cur)
    return merged


def _hll_estimate(regs: np.ndarray) -> float:
    """Flajolet estimate with linear-counting fallback — exact-integer
    register sum so the only float ops are alpha/division/ln (identical
    IEEE doubles from identical literals in the SQL mirror)."""
    m = 1 << _P_HLL
    alpha = 0.7213 / (1.0 + 1.079 / m)
    s_int = sum(1 << (53 - int(v)) for v in regs)  # exact
    e = alpha * m * m * float(2**53) / float(s_int)
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)
    return float(e)


def q_hll_estimates(sf_dir: str):
    """The HyperLogLog ESTIMATE per event type, oracle-backed: the
    register sum Σ2^-M is lifted to the exact integer Σ2^(53−M)
    (arbitrary precision on the Ray side, HUGEINT in SQL), so the only
    float ops are the final alpha/division/ln — identical IEEE doubles
    from identical literals on both sides; rounded to 3 digits."""
    merged = _hll_regs_by_type(sf_dir)
    out_e, out_est = [], []
    for et in sorted(merged):
        out_e.append(et)
        out_est.append(round(_hll_estimate(merged[et]), 3))
    return pa.table(
        {
            "event_type": pa.array(out_e, pa.string()),
            "estimate": pa.array(out_est, pa.float64()),
        }
    )


def q_hll_set_ops(sf_dir: str):
    """HLL SET ALGEBRA per event-type pair: |A|, |B|, |A∪B| from the
    register-wise MAX merge (the sketch's lossless union), |A∩B| by
    inclusion–exclusion — the mergeable-sketch answer to 'how much do
    two 100-TB partitions overlap' without ever co-locating them.
    Registers are the same bit-exact mix64 family as hll_registers;
    estimates the same exact-integer fold as hll_estimates."""
    merged = _hll_regs_by_type(sf_dir)
    types = sorted(merged)
    cols = {k: [] for k in (
        "type_a", "type_b", "est_a", "est_b", "est_union",
        "est_intersection",
    )}
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            ea = _hll_estimate(merged[a])
            eb = _hll_estimate(merged[b])
            eu = _hll_estimate(np.maximum(merged[a], merged[b]))
            cols["type_a"].append(a)
            cols["type_b"].append(b)
            cols["est_a"].append(round(ea, 3))
            cols["est_b"].append(round(eb, 3))
            cols["est_union"].append(round(eu, 3))
            cols["est_intersection"].append(round(ea + eb - eu, 3))
    return pa.table(
        {
            "type_a": pa.array(cols["type_a"], pa.string()),
            "type_b": pa.array(cols["type_b"], pa.string()),
            "est_a": pa.array(cols["est_a"], pa.float64()),
            "est_b": pa.array(cols["est_b"], pa.float64()),
            "est_union": pa.array(cols["est_union"], pa.float64()),
            "est_intersection": pa.array(
                cols["est_intersection"], pa.float64()
            ),
        }
    )


_HLL_EST_SQL = f"""
WITH regs AS ({_HLL_REG_SQL}),
spine AS (SELECT et.event_type, CAST(i.i AS BIGINT) AS idx
          FROM (SELECT DISTINCT event_type FROM events) et
          CROSS JOIN (SELECT unnest(range(0, 4096)) AS i) i),
full_regs AS (SELECT s.event_type, s.idx, COALESCE(r.rho, 0) AS rho
              FROM spine s LEFT JOIN regs r
              ON r.event_type = s.event_type AND r.idx = s.idx),
agg AS (SELECT event_type,
        SUM(CAST(POW(2, 53 - rho) AS HUGEINT)) AS s_int,
        COUNT(*) FILTER (rho = 0) AS zeros FROM full_regs GROUP BY 1),
est AS (SELECT event_type, zeros,
        (0.7213 / (1.0 + 1.079 / 4096)) * 4096 * 4096
        * CAST(POW(2, 53) AS DOUBLE) / CAST(s_int AS DOUBLE) AS e
        FROM agg)
SELECT event_type,
       ROUND(CASE WHEN e <= 2.5 * 4096 AND zeros > 0
             THEN 4096 * ln(4096.0 / zeros) ELSE e END, 3) AS estimate
FROM est
"""

_HLL_SETOPS_SQL = f"""
WITH regs AS ({_HLL_REG_SQL}),
types AS (SELECT DISTINCT event_type FROM events),
pairs AS (SELECT a.event_type AS ta, b.event_type AS tb
          FROM types a JOIN types b ON a.event_type < b.event_type),
spine AS (SELECT p.ta, p.tb, CAST(i.i AS BIGINT) AS idx
          FROM pairs p CROSS JOIN (SELECT unnest(range(0, 4096)) AS i) i),
fr AS (SELECT s.ta, s.tb,
       COALESCE(ra.rho, 0) AS rho_a, COALESCE(rb.rho, 0) AS rho_b,
       GREATEST(COALESCE(ra.rho, 0), COALESCE(rb.rho, 0)) AS rho_u
       FROM spine s
       LEFT JOIN regs ra ON ra.event_type = s.ta AND ra.idx = s.idx
       LEFT JOIN regs rb ON rb.event_type = s.tb AND rb.idx = s.idx),
agg AS (SELECT ta, tb,
        SUM(CAST(POW(2, 53 - rho_a) AS HUGEINT)) AS sa,
        COUNT(*) FILTER (rho_a = 0) AS za,
        SUM(CAST(POW(2, 53 - rho_b) AS HUGEINT)) AS sb,
        COUNT(*) FILTER (rho_b = 0) AS zb,
        SUM(CAST(POW(2, 53 - rho_u) AS HUGEINT)) AS su,
        COUNT(*) FILTER (rho_u = 0) AS zu
        FROM fr GROUP BY 1, 2),
raw AS (SELECT ta, tb, za, zb, zu,
        (0.7213 / (1.0 + 1.079 / 4096)) * 4096 * 4096
        * CAST(POW(2, 53) AS DOUBLE) / CAST(sa AS DOUBLE) AS ra,
        (0.7213 / (1.0 + 1.079 / 4096)) * 4096 * 4096
        * CAST(POW(2, 53) AS DOUBLE) / CAST(sb AS DOUBLE) AS rb,
        (0.7213 / (1.0 + 1.079 / 4096)) * 4096 * 4096
        * CAST(POW(2, 53) AS DOUBLE) / CAST(su AS DOUBLE) AS ru
        FROM agg),
est AS (SELECT ta, tb,
        CASE WHEN ra <= 2.5 * 4096 AND za > 0
             THEN 4096 * ln(4096.0 / za) ELSE ra END AS ea,
        CASE WHEN rb <= 2.5 * 4096 AND zb > 0
             THEN 4096 * ln(4096.0 / zb) ELSE rb END AS eb,
        CASE WHEN ru <= 2.5 * 4096 AND zu > 0
             THEN 4096 * ln(4096.0 / zu) ELSE ru END AS eu
        FROM raw)
SELECT ta AS type_a, tb AS type_b,
       ROUND(ea, 3) AS est_a, ROUND(eb, 3) AS est_b,
       ROUND(eu, 3) AS est_union,
       ROUND(ea + eb - eu, 3) AS est_intersection
FROM est
"""


def _hyperball_sql(k: int = 8, p: int = 8) -> str:
    """Exact SQL replay of neighborhood_function(p, exact=True): mix64
    vertex hashes → (idx, rho), register max over the unrolled t-hop
    out-ball (b0..bk, UNION-deduped), exact HUGEINT register sums →
    the alpha / linear-counting estimate, 2^20 quantization, and the
    register-change stopping rule Σrho(t) > Σrho(t−1)."""
    m = 1 << p
    wbits = 64 - p
    wmask = (1 << wbits) - 1
    alpha = f"(0.7213 / (1.0 + 1.079 / {m}))"
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "vv AS MATERIALIZED (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "h1 AS (SELECT vid, xor(CAST(vid AS UBIGINT), "
        "CAST(vid AS UBIGINT) >> 33) AS x FROM vv)",
        f"h2 AS (SELECT vid, {_mix64_mul_sql('x', 0xFF51AFD7ED558CCD)} AS x FROM h1)",
        "h3 AS (SELECT vid, xor(x, x >> 33) AS x FROM h2)",
        f"h4 AS (SELECT vid, {_mix64_mul_sql('x', 0xC4CEB9FE1A85EC53)} AS x FROM h3)",
        "hh AS (SELECT vid, xor(x, x >> 33) AS x FROM h4)",
        f"hr AS MATERIALIZED (SELECT vid, CAST(x >> {wbits} AS BIGINT) AS idx, "
        f"CASE WHEN (x & {wmask}) = 0 THEN {wbits + 1} "
        f"ELSE {wbits + 1} - length(bin(x & {wmask})) END AS rho FROM hh)",
        "b0 AS MATERIALIZED (SELECT vid AS v, vid AS u FROM vv)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"b{i} AS MATERIALIZED (SELECT v, u FROM b{i-1} UNION "
            f"SELECT b.v, e.dst AS u FROM b{i-1} b JOIN e ON e.src = b.u)"
        )
    lvl = " UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS t, b.v, hr.idx, MAX(hr.rho) AS rho "
        f"FROM b{t} b JOIN hr ON hr.vid = b.u GROUP BY b.v, hr.idx"
        for t in range(k + 1)
    )
    ctes.append(f"regs AS MATERIALIZED ({lvl})")
    ctes.append(
        "agg AS (SELECT t, v, "
        f"SUM(CAST(POW(2, 64 - rho) AS HUGEINT)) "
        f"+ ({m} - COUNT(*)) * CAST(POW(2, 64) AS HUGEINT) AS s_int, "
        f"{m} - COUNT(*) AS zeros FROM regs GROUP BY 1, 2)"
    )
    ctes.append(
        "est AS (SELECT t, v, CASE WHEN "
        f"{alpha} * {m} * {m} * CAST(POW(2, 64) AS DOUBLE) "
        f"/ CAST(s_int AS DOUBLE) <= 2.5 * {m} AND zeros > 0 "
        f"THEN {m} * ln({m}.0 / zeros) "
        f"ELSE {alpha} * {m} * {m} * CAST(POW(2, 64) AS DOUBLE) "
        "/ CAST(s_int AS DOUBLE) END AS e FROM agg)"
    )
    ctes.append(
        "nft AS (SELECT t, SUM(CAST(ROUND(e * 1048576.0) AS BIGINT)) "
        "/ 1048576.0 AS n FROM est GROUP BY t)"
    )
    ctes.append("ssum AS (SELECT t, SUM(rho) AS s FROM regs GROUP BY t)")
    ctes.append(
        "tmax AS (SELECT COALESCE(MAX(cur.t), 0) AS tt FROM ssum cur "
        "JOIN ssum prev ON prev.t = cur.t - 1 WHERE cur.s > prev.s)"
    )
    ctes.append("nf AS (SELECT t, n FROM nft WHERE t <= (SELECT tt FROM tmax))")
    ctes.append(
        "eff AS (SELECT MIN(t) AS ed FROM nf WHERE n >= 0.9 * "
        "(SELECT n FROM nf WHERE t = (SELECT tt FROM tmax)))"
    )
    return (
        "WITH " + ", ".join(ctes)
        + " SELECT t, ROUND(n, 3) AS n_pairs, "
        "(SELECT ed FROM eff) AS effective_diameter FROM nf"
    )


_RMAT_Q = {"scale": 8, "n": 2000, "seed": 1}


def q_rmat_edges_oracle(sf_dir: str):
    """The R-MAT generator itself, oracle-backed bit-for-bit: every
    quadrant draw is mix64(e·scale + l + (seed<<32)) / 2^64 compared
    against the (a, a+b, a+b+c) thresholds — all reproducible in SQL
    (limb-split modular mix64, double division by 2^64, integer bit
    assembly), so the synthetic-graph source is held to the same
    standard as the data operators. sf-independent by construction."""
    from signal_collect_ray.sources import rmat_edges

    out = rmat_edges(
        _RMAT_Q["scale"], _RMAT_Q["n"], seed=_RMAT_Q["seed"], num_blocks=8
    ).select_columns(["src", "dst"])
    return pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    )


def _rmat_sql() -> str:
    sc, n, seed = _RMAT_Q["scale"], _RMAT_Q["n"], _RMAT_Q["seed"]
    return f"""
WITH lv AS (SELECT CAST(e.e AS UBIGINT) AS e, CAST(l.l AS BIGINT) AS l,
            CAST(e.e * {sc} + l.l + {seed * 2**32} AS UBIGINT) AS x
            FROM (SELECT unnest(range(0, {n})) AS e) e
            CROSS JOIN (SELECT unnest(range(0, {sc})) AS l) l),
h1 AS (SELECT e, l, xor(x, x >> 33) AS x FROM lv),
h2 AS (SELECT e, l, {_mix64_mul_sql('x', 0xFF51AFD7ED558CCD)} AS x FROM h1),
h3 AS (SELECT e, l, xor(x, x >> 33) AS x FROM h2),
h4 AS (SELECT e, l, {_mix64_mul_sql('x', 0xC4CEB9FE1A85EC53)} AS x FROM h3),
h AS (SELECT e, l,
      CAST(xor(x, x >> 33) AS DOUBLE) / 18446744073709551616.0 AS u
      FROM h4),
bits AS (SELECT e, l,
    CASE WHEN (u >= 0.57 AND u < (0.57 + 0.19)) OR u >= (0.57 + 0.19 + 0.19)
         THEN 1 ELSE 0 END AS rbit,
    CASE WHEN u >= (0.57 + 0.19) THEN 1 ELSE 0 END AS lbit
    FROM h),
agg AS (SELECT e,
        CAST(SUM(lbit * (1 << ({sc} - 1 - l))) AS BIGINT) AS src,
        CAST(SUM(rbit * (1 << ({sc} - 1 - l))) AS BIGINT) AS dst
        FROM bits GROUP BY e)
SELECT src, dst FROM agg WHERE src <> dst
"""


def q_silhouette_scores(sf_dir: str):
    """Simplified silhouette per embedding (centroid form, public
    standard): a = euclidean distance to own label's centroid, b = min
    distance to any other centroid, s = (b − a)/max(a, b) — the cluster
    / labeling quality score. Centroids from the distributed
    vector_mean_by_key exchange (10 × dim values), broadcast; one
    vectorized distance pass per batch."""
    import ray
    import ray.data as rd

    from signal_collect_ray.functions.similarity import vector_mean_by_key

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label", "embedding"],
    )
    cent_rows = vector_mean_by_key(emb, "label").take_all()
    labels = sorted({r["label"] for r in cent_rows})
    dim = max(r["pos"] for r in cent_rows) + 1
    cmat = np.zeros((len(labels), dim))
    lab_to_row = {l: i for i, l in enumerate(labels)}
    for r in cent_rows:
        cmat[lab_to_row[r["label"]], r["pos"]] = r["mean_val"]
    ref = ray.put((np.array(labels, dtype=np.int64), cmat))

    def kernel(tbl: pa.Table) -> pa.Table:
        labs_arr, cm = ray.get(ref)
        own = tbl.column("label").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        q = np.stack(
            [
                np.asarray(v, dtype=np.float64)
                for v in tbl.column("embedding").to_pylist()
            ]
        )
        # (n, L) euclidean distances — direct Σ(q−c)² per centroid (same
        # elementwise terms as the SQL mirror, not the expanded matmul
        # form, so the 6-digit rounding agrees)
        d2 = np.empty((len(q), len(cm)))
        for li in range(len(cm)):
            diff = q - cm[li]
            d2[:, li] = (diff * diff).sum(axis=1)
        d = np.sqrt(d2)
        own_row = np.searchsorted(labs_arr, own)
        a = d[np.arange(len(own)), own_row]
        dmask = d.copy()
        dmask[np.arange(len(own)), own_row] = np.inf
        b = dmask.min(axis=1)
        denom = np.maximum(a, b)
        keep = denom > 0
        s = np.round((b[keep] - a[keep]) / denom[keep], 6)
        return pa.table(
            {
                "vec_id": pa.array(
                    tbl.column("vec_id").to_numpy(zero_copy_only=False)[
                        keep
                    ],
                    pa.int64(),
                ),
                "label": pa.array(own[keep], pa.int64()),
                "silhouette": pa.array(s, pa.float64()),
            }
        )

    return emb.map_batches(kernel, batch_format="pyarrow")


_SILHOUETTE_SQL = """
WITH c AS (SELECT label, r.pos AS pos,
           SUM(CAST(embedding[r.pos] AS DOUBLE)) / COUNT(*) AS v
           FROM embeddings,
           unnest(range(1, len(embedding) + 1)) AS r(pos)
           GROUP BY label, r.pos),
d AS (SELECT e.vec_id, e.label AS own, c.label AS cl,
      sqrt(SUM(POW(CAST(e.embedding[c.pos] AS DOUBLE) - c.v, 2))) AS dist
      FROM embeddings e JOIN c ON c.pos <= len(e.embedding)
      GROUP BY 1, 2, 3),
s AS (SELECT vec_id, own,
      MAX(CASE WHEN cl = own THEN dist END) AS a,
      MIN(CASE WHEN cl <> own THEN dist END) AS b
      FROM d GROUP BY 1, 2)
SELECT vec_id, CAST(own AS BIGINT) AS label,
       ROUND((b - a) / GREATEST(a, b), 6) AS silhouette
FROM s WHERE GREATEST(a, b) > 0
"""


_TEMP_ALPHAS = (0.3, 0.5, 0.7)


def q_temperature_mixture(sf_dir: str):
    """Temperature-scaled sampling weights per source (multilingual-LM
    recipe, e.g. mBERT/XLM-R exponent smoothing, public): w_s(α) ∝
    (token count of source s)^α, normalized per α ∈ {0.3, 0.5, 0.7} —
    the up-weighting curve for low-resource sources. One distributed
    token-count aggregate; the α-sweep folds over the handful of
    sources on the driver."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )

    def count(tbl: pa.Table) -> pa.Table:
        from signal_collect_ray.functions.text import _RE2_NONSPACE_RE

        texts = tbl.column("text").to_pylist()
        # RE2-exact \S+ (matches the oracle's regexp_extract_all)
        n = np.array(
            [len(_RE2_NONSPACE_RE.findall(t or "")) for t in texts], np.int64
        )
        return pa.table(
            {"source": tbl.column("source"), "n": pa.array(n, pa.int64())}
        )

    rows = (
        ds.map_batches(count, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n", alias_name="n_tokens"))
        .take_all()
    )
    toks = {r["source"]: int(r["n_tokens"]) for r in rows}
    srcs = sorted(toks)
    out_s, out_a, out_t, out_w = [], [], [], []
    for alpha in _TEMP_ALPHAS:
        pw = {s: toks[s] ** alpha for s in srcs}
        z = sum(pw.values())
        for s in srcs:
            out_s.append(s)
            out_a.append(alpha)
            out_t.append(toks[s])
            out_w.append(round(pw[s] / z, 6))
    return pa.table(
        {
            "source": pa.array(out_s, pa.string()),
            "alpha": pa.array(out_a, pa.float64()),
            "n_tokens": pa.array(out_t, pa.int64()),
            "weight": pa.array(out_w, pa.float64()),
        }
    )


_TEMP_MIX_SQL = f"""
WITH t AS (SELECT source,
           CAST(SUM(length(regexp_extract_all(text, '\\S+'))) AS BIGINT)
           AS n_tokens FROM documents GROUP BY source),
a AS (SELECT unnest([{', '.join(str(a) for a in _TEMP_ALPHAS)}]) AS alpha)
SELECT t.source, a.alpha, t.n_tokens,
       ROUND(POW(t.n_tokens, a.alpha)
             / SUM(POW(t.n_tokens, a.alpha))
               OVER (PARTITION BY a.alpha), 6) AS weight
FROM t CROSS JOIN a
"""


def q_event_association_rules(sf_dir: str):
    """Association-rule metrics over the co-occurring event-type pairs:
    support = P(a∧b), confidence = P(b|a), lift = P(a∧b)/(P(a)P(b)),
    computed from the same distinct-(user, type) exchange as
    event_pair_cooccurrence plus a broadcast per-type marginal — the
    classic market-basket readout. Rounded to 6 digits both sides."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from signal_collect_ray.functions.analytics import (
        cooccurring_event_pairs,
    )

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type"],
    )
    pairs = pa.concat_tables(
        list(
            cooccurring_event_pairs(ev).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    n_users = ev.groupby("user_id").aggregate(Count(alias_name="_n")).count()
    marg_rows = (
        ev.map_batches(
            lambda t: pa.table(
                {
                    "user_id": t.column("user_id"),
                    "event_type": t.column("event_type"),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby(["user_id", "event_type"])
        .aggregate(Count(alias_name="_c"))
        .groupby("event_type")
        .aggregate(Count(alias_name="n"))
        .take_all()
    )
    marg = {r["event_type"]: r["n"] for r in marg_rows}
    ta = pairs.column("type_a").to_pylist()
    tb = pairs.column("type_b").to_pylist()
    nab = pairs.column("n_users").to_numpy(zero_copy_only=False).astype(
        np.float64
    )
    na = np.array([marg[a] for a in ta], dtype=np.float64)
    nb = np.array([marg[b] for b in tb], dtype=np.float64)
    order = np.lexsort((np.asarray(tb, dtype=object), np.asarray(ta, dtype=object)))
    return pa.table(
        {
            "type_a": pa.array(np.asarray(ta, dtype=object)[order].tolist(), pa.string()),
            "type_b": pa.array(np.asarray(tb, dtype=object)[order].tolist(), pa.string()),
            "support": pa.array(
                np.round(nab / n_users, 6)[order], pa.float64()
            ),
            "confidence": pa.array(
                np.round(nab / na, 6)[order], pa.float64()
            ),
            "lift": pa.array(
                np.round(nab * n_users / (na * nb), 6)[order], pa.float64()
            ),
        }
    )


_EVENT_RULES_SQL = (
    "WITH ut AS (SELECT DISTINCT user_id, event_type FROM events), "
    "nu AS (SELECT COUNT(DISTINCT user_id) AS n FROM events), "
    "m AS (SELECT event_type, COUNT(*) AS n FROM ut GROUP BY 1), "
    "p AS (SELECT a.event_type AS type_a, b.event_type AS type_b, "
    "COUNT(*) AS nab FROM ut a JOIN ut b ON a.user_id = b.user_id "
    "AND a.event_type < b.event_type GROUP BY 1, 2) "
    "SELECT p.type_a, p.type_b, "
    "ROUND(p.nab * 1.0 / nu.n, 6) AS support, "
    "ROUND(p.nab * 1.0 / ma.n, 6) AS confidence, "
    "ROUND(p.nab * 1.0 * nu.n / (ma.n * mb.n), 6) AS lift "
    "FROM p CROSS JOIN nu JOIN m ma ON ma.event_type = p.type_a "
    "JOIN m mb ON mb.event_type = p.type_b"
)


def q_decayed_engagement(sf_dir: str):
    """Per-user 1-day-half-life decayed value sum (functions.analytics.
    time_decayed_sum) — recency-weighted engagement scoring."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import time_decayed_sum

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "value"],
    )
    return time_decayed_sum(ev, half_life_s=86400.0)


_DECAYED_SQL = (
    "WITH t AS (SELECT MAX(ts) AS tr FROM events) "
    "SELECT user_id, ROUND(SUM(value * POW(2.0, "
    "-(epoch_us(t.tr) - epoch_us(ts)) / (86400.0 * 1e6))), 6) "
    "AS decayed_sum FROM events, t GROUP BY user_id"
)


def q_events_profile(sf_dir: str):
    """Data-profiling sweep over the events table (functions.
    aggregations.profile_columns): per-column rows/nulls/exact
    distinct/min/max in one pass + one dedup exchange."""
    import ray.data as rd

    from signal_collect_ray.functions.aggregations import profile_columns

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type", "value", "props"],
    )
    return profile_columns(ev, ["user_id", "event_type", "value", "props"])


def _profile_sql() -> str:
    num = (
        "SELECT '{c}' AS \"column\", COUNT(*) AS n_rows, "
        "COUNT(*) - COUNT({c}) AS n_nulls, "
        "COUNT(DISTINCT {c}) AS n_distinct, "
        "CAST(MIN({c}) AS DOUBLE) AS min_val, "
        "CAST(MAX({c}) AS DOUBLE) AS max_val FROM events"
    )
    txt = (
        "SELECT '{c}' AS \"column\", COUNT(*) AS n_rows, "
        "COUNT(*) - COUNT({c}) AS n_nulls, "
        "COUNT(DISTINCT {c}) AS n_distinct, "
        "CAST(NULL AS DOUBLE) AS min_val, "
        "CAST(NULL AS DOUBLE) AS max_val FROM events"
    )
    return " UNION ALL ".join(
        [
            num.format(c="user_id"),
            txt.format(c="event_type"),
            num.format(c="value"),
            txt.format(c="props"),
        ]
    )


def q_bigram_logprob(sf_dir: str):
    """Per-doc mean smoothed corpus-bigram log-probability
    (functions.text.bigram_logprob — CCNet-style LM filter, α=0.5)."""
    import ray.data as rd

    from signal_collect_ray.functions.text import bigram_logprob

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return bigram_logprob(docs, alpha=0.5)


_BIGRAM_LP_SQL = (
    "WITH w AS (SELECT doc_id, regexp_extract_all(lower(COALESCE(text, "
    "'')), '\\S+') AS ws FROM documents), "
    "vv AS (SELECT CAST(COUNT(DISTINCT word) AS DOUBLE) AS v FROM "
    "(SELECT unnest(ws) AS word FROM w)), "
    "b AS (SELECT doc_id, ws[i] AS w1, ws[i+1] AS w2 FROM w, "
    "LATERAL (SELECT unnest(range(1, len(ws))) AS i) t), "
    "bc AS (SELECT w1, w2, CAST(COUNT(*) AS DOUBLE) AS c FROM b "
    "GROUP BY w1, w2), "
    "uc AS (SELECT w1, CAST(COUNT(*) AS DOUBLE) AS c FROM b GROUP BY w1), "
    "s AS (SELECT b.doc_id, ln((bc.c + 0.5) / (uc.c + 0.5 * vv.v)) AS lp "
    "FROM b JOIN bc ON bc.w1 = b.w1 AND bc.w2 = b.w2 "
    "JOIN uc ON uc.w1 = b.w1 CROSS JOIN vv) "
    "SELECT doc_id, COUNT(*) AS n_bigrams, "
    "ROUND(AVG(lp), 6) AS bigram_logprob FROM s GROUP BY doc_id"
)


def q_kmeans_clusters(sf_dir: str):
    """Full-corpus Euclidean Lloyd k-means cluster assignments
    (functions.similarity.kmeans_lloyd, k=8, seeded init). Iterative
    fixed-point with no SQL mirror: rows-only."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import kmeans_lloyd

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    _C, assign_ds, _j = kmeans_lloyd(emb, k=8, iters=25)
    return assign_ds


def q_pca_projection(sf_dir: str):
    """Top-principal-component projection of every embedding
    (functions.similarity.pca_top_component — distributed power
    iteration — then pca_project). Deterministic (fixed seed, sign
    convention) but eigendecomposition has no SQL mirror: rows-only."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import (
        pca_project,
        pca_top_component,
    )

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    v, _lam, _n = pca_top_component(emb, iters=50)
    return pca_project(emb, v)


def q_event_freq_cm(sf_dir: str):
    """Count-Min point-frequency estimates for every event type
    (functions.sketches.cm_build/cm_estimate). Same oracle logic as
    top_event_types: with few distinct types against a 4×4096 sketch
    the deterministic hashes don't collide, so the never-undercount
    estimates are EXACT here; the e·N/width overcount bound in the
    approximate regime is pinned on Zipf data in tests."""
    import ray.data as rd

    from signal_collect_ray.functions.sketches import cm_build, cm_estimate

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type"]
    )
    sk = cm_build(ev, "event_type", depth=4, width=1 << 12)
    types = sorted(ev.unique("event_type"))
    est = cm_estimate(sk, types)
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "n_events": pa.array(est, pa.int64()),
        }
    )


_EVENT_FREQ_CM_SQL = (
    "SELECT event_type, COUNT(*) AS n_events FROM events GROUP BY event_type"
)


def q_paragraph_dedup(sf_dir: str):
    """CCNet-style corpus-wide keep-first chunk dedup + reassembly
    (functions.dedup.dedup_paragraphs, 10-word chunks)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import dedup_paragraphs

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dedup_paragraphs(docs, chunk_words=10)


_PARA_DEDUP_SQL = (
    "WITH w AS (SELECT doc_id, regexp_extract_all(lower(COALESCE(text, "
    "'')), '\\S+') AS ws FROM documents), "
    "c AS (SELECT doc_id, i AS cidx, "
    "array_to_string(ws[(i-1)*10+1 : i*10], ' ') AS chunk "
    "FROM w, LATERAL (SELECT unnest(range(1, "
    "CAST(ceil(len(ws) / 10.0) AS BIGINT) + 1)) AS i) t), "
    "m AS (SELECT chunk, MIN(doc_id * 1000000 + cidx) AS mn "
    "FROM c GROUP BY chunk), "
    "f AS (SELECT c.doc_id, c.cidx, c.chunk, "
    "c.doc_id * 1000000 + c.cidx = m.mn AS kept FROM c JOIN m USING (chunk)) "
    "SELECT doc_id, COALESCE(string_agg(CASE WHEN kept THEN chunk END, ' ' "
    "ORDER BY cidx), '') AS clean_text, "
    "SUM(CASE WHEN kept THEN 1 ELSE 0 END) AS n_kept, "
    "SUM(CASE WHEN kept THEN 0 ELSE 1 END) AS n_dropped "
    "FROM f GROUP BY doc_id"
)


def q_boilerplate_chunks(sf_dir: str):
    """Chunks shared by ≥2 documents with document frequencies
    (functions.dedup.boilerplate_chunks, 10-word chunks)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import boilerplate_chunks

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return boilerplate_chunks(docs, chunk_words=10, min_docs=2)


_BOILERPLATE_SQL = (
    "WITH w AS (SELECT doc_id, regexp_extract_all(lower(COALESCE(text, "
    "'')), '\\S+') AS ws FROM documents), "
    "c AS (SELECT DISTINCT doc_id, "
    "array_to_string(ws[(i-1)*10+1 : i*10], ' ') AS chunk "
    "FROM w, LATERAL (SELECT unnest(range(1, "
    "CAST(ceil(len(ws) / 10.0) AS BIGINT) + 1)) AS i) t) "
    "SELECT chunk, COUNT(DISTINCT doc_id) AS n_docs FROM c "
    "GROUP BY chunk HAVING COUNT(DISTINCT doc_id) >= 2"
)


def q_host_modularity(sf_dir: str):
    """Directed Newman modularity of the host partition (vid %
    _HOST_MOD — the same coarsening as q_host_pagerank_k4) on the page
    link graph: how self-linking hosts are. algorithms.modularity."""
    from signal_collect_ray.algorithms.modularity import partition_modularity

    return partition_modularity(
        derived_edges_ds(sf_dir), lambda v: v % _HOST_MOD
    )


_HOST_MODULARITY_SQL = (
    f"WITH e AS ({_E_SQL}), "
    f"k AS (SELECT src % {{H}} AS cs, dst % {{H}} AS cd FROM e), "
    "m AS (SELECT CAST(COUNT(*) AS DOUBLE) AS m FROM k), "
    "w AS (SELECT CAST(COUNT(*) AS DOUBLE) AS w FROM k WHERE cs = cd), "
    "ko AS (SELECT cs AS c, CAST(COUNT(*) AS DOUBLE) AS ko FROM k GROUP BY cs), "
    "ki AS (SELECT cd AS c, CAST(COUNT(*) AS DOUBLE) AS ki FROM k GROUP BY cd), "
    "x AS (SELECT COALESCE(SUM(ko.ko * ki.ki), 0) AS s FROM ko JOIN ki USING (c)) "
    "SELECT ROUND(w.w / m.m - x.s / (m.m * m.m), 6) AS modularity FROM w, m, x"
)


def q_degree_theil(sf_dir: str):
    """Theil-T inequality index of the in-degree distribution —
    T = Σ_v (d_v/S)·ln(d_v·N/S) over the N vertices with in-degree ≥ 1
    (the entropy-based sibling of pagerank_gini; Theil 1967, public).
    Exactness discipline: the per-DISTINCT-degree term
    (d/S)·ln(d·N/S) quantizes to 1e-9 units (round-half-away) BEFORE
    the Σ c_d-weighted sum, so the distributed/SQL accumulation is an
    order-free integer sum and a last-ulp ln() difference cannot move
    the result (boundary width 1e-9 vs ~1e-18 ulp wiggle). One tiny
    (degree → count) histogram exchange; driver walk O(distinct
    degrees)."""
    from ray.data.aggregate import Count

    rows = (
        q_in_degrees(sf_dir)
        .groupby("in_degree")
        .aggregate(Count(alias_name="c"))
        .take_all()
    )
    hist = sorted((int(r["in_degree"]), int(r["c"])) for r in rows)
    n_v = sum(c for _, c in hist)
    s = sum(d * c for d, c in hist)
    total_micro = 0
    for d, c in hist:
        term = (d / s) * np.log(d * n_v / s)
        m = int(_round_half_away(np.array([term * 1e9]), 0)[0])
        total_micro += c * m
    theil = total_micro / 1e9
    return pa.table(
        {
            "n_vertices": pa.array([n_v], pa.int64()),
            "theil": pa.array(
                [float(_round_half_away(np.array([theil]), 6)[0])],
                pa.float64(),
            ),
        }
    )


_DEGREE_THEIL_SQL = f"""
WITH e AS MATERIALIZED ({_E_SQL}),
deg AS (SELECT dst, CAST(COUNT(*) AS BIGINT) AS d FROM e GROUP BY dst),
h AS (SELECT d, CAST(COUNT(*) AS BIGINT) AS c FROM deg GROUP BY d),
m AS (SELECT CAST(SUM(c) AS BIGINT) AS n_v,
      CAST(SUM(d * c) AS BIGINT) AS s FROM h),
t AS (SELECT SUM(h.c * CAST(ROUND(
        (h.d * 1.0 / m.s) * LN(h.d * 1.0 * m.n_v / m.s) * 1000000000,
        0) AS BIGINT)) AS micro
      FROM h, m)
SELECT m.n_v AS n_vertices,
       ROUND(t.micro / 1000000000.0, 6) AS theil
FROM m, t
"""


def q_pagerank_gini(sf_dir: str):
    """Gini coefficient of 4-step PageRank mass (attention
    concentration on the link graph). functions.analytics.
    gini_concentration over the same rounded ranks as pagerank_k4."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import gini_concentration

    return gini_concentration(
        rd.from_arrow(q_pagerank_k4(sf_dir)).repartition(4), "rank"
    )


def _pr_gini_sql() -> str:
    # pairwise (mean-absolute-difference) Gini over the value histogram
    # — ties handled identically to the cumsum fold on the Ray side
    return (
        f"WITH pr AS ({_pr_sql(4)}), "
        "h AS (SELECT rank AS v, CAST(COUNT(*) AS DOUBLE) AS f "
        "FROM pr GROUP BY rank), "
        "t AS (SELECT SUM(f) AS n, SUM(f * v) AS s FROM h), "
        "mad AS (SELECT SUM(a.f * b.f * ABS(a.v - b.v)) AS m FROM h a, h b) "
        "SELECT ROUND(mad.m / (2.0 * t.n * t.s), 6) AS gini FROM mad, t"
    )


def q_dup_ngram_fraction(sf_dir: str):
    """Per-doc duplicated 5-gram fraction (functions.dedup.
    duplicated_ngram_fraction — Lee et al. 2022 curation signal)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import duplicated_ngram_fraction

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return duplicated_ngram_fraction(docs, n=5)


_DUP_NGRAM_SQL = (
    "WITH w AS (SELECT doc_id, regexp_extract_all(lower(COALESCE(text, "
    "'')), '\\S+') AS ws FROM documents), "
    "g AS (SELECT doc_id, array_to_string(ws[i:i+4], ' ') AS ng FROM w, "
    "LATERAL (SELECT unnest(range(1, len(ws) - 3)) AS i) t), "
    "d AS (SELECT DISTINCT doc_id, ng FROM g), "
    "c AS (SELECT ng, COUNT(*) AS nd FROM d GROUP BY ng) "
    "SELECT d.doc_id, ROUND(AVG(CASE WHEN c.nd > 1 THEN 1.0 ELSE 0.0 END)"
    ", 6) AS dup_frac FROM d JOIN c USING (ng) GROUP BY d.doc_id"
)


def _graph_rev(sf_dir: str):
    """Reversed directed graph (dst→src), built once per process —
    the backward-reachability side of the bow-tie decomposition."""
    from signal_collect_ray import Graph

    key = (sf_dir, "rev")
    g = _GRAPH_CACHE.get(key)
    if g is None:

        def rev(tbl: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src": tbl.column("dst"),
                    "dst": tbl.column("src"),
                    "weight": tbl.column("weight"),
                }
            )

        edges = derived_edges_ds(sf_dir).map_batches(rev, batch_format="pyarrow")
        g = Graph.build(
            edges, _work_dir(sf_dir, "graph_rev"), num_partitions=_P
        )
        _GRAPH_CACHE[key] = g
    return g


_BOWTIE_CATS = ("core", "in", "out", "tendril")


def q_bowtie_structure(sf_dir: str):
    """Broder et al. (2000) bow-tie decomposition of the directed link
    graph: CORE = largest SCC (most vertices, ties to the smallest
    label); IN = vertices that reach the core (finite distance from the
    core over REVERSED edges); OUT = vertices the core reaches;
    TENDRIL = the rest (tendrils, tubes and disconnected pieces).
    Composition of three engine primitives: the forward-backward SCC
    coloring (algorithms/scc.py), then two MultiSourceBFS reachability
    runs seeded at the core — one on the forward graph, one on the
    reversed build. (IN and OUT are mutually exclusive with CORE by
    construction: forward∧backward reachable ⇒ mutually reachable ⇒
    in the core SCC.) Returns the 4-category vertex census."""
    from signal_collect_ray.algorithms import MultiSourceBFS
    from signal_collect_ray.algorithms.scc import scc_labels

    key = (sf_dir, "bowtie")
    cached = _RESULT_CACHE.get(key)
    if cached is not None:
        return cached

    labs = scc_labels(
        derived_edges_ds(sf_dir).select_columns(["src", "dst"]),
        _work_dir(sf_dir, "bowtie_scc"),
    )
    vid = labs.column("vid").to_numpy(zero_copy_only=False)
    scc = labs.column("scc").to_numpy(zero_copy_only=False)
    u, cnt = np.unique(scc, return_counts=True)
    best = u[cnt == cnt.max()].min()  # most members, ties → min label
    core = vid[scc == best]

    def reach(graph_sym: bool, reverse: bool, tag: str) -> np.ndarray:
        g = _graph_rev(sf_dir) if reverse else _graph(sf_dir)
        eng = _engine(50)
        info = eng.run(
            g,
            MultiSourceBFS(core),
            run_dir=_work_dir(sf_dir, f"run_bowtie_{tag}"),
            resume=False,
            checkpoint_interval=50,
        )
        t = info.state_table()
        rv = t.column("vid").to_numpy(zero_copy_only=False)
        rd = t.column("state").to_numpy(zero_copy_only=False)
        return rv[np.isfinite(rd)]

    fwd = reach(False, False, "fwd")  # core reaches these (→ OUT)
    bwd = reach(False, True, "bwd")  # these reach the core (→ IN)

    in_core = np.isin(vid, core)
    in_out = np.isin(vid, fwd) & ~in_core
    in_in = np.isin(vid, bwd) & ~in_core
    counts = {
        "core": int(in_core.sum()),
        "in": int(in_in.sum()),
        "out": int(in_out.sum()),
        "tendril": int((~(in_core | in_in | in_out)).sum()),
    }
    res = pa.table(
        {
            "category": pa.array(list(_BOWTIE_CATS), pa.string()),
            "n_vertices": pa.array(
                [counts[c] for c in _BOWTIE_CATS], pa.int64()
            ),
        }
    )
    _RESULT_CACHE[key] = res
    return res


_BOWTIE_SQL = (
    f"WITH RECURSIVE e AS ({_E_SQL}), "
    # NB: under WITH RECURSIVE, DuckDB 1.0 does NOT dedup UNION in
    # non-recursive CTEs — make the vertex set explicitly DISTINCT
    "v AS (SELECT DISTINCT vid FROM "
    "(SELECT src AS vid FROM e UNION ALL SELECT dst FROM e)), "
    "reach(s, t) AS (SELECT src, dst FROM e UNION "
    "SELECT r.s, e.dst FROM reach r JOIN e ON e.src = r.t), "
    "mut AS (SELECT DISTINCT a.s AS x, a.t AS y FROM reach a "
    "JOIN reach b ON b.s = a.t AND b.t = a.s), "
    "scc AS (SELECT v.vid, LEAST(v.vid, COALESCE(MIN(m.y), v.vid)) AS scc "
    "FROM v LEFT JOIN mut m ON m.x = v.vid GROUP BY v.vid), "
    "core_lab AS (SELECT scc FROM scc GROUP BY scc "
    "ORDER BY COUNT(*) DESC, scc ASC LIMIT 1), "
    "cv AS (SELECT vid FROM scc WHERE scc = (SELECT scc FROM core_lab)), "
    # forward / backward closures from the core via the SAME transitive
    # closure (no second recursion): core reaches t / s reaches core
    "fwd AS (SELECT DISTINCT r.t AS vid FROM reach r "
    "JOIN cv ON cv.vid = r.s), "
    "bwd AS (SELECT DISTINCT r.s AS vid FROM reach r "
    "JOIN cv ON cv.vid = r.t), "
    "cat AS (SELECT v.vid, CASE "
    "WHEN v.vid IN (SELECT vid FROM cv) THEN 'core' "
    "WHEN v.vid IN (SELECT vid FROM bwd) THEN 'in' "
    "WHEN v.vid IN (SELECT vid FROM fwd) THEN 'out' "
    "ELSE 'tendril' END AS category FROM v), "
    "cats AS (SELECT UNNEST(['core', 'in', 'out', 'tendril']) AS category) "
    "SELECT cats.category, CAST(COALESCE(n, 0) AS BIGINT) AS n_vertices "
    "FROM cats LEFT JOIN (SELECT category, COUNT(*) AS n FROM cat "
    "GROUP BY category) c ON c.category = cats.category"
)


def q_community_conductance(sf_dir: str):
    """Per-community conductance φ(C) = cut(C) / min(vol(C), 2m−vol(C))
    over the deterministic 1-round Chinese-Whispers communities (the
    cluster-quality diagnostic of Shi & Malik / Kannan-Vempala-Vetta,
    public literature). One pass over the symmetric edge set with the
    label vector broadcast once (byte-capped idiom; co-partitioned join
    fallback at billion-vertex scale), per-block (label, vol, cut)
    partials, tiny groupby fold."""
    import ray
    from ray.data.aggregate import Sum

    from signal_collect_ray.algorithms import ChineseWhispers

    t = _state(sf_dir, ChineseWhispers(), True, 1, eps=0.0, tag="_k1")
    lv = t.column("vid").to_numpy(zero_copy_only=False)
    ll = t.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(lv)
    ref = ray.put((lv[order], ll[order]))

    def partial(tbl: pa.Table) -> pa.Table:
        vids, labs = ray.get(ref)
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        ls = labs[np.searchsorted(vids, s)]
        ld = labs[np.searchsorted(vids, d)]
        u, inv = np.unique(ls, return_inverse=True)
        vol = np.bincount(inv)
        cut = np.bincount(inv, weights=(ls != ld).astype(np.float64))
        return pa.table(
            {
                "label": pa.array(u, pa.int64()),
                "vol": pa.array(vol.astype(np.int64), pa.int64()),
                "cut": pa.array(cut.astype(np.int64), pa.int64()),
            }
        )

    # symmetric dedup'd edges — the same e ∪ reverse(e) set _CW1_SQL uses
    agg_rows = (
        _sym_dedup(derived_edges_ds(sf_dir))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .aggregate(Sum("vol", alias_name="vol"), Sum("cut", alias_name="cut"))
        .take_all()
    )
    labels = np.array([r["label"] for r in agg_rows], dtype=np.int64)
    vol = np.array([r["vol"] for r in agg_rows], dtype=np.int64)
    cut = np.array([r["cut"] for r in agg_rows], dtype=np.int64)
    tot = int(vol.sum())
    denom = np.minimum(vol, tot - vol)
    phi = np.where(denom > 0, cut / np.maximum(denom, 1), 0.0)
    return pa.table(
        {
            "label": pa.array(labels, pa.int64()),
            "vol": pa.array(vol, pa.int64()),
            "cut": pa.array(cut, pa.int64()),
            # DuckDB ROUND half-away (values non-negative)
            "conductance": pa.array(
                np.floor(phi * 1e6 + 0.5) / 1e6, pa.float64()
            ),
        }
    )


_CONDUCTANCE_SQL = f"""
WITH cw AS ({_CW1_SQL}),
e0 AS ({_E_SQL}),
es AS (SELECT src, dst FROM e0 UNION SELECT dst AS src, src AS dst FROM e0),
le AS (SELECT a.label AS ls, b.label AS ld FROM es
       JOIN cw a ON a.vid = es.src JOIN cw b ON b.vid = es.dst),
agg AS (SELECT ls AS label, COUNT(*) AS vol,
        COUNT(*) FILTER (ls <> ld) AS cut FROM le GROUP BY ls),
tot AS (SELECT SUM(vol) AS t FROM agg)
SELECT CAST(label AS BIGINT) AS label, CAST(vol AS BIGINT) AS vol,
       CAST(cut AS BIGINT) AS cut,
       ROUND(CASE WHEN LEAST(vol, tot.t - vol) > 0
             THEN cut * 1.0 / LEAST(vol, tot.t - vol) ELSE 0.0 END,
             6) AS conductance
FROM agg, tot
"""


def q_bipartite_components(sf_dir: str):
    """Per-component bipartiteness test of the undirected link graph: a
    connected component is bipartite iff the BFS-layer 2-coloring from
    its root (parity of shortest-hop distance) leaves no edge inside one
    parity class. Composition: the engine's min-label CC (roots = the
    min-vid labels) then ONE MultiSourceBFS over the symmetric graph
    seeded at every root simultaneously (components are disjoint, so
    each BFS stays inside its component); one broadcast-annotated edge
    pass counts same-parity edges per component. Reports the symmetric
    directed edge count — each offending undirected edge counts twice."""
    import ray
    from ray.data.aggregate import Sum

    from signal_collect_ray.algorithms import ConnectedComponents, MultiSourceBFS

    t = _state(sf_dir, ConnectedComponents(), True, 50, tag="_bip")
    vid = t.column("vid").to_numpy(zero_copy_only=False)
    lab = t.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    roots = np.unique(lab)

    g = _graph(sf_dir, True)
    info = _engine(50).run(
        g,
        MultiSourceBFS(roots),
        run_dir=_work_dir(sf_dir, "run_bip_bfs"),
        resume=False,
        checkpoint_interval=50,
    )
    bt = info.state_table()
    bv = bt.column("vid").to_numpy(zero_copy_only=False)
    bd = bt.column("state").to_numpy(zero_copy_only=False)
    order = np.argsort(bv)
    bv, bd = bv[order], bd[order]
    parity = (bd.astype(np.int64) % 2).astype(np.int64)
    lorder = np.argsort(vid)
    ref = ray.put((bv, parity, vid[lorder], lab[lorder]))

    def partial(tbl: pa.Table) -> pa.Table:
        pv, pp, cv, cl = ray.get(ref)
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        same = pp[np.searchsorted(pv, s)] == pp[np.searchsorted(pv, d)]
        ls = cl[np.searchsorted(cv, s)]
        u, inv = np.unique(ls, return_inverse=True)
        odd = np.bincount(inv, weights=same.astype(np.float64))
        return pa.table(
            {
                "label": pa.array(u, pa.int64()),
                "odd": pa.array(odd.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        _sym_dedup(derived_edges_ds(sf_dir))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .aggregate(Sum("odd", alias_name="odd"))
        .take_all()
    )
    odd_by_label = {r["label"]: r["odd"] for r in rows}
    labels = np.unique(lab)
    n_v = np.array([(lab == c).sum() for c in labels], dtype=np.int64)
    odd = np.array([odd_by_label.get(int(c), 0) for c in labels], dtype=np.int64)
    return pa.table(
        {
            "label": pa.array(labels, pa.int64()),
            "n_vertices": pa.array(n_v, pa.int64()),
            "odd_edges": pa.array(odd, pa.int64()),
            "bipartite": pa.array(odd == 0, pa.bool_()),
        }
    )


def _bipartite_sql() -> str:
    """CC labels (k-round min-label unroll) + k-round min-plus BFS from
    each component root over the symmetric edges, then the same-parity
    edge count per component. Monotone folds — rounds past the fixpoint
    are no-ops, matching the engine's run-to-convergence."""
    k = _BFS_K
    ctes = [
        f"cc AS MATERIALIZED ({_cc_sql(_CC_K)})",
        f"e0 AS MATERIALIZED ({_E_SQL})",
        "es AS MATERIALIZED (SELECT src, dst FROM e0 "
        "UNION SELECT dst AS src, src AS dst FROM e0)",
        "d0 AS (SELECT vid, CASE WHEN vid = label THEN CAST(0 AS DOUBLE) "
        "ELSE CAST(1e18 AS DOUBLE) END AS d FROM cc)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"d{i} AS MATERIALIZED (SELECT cc.vid, "
            f"LEAST(own.d, COALESCE(MIN(nb.d + 1.0), 1e18)) AS d "
            f"FROM cc JOIN d{i-1} own ON own.vid = cc.vid "
            f"LEFT JOIN es ON es.dst = cc.vid "
            f"LEFT JOIN d{i-1} nb ON nb.vid = es.src "
            f"GROUP BY cc.vid, own.d)"
        )
    ctes.append(
        f"par AS (SELECT vid, CAST(d AS BIGINT) % 2 AS p FROM d{k})"
    )
    ctes.append(
        "odd AS (SELECT cc.label, COUNT(*) AS n FROM es "
        "JOIN par a ON a.vid = es.src JOIN par b ON b.vid = es.dst "
        "JOIN cc ON cc.vid = es.src WHERE a.p = b.p GROUP BY cc.label)"
    )
    return (
        "WITH " + ", ".join(ctes)
        + " SELECT cc.label, CAST(COUNT(*) AS BIGINT) AS n_vertices, "
        "CAST(COALESCE(odd.n, 0) AS BIGINT) AS odd_edges, "
        "COALESCE(odd.n, 0) = 0 AS bipartite "
        "FROM cc LEFT JOIN odd ON odd.label = cc.label "
        "GROUP BY cc.label, odd.n"
    )


def _round_half_away(x: np.ndarray, digits: int = 6) -> np.ndarray:
    """DuckDB ROUND semantics (half away from zero) — numpy's np.round
    is half-to-even, which disagrees exactly on boundary values."""
    s = 10.0 ** digits
    return np.where(
        x >= 0, np.floor(x * s + 0.5), -np.floor(-x * s + 0.5)
    ) / s


def q_event_transitions(sf_dir: str):
    """First-order Markov transition matrix of per-user event-type
    sequences: n(from→to) and the conditional probability
    p = n / Σ_to n — the session-model / behavioral-signature operator.
    Same one-exchange shape as inter_event_gaps: hash-partition by
    user, one lexsort per partition (ties broken by event_id so the
    pair multiset is deterministic), vectorized pair extraction,
    per-partition partial counts, tiny final fold on the (type × type)
    domain."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def keyed(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "part": pa.array(part_of(uid, 16), pa.int32()),
                "user_id": tbl.column("user_id"),
                "ts_us": pa.array(ts, pa.int64()),
                "event_id": tbl.column("event_id"),
                "event_type": tbl.column("event_type"),
            }
        )

    def pairs(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts_us").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        et = np.asarray(tbl.column("event_type").to_pylist())
        order = np.lexsort((eid, ts, uid))
        u, t = uid[order], et[order]
        nxt_same = u[1:] == u[:-1]
        frm = t[:-1][nxt_same]
        to = t[1:][nxt_same]
        # integer pair-coding (numpy unicode arrays silently drop NUL
        # separators, so string-concat keys are NOT safe)
        ut, if_ = np.unique(np.concatenate([frm, to]), return_inverse=True)
        fi, ti = if_[: len(frm)], if_[len(frm):]
        code = fi * len(ut) + ti
        uc, cnt = np.unique(code, return_counts=True)
        return pa.table(
            {
                "from_type": pa.array(ut[uc // len(ut)], pa.string()),
                "to_type": pa.array(ut[uc % len(ut)], pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby("part")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    frm = np.array([r["from_type"] for r in rows])
    to = np.array([r["to_type"] for r in rows])
    n = np.array([r["n"] for r in rows], dtype=np.int64)
    tot = {f: n[frm == f].sum() for f in np.unique(frm)}
    p = np.array([x * 1.0 / tot[f] for f, x in zip(frm, n)])
    return pa.table(
        {
            "from_type": pa.array(frm, pa.string()),
            "to_type": pa.array(to, pa.string()),
            "n": pa.array(n, pa.int64()),
            "p": pa.array(_round_half_away(p), pa.float64()),
        }
    )


_EVENT_TRANSITIONS_SQL = """
WITH s AS (SELECT user_id, event_type,
           LEAD(event_type) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS nxt
           FROM events),
c AS (SELECT event_type AS from_type, nxt AS to_type, COUNT(*) AS n
      FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2),
t AS (SELECT from_type, SUM(n) AS tot FROM c GROUP BY from_type)
SELECT c.from_type, c.to_type, CAST(c.n AS BIGINT) AS n,
       ROUND(c.n * 1.0 / t.tot, 6) AS p
FROM c JOIN t USING (from_type)
"""


_STATIONARY_ITERS = 16


def q_markov_stationary(sf_dir: str):
    """Stationary distribution of the per-user event-type Markov chain:
    the transition COUNTS come from the same one-exchange distributed
    pipeline as event_transitions; the power iteration then runs on the
    tiny (types × types) matrix — O(S²) driver algebra, S = distinct
    event types. Dangling types (no outgoing transition) keep their
    mass (self-loop closure), mirrored exactly in the oracle's
    augmented edge relation. π₀ uniform, 16 iterations, ROUND 6 once."""
    trans = q_event_transitions(sf_dir)
    frm = np.asarray(trans.column("from_type").to_pylist())
    to = np.asarray(trans.column("to_type").to_pylist())
    n = trans.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
    types = np.unique(np.concatenate([frm, to]))
    S = len(types)
    idx = {t: i for i, t in enumerate(types)}
    P = np.zeros((S, S))
    for f, t, c in zip(frm, to, n):
        P[idx[f], idx[t]] = c
    row = P.sum(axis=1)
    dangling = row == 0
    P = np.divide(P, row[:, None], out=np.zeros_like(P), where=row[:, None] > 0)
    P[dangling, :] = np.eye(S)[dangling]
    pi = np.full(S, 1.0 / S)
    for _ in range(_STATIONARY_ITERS):
        pi = pi @ P
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "pi": pa.array(_round_half_away(pi, 6), pa.float64()),
        }
    )


def _stationary_sql(k: int) -> str:
    ctes = [
        "s AS (SELECT user_id, event_type, "
        "LEAD(event_type) OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id) AS nxt FROM events)",
        "c AS (SELECT event_type AS from_type, nxt AS to_type, "
        "COUNT(*) AS n FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2)",
        "t AS (SELECT from_type, SUM(n) AS tot FROM c GROUP BY from_type)",
        "st AS (SELECT from_type AS ty FROM c "
        "UNION SELECT to_type FROM c)",
        "ns AS (SELECT CAST(COUNT(*) AS DOUBLE) AS k FROM st)",
        # row-stochastic transition relation; dangling types self-loop
        "pe AS (SELECT c.from_type AS a, c.to_type AS b, "
        "c.n * 1.0 / t.tot AS w FROM c JOIN t USING (from_type) "
        "UNION ALL SELECT st.ty, st.ty, 1.0 FROM st "
        "WHERE st.ty NOT IN (SELECT from_type FROM t))",
        "p0 AS (SELECT ty, 1.0 / ns.k AS pi FROM st, ns)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"p{i} AS MATERIALIZED (SELECT st.ty, "
            f"COALESCE(SUM(p{i-1}.pi * pe.w), 0) AS pi "
            f"FROM st LEFT JOIN pe ON pe.b = st.ty "
            f"LEFT JOIN p{i-1} ON p{i-1}.ty = pe.a GROUP BY st.ty)"
        )
    return (
        "WITH "
        + ", ".join(ctes)
        + f" SELECT ty AS event_type, ROUND(pi, 6) AS pi FROM p{k}"
    )


def q_lang_source_matrix(sf_dir: str):
    """Corpus-composition contingency grid: observed count, expected
    count under independence (row·col/N) and the standardized Pearson
    residual (n−e)/√e for every (lang, source) cell — the drift /
    imbalance diagnostic run before fixing mixture weights. Per-block
    partial counts, one tiny (lang,source) groupby, driver-side grid
    algebra (the cell domain is langs × sources, O(100))."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "source"]
    )

    def partial(tbl: pa.Table) -> pa.Table:
        lang = np.asarray(tbl.column("lang").to_pylist())
        srcc = np.asarray(tbl.column("source").to_pylist())
        ul, il = np.unique(lang, return_inverse=True)
        us, isrc = np.unique(srcc, return_inverse=True)
        code = il * len(us) + isrc
        uc, cnt = np.unique(code, return_counts=True)
        return pa.table(
            {
                "lang": pa.array(ul[uc // len(us)], pa.string()),
                "source": pa.array(us[uc % len(us)], pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    obs = {(r["lang"], r["source"]): r["n"] for r in rows}
    langs = sorted({k[0] for k in obs})
    srcs = sorted({k[1] for k in obs})
    ln = {l: sum(v for k, v in obs.items() if k[0] == l) for l in langs}
    sn = {s: sum(v for k, v in obs.items() if k[1] == s) for s in srcs}
    N = sum(obs.values())
    out_l, out_s, out_n, out_e, out_r = [], [], [], [], []
    for l in langs:
        for s in srcs:
            n = obs.get((l, s), 0)
            e = (ln[l] * sn[s]) * 1.0 / N
            out_l.append(l)
            out_s.append(s)
            out_n.append(n)
            out_e.append(e)
            out_r.append((n - e) / np.sqrt(e))
    return pa.table(
        {
            "lang": pa.array(out_l, pa.string()),
            "source": pa.array(out_s, pa.string()),
            "n": pa.array(out_n, pa.int64()),
            "expected": pa.array(
                _round_half_away(np.array(out_e)), pa.float64()
            ),
            "resid": pa.array(
                _round_half_away(np.array(out_r)), pa.float64()
            ),
        }
    )


_LANG_SOURCE_SQL = """
WITH c AS (SELECT lang, source, COUNT(*) AS n FROM documents GROUP BY 1, 2),
l AS (SELECT lang, SUM(n) AS ln FROM c GROUP BY lang),
s AS (SELECT source, SUM(n) AS sn FROM c GROUP BY source),
g AS (SELECT SUM(n) AS N FROM c)
SELECT l.lang, s.source, CAST(COALESCE(c.n, 0) AS BIGINT) AS n,
       ROUND((l.ln * s.sn) * 1.0 / g.N, 6) AS expected,
       ROUND((COALESCE(c.n, 0) - (l.ln * s.sn) * 1.0 / g.N)
             / sqrt((l.ln * s.sn) * 1.0 / g.N), 6) AS resid
FROM l CROSS JOIN s
LEFT JOIN c ON c.lang = l.lang AND c.source = s.source, g
"""


def q_lang_confusion(sf_dir: str):
    """Labeled-vs-detected language confusion matrix: the n-gram-marker
    LanguageId (functions/text.py — 36 Arrow count_substring kernels per
    batch) against the corpus's own lang column. The calibration check
    run before trusting detector-driven filtering; off-diagonal mass is
    the mislabel/mixed-language rate. One streaming pass + one tiny
    (lang × lang_pred) groupby."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from signal_collect_ray.functions.text import LanguageId

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "text"],
    )
    out = ds.map_batches(LanguageId(), batch_format="pyarrow")

    def proj(tbl: pa.Table) -> pa.Table:
        return tbl.select(["lang", "lang_pred"])

    return (
        out.map_batches(proj, batch_format="pyarrow")
        .groupby(["lang", "lang_pred"])
        .aggregate(Count(alias_name="n"))
    )


def _lang_confusion_sql() -> str:
    return (
        f"WITH pred AS ({_lang_pred_sql()}) "
        "SELECT d.lang, pred.lang_pred, COUNT(*) AS n "
        "FROM documents d JOIN pred ON pred.doc_id = d.doc_id "
        "GROUP BY 1, 2"
    )


def q_centroid_distances(sf_dir: str):
    """Pairwise cosine similarity between per-label embedding centroids
    — the cluster-separation diagnostic behind SemDeDup-style pruning
    decisions (are two label populations near-duplicates in embedding
    space?). Centroids come from the distributed vector_mean_by_key
    fold; the pairwise step runs on the driver over the tiny
    (labels × dim) result."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import vector_mean_by_key

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["label", "embedding"],
    )
    rows = vector_mean_by_key(emb, "label").take_all()
    labels = sorted({r["label"] for r in rows})
    dim = max(r["pos"] for r in rows) + 1
    cent = {l: np.zeros(dim) for l in labels}
    for r in rows:
        cent[r["label"]][r["pos"]] = r["mean_val"]
    la, lb, cos = [], [], []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            va, vb = cent[a], cent[b]
            num = np.dot(va, vb)
            c = num / (np.sqrt(np.dot(va, va)) * np.sqrt(np.dot(vb, vb)))
            la.append(int(a))
            lb.append(int(b))
            cos.append(c)
    return pa.table(
        {
            "label_a": pa.array(la, pa.int64()),
            "label_b": pa.array(lb, pa.int64()),
            "cos": pa.array(
                _round_half_away(np.array(cos)), pa.float64()
            ),
        }
    )


_CENTROID_DIST_SQL = """
WITH c AS (SELECT label, r.pos AS pos,
           SUM(CAST(embedding[r.pos] AS DOUBLE)) / COUNT(*) AS v
           FROM embeddings,
           unnest(range(1, len(embedding) + 1)) AS r(pos)
           GROUP BY label, r.pos),
p AS (SELECT a.label AS la, b.label AS lb, SUM(a.v * b.v) AS num,
      sqrt(SUM(a.v * a.v)) AS na, sqrt(SUM(b.v * b.v)) AS nb
      FROM c a JOIN c b ON a.pos = b.pos AND a.label < b.label
      GROUP BY 1, 2)
SELECT CAST(la AS BIGINT) AS label_a, CAST(lb AS BIGINT) AS label_b,
       ROUND(num / (na * nb), 6) AS cos FROM p
"""


def q_source_dup_rates(sf_dir: str):
    """Per-source exact-duplicate rate: n_docs, distinct normalized
    fingerprints, dup_rate = 1 − distinct/n — which feeds are
    boilerplate-heavy and need aggressive dedup. Distinct-per-group via
    (source, fp) pre-dedup inside the fingerprint groupby (combiner
    shape: the second exchange only carries one row per distinct pair)."""
    import hashlib
    import re

    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "text"]
    )
    ws = re.compile(r"\s+")

    def fp(tbl: pa.Table) -> pa.Table:
        texts = tbl.column("text").to_pylist()
        out = [
            hashlib.md5(ws.sub(" ", t.lower()).strip().encode()).hexdigest()
            for t in texts
        ]
        return pa.table(
            {"source": tbl.column("source"), "fp": pa.array(out, pa.string())}
        )

    def dedup_pairs(tbl: pa.Table) -> pa.Table:
        # one row per distinct (source, fp) + the group's doc count
        srcs = np.asarray(tbl.column("source").to_pylist())
        us, inv = np.unique(srcs, return_inverse=True)
        cnt = np.bincount(inv)
        return pa.table(
            {
                "source": pa.array(us, pa.string()),
                "n_docs": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    per_fp = (
        ds.map_batches(fp, batch_format="pyarrow")
        .groupby("fp")
        .map_groups(dedup_pairs, batch_format="pyarrow")
    )
    rows = (
        per_fp.groupby("source")
        .aggregate(
            Count(alias_name="n_distinct"), Sum("n_docs", alias_name="n_docs")
        )
        .take_all()
    )
    src = [r["source"] for r in rows]
    nd = np.array([r["n_distinct"] for r in rows], dtype=np.int64)
    n = np.array([r["n_docs"] for r in rows], dtype=np.int64)
    rate = 1.0 - nd * 1.0 / n
    return pa.table(
        {
            "source": pa.array(src, pa.string()),
            "n_docs": pa.array(n, pa.int64()),
            "n_distinct": pa.array(nd, pa.int64()),
            "dup_rate": pa.array(_round_half_away(rate), pa.float64()),
        }
    )


_SOURCE_DUP_SQL = (
    "WITH f AS (SELECT source, "
    "md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS fp "
    "FROM documents), "
    "a AS (SELECT source, COUNT(*) AS n_docs, "
    "COUNT(DISTINCT fp) AS n_distinct FROM f GROUP BY source) "
    "SELECT source, CAST(n_docs AS BIGINT) AS n_docs, "
    "CAST(n_distinct AS BIGINT) AS n_distinct, "
    "ROUND(1.0 - n_distinct * 1.0 / n_docs, 6) AS dup_rate FROM a"
)


def q_random_robustness(sf_dir: str):
    """Random-failure robustness (the Albert-Jeong-Barabási control to
    hub_robustness's targeted attack): remove ~20% of vertices chosen
    by the deterministic Knuth hash (hash(vid) mod 100 < 20 — exactly
    SQL-mirrorable), rerun CC on the symmetrized remainder. Scale-free
    graphs survive random failure but shatter under hub removal; the
    pair of queries exhibits exactly that asymmetry."""
    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import ConnectedComponents

    key = (sf_dir, "random_robustness")
    out = _RESULT_CACHE.get(key)
    if out is not None:
        return out

    def drop_random(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)

        def dead(v: np.ndarray) -> np.ndarray:
            h = (v.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(
                1 << 32
            )
            return (h % np.uint64(100)) < 20

        keep = ~(dead(s) | dead(d))
        return tbl.filter(pa.array(keep))

    filtered = derived_edges_ds(sf_dir).map_batches(
        drop_random, batch_format="pyarrow"
    )
    g = Graph.build(
        sym_edges(filtered),
        _work_dir(sf_dir, "graph_rand_robust"),
        num_partitions=_P,
        dedup=True,
    )
    info = _engine(_CC_K).run(
        g,
        ConnectedComponents(),
        run_dir=_work_dir(sf_dir, "run_cc_rand_robust"),
        resume=False,
        checkpoint_interval=50,
    )
    t = info.state_table()
    lab = t.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    _u, counts = np.unique(lab, return_counts=True)
    out = pa.table(
        {
            "n_vertices": pa.array([len(lab)], pa.int64()),
            "n_components": pa.array([len(counts)], pa.int64()),
            "largest_component": pa.array(
                [int(counts.max()) if len(counts) else 0], pa.int64()
            ),
        }
    )
    _RESULT_CACHE[key] = out
    return out


def _random_robust_sql(k: int) -> str:
    dead = (
        "(((CAST({v} AS UBIGINT) * 2654435761) % 4294967296) % 100) < 20"
    )
    filtered = (
        f"WITH base AS ({_E_SQL}) SELECT src, dst FROM base "
        f"WHERE NOT ({dead.format(v='src')}) AND NOT ({dead.format(v='dst')})"
    )
    return (
        f"WITH cc AS ({_cc_sql(k, filtered)}) "
        "SELECT CAST(COUNT(*) AS BIGINT) AS n_vertices, "
        "CAST(COUNT(DISTINCT label) AS BIGINT) AS n_components, "
        "CAST(MAX(csize) AS BIGINT) AS largest_component "
        "FROM (SELECT label, COUNT(*) OVER (PARTITION BY label) AS csize "
        "FROM cc)"
    )


def q_regional_revenue(sf_dir: str):
    """TPC-H-Q5-flavored star join: revenue Σ extprice·(1−discount) per
    (region, order-year). The canonical mixed-join shape — the big-big
    lineitem⨝orders equi-join goes through the co-partitioned hash_join
    (no broadcast), the customer→nation→region dimension chain is
    broadcast once; one small final groupby."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import broadcast_join, hash_join

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def rev(tbl: pa.Table) -> pa.Table:
        p = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
        d = tbl.column("l_discount").to_numpy(zero_copy_only=False)
        # exact integer 10^-4-dollar units: prices/discounts are exact
        # 2-decimal values, so the distributed sum is order-independent
        # and can't straddle a cent-rounding boundary (the flake a
        # naive float SUM produces about 1 run in 50)
        units = np.round(p * 100.0).astype(np.int64) * np.round(
            (1.0 - d) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey"),
                "rev": pa.array(units, pa.int64()),
            }
        )

    li = li.map_batches(rev, batch_format="pyarrow")

    def ord_proj(tbl: pa.Table) -> pa.Table:
        yr = pc.year(tbl.column("o_orderdate"))
        return pa.table(
            {
                "l_orderkey": tbl.column("o_orderkey"),
                "o_custkey": tbl.column("o_custkey"),
                "yr": yr.cast(pa.int64()),
            }
        )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_proj, batch_format="pyarrow")

    j = hash_join(li, orders, on="l_orderkey")
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).rename_columns({"c_custkey": "o_custkey"})
    j = broadcast_join(j, cust, on="o_custkey")
    nation = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    ).rename_columns({"n_nationkey": "c_nationkey"})
    j = broadcast_join(j, nation, on="c_nationkey")
    region = rd.read_parquet(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    ).rename_columns({"r_regionkey": "n_regionkey"})
    j = broadcast_join(j, region, on="n_regionkey")
    agg = j.groupby(["r_name", "yr"]).aggregate(Sum("rev", alias_name="revenue"))

    def rnd(tbl: pa.Table) -> pa.Table:
        units = tbl.column("revenue").to_numpy(zero_copy_only=False)
        r = _round_half_away(units / 10000.0, 2)
        return pa.table(
            {
                "r_name": tbl.column("r_name"),
                "yr": tbl.column("yr"),
                "revenue": pa.array(r, pa.float64()),
            }
        )

    return agg.map_batches(rnd, batch_format="pyarrow")


_REGIONAL_REVENUE_SQL = (
    "SELECT r.r_name, CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS yr, "
    "ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT) "
    "* CAST(ROUND((1.0 - l.l_discount) * 100, 0) AS BIGINT)) / 10000.0, 2) "
    "AS revenue "
    "FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey "
    "JOIN customer c ON c.c_custkey = o.o_custkey "
    "JOIN nation n ON n.n_nationkey = c.c_nationkey "
    "JOIN region r ON r.r_regionkey = n.n_regionkey "
    "GROUP BY 1, 2"
)


def _li_rev_units(columns):
    """lineitem projected to exact integer 10^-4-dollar revenue units
    (`rev`) plus the requested passthrough columns — the shared exact-sum
    kernel of the TPC-H-shaped queries (order-independent distributed
    sums; see q_regional_revenue for the rounding analysis)."""

    def rev(tbl: pa.Table) -> pa.Table:
        p = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
        d = tbl.column("l_discount").to_numpy(zero_copy_only=False)
        units = np.round(p * 100.0).astype(np.int64) * np.round(
            (1.0 - d) * 100.0
        ).astype(np.int64)
        out = {c: tbl.column(c) for c in columns}
        out["rev"] = pa.array(units, pa.int64())
        return pa.table(out)

    return rev


def q_nation_trade_volume(sf_dir: str):
    """TPC-H-Q7-shaped bilateral trade volume: revenue per
    (supplier-nation, customer-nation, ship-year) for cross-nation
    shipments. Exercises the double-dimension-resolution join shape:
    the supplier→nation chain broadcasts onto the fact stream BEFORE
    the one big-big lineitem⨝orders exchange, the customer→nation
    chain broadcasts after — exactly one shuffle end to end."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import broadcast_join, hash_join

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
            "l_shipdate",
        ],
    )

    def proj(tbl: pa.Table) -> pa.Table:
        t = _li_rev_units(["l_orderkey", "l_suppkey"])(tbl)
        yr = pc.year(tbl.column("l_shipdate")).cast(pa.int64())
        return t.append_column("yr", yr)

    li = li.map_batches(proj, batch_format="pyarrow")
    supp = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    ).rename_columns({"s_suppkey": "l_suppkey"})
    li = broadcast_join(li, supp, on="l_suppkey")
    sn = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    ).rename_columns({"n_nationkey": "s_nationkey", "n_name": "supp_nation"})
    li = broadcast_join(li, sn, on="s_nationkey").select_columns(
        ["l_orderkey", "rev", "yr", "supp_nation"]
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    ).rename_columns({"o_orderkey": "l_orderkey"})
    j = hash_join(li, orders, on="l_orderkey")
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).rename_columns({"c_custkey": "o_custkey"})
    j = broadcast_join(j, cust, on="o_custkey")
    cn = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    ).rename_columns({"n_nationkey": "c_nationkey", "n_name": "cust_nation"})
    j = broadcast_join(j, cn, on="c_nationkey")

    def cross_only(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        return tbl.filter(
            pc2.invert(
                pc2.equal(tbl.column("supp_nation"), tbl.column("cust_nation"))
            )
        )

    agg = (
        j.map_batches(cross_only, batch_format="pyarrow")
        .groupby(["supp_nation", "cust_nation", "yr"])
        .aggregate(Sum("rev", alias_name="units"))
    )

    def rnd(tbl: pa.Table) -> pa.Table:
        units = tbl.column("units").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "supp_nation": tbl.column("supp_nation"),
                "cust_nation": tbl.column("cust_nation"),
                "yr": tbl.column("yr"),
                "revenue": pa.array(
                    _round_half_away(units / 10000.0, 2), pa.float64()
                ),
            }
        )

    return agg.map_batches(rnd, batch_format="pyarrow")


_NATION_TRADE_SQL = """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS yr,
       ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
                 * CAST(ROUND((1.0 - l.l_discount) * 100, 0) AS BIGINT))
             / 10000.0, 2) AS revenue
FROM lineitem l
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation ns ON ns.n_nationkey = s.s_nationkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation nc ON nc.n_nationkey = c.c_nationkey
WHERE ns.n_name <> nc.n_name
GROUP BY 1, 2, 3
"""


def q_market_share(sf_dir: str):
    """TPC-H-Q8-shaped market share: NATION_7 suppliers' yearly share
    of revenue from ASIA-region customers. The conditional-partial
    pattern — the share's numerator is a flag-masked copy of the exact
    integer revenue column computed in the SAME pass, so one groupby
    carries both sums and no second scan or join is needed."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import broadcast_join, hash_join

    TARGET = "NATION_7"
    REGION = "ASIA"

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        _li_rev_units(["l_orderkey", "l_suppkey"]), batch_format="pyarrow"
    )
    supp = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    ).rename_columns({"s_suppkey": "l_suppkey"})
    li = broadcast_join(li, supp, on="l_suppkey")
    sn = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    ).rename_columns({"n_nationkey": "s_nationkey", "n_name": "supp_nation"})
    li = broadcast_join(li, sn, on="s_nationkey")

    def flag(tbl: pa.Table) -> pa.Table:
        rev = tbl.column("rev").to_numpy(zero_copy_only=False)
        is_t = pc.equal(tbl.column("supp_nation"), TARGET).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "l_orderkey": tbl.column("l_orderkey"),
                "rev": tbl.column("rev"),
                "rev_target": pa.array(
                    np.where(is_t, rev, 0), pa.int64()
                ),
            }
        )

    li = li.map_batches(flag, batch_format="pyarrow")

    def ord_proj(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": tbl.column("o_orderkey"),
                "o_custkey": tbl.column("o_custkey"),
                "yr": pc.year(tbl.column("o_orderdate")).cast(pa.int64()),
            }
        )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_proj, batch_format="pyarrow")
    j = hash_join(li, orders, on="l_orderkey")
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).rename_columns({"c_custkey": "o_custkey"})
    j = broadcast_join(j, cust, on="o_custkey")
    cn = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    ).rename_columns({"n_nationkey": "c_nationkey"})
    j = broadcast_join(j, cn, on="c_nationkey")
    reg = rd.read_parquet(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    ).rename_columns({"r_regionkey": "n_regionkey"})
    j = broadcast_join(j, reg, on="n_regionkey")

    def in_region(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        return tbl.filter(pc2.equal(tbl.column("r_name"), REGION))

    agg = (
        j.map_batches(in_region, batch_format="pyarrow")
        .groupby("yr")
        .aggregate(
            Sum("rev", alias_name="units"),
            Sum("rev_target", alias_name="units_target"),
        )
    )

    def share(tbl: pa.Table) -> pa.Table:
        u = tbl.column("units").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        ut = tbl.column("units_target").to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        return pa.table(
            {
                "yr": tbl.column("yr"),
                "mkt_share": pa.array(
                    _round_half_away(ut / u, 6), pa.float64()
                ),
                "total_revenue": pa.array(
                    _round_half_away(
                        tbl.column("units").to_numpy(zero_copy_only=False)
                        / 10000.0,
                        2,
                    ),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(share, batch_format="pyarrow")


_MARKET_SHARE_SQL = """
WITH f AS (
  SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS yr,
         CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
         * CAST(ROUND((1.0 - l.l_discount) * 100, 0) AS BIGINT) AS units,
         CASE WHEN ns.n_name = 'NATION_7' THEN 1 ELSE 0 END AS is_target
  FROM lineitem l
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation ns ON ns.n_nationkey = s.s_nationkey
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation nc ON nc.n_nationkey = c.c_nationkey
  JOIN region r ON r.r_regionkey = nc.n_regionkey
  WHERE r.r_name = 'ASIA')
SELECT yr,
       ROUND(CAST(SUM(units * is_target) AS DOUBLE)
             / CAST(SUM(units) AS DOUBLE), 6) AS mkt_share,
       ROUND(SUM(units) / 10000.0, 2) AS total_revenue
FROM f GROUP BY 1
"""


def q_part_revenue_share(sf_dir: str):
    """TPC-H-Q11-shaped important parts: parts whose revenue exceeds
    0.065% of GLOBAL revenue. The aggregate-broadcast-filter pattern:
    the global total comes from tiny per-block partials (O(blocks)
    rows to the driver, never the group table), and the HAVING filter
    runs distributed over the grouped dataset against that broadcast
    scalar — exact integer comparison, no float threshold wobble."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    ).map_batches(_li_rev_units(["l_partkey"]), batch_format="pyarrow")

    def partial_total(tbl: pa.Table) -> pa.Table:
        s = tbl.column("rev").to_numpy(zero_copy_only=False)
        return pa.table({"t": pa.array([int(s.sum())], pa.int64())})

    parts = li.map_batches(partial_total, batch_format="pyarrow").take_all()
    total = sum(r["t"] for r in parts)

    agg = li.groupby("l_partkey").aggregate(Sum("rev", alias_name="units"))

    def having(tbl: pa.Table) -> pa.Table:
        u = tbl.column("units").to_numpy(zero_copy_only=False)
        keep = u * 20000 > 13 * total  # units > 0.065% of total, exactly
        t = tbl.filter(pa.array(keep))
        uk = t.column("units").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_partkey": t.column("l_partkey"),
                "revenue": pa.array(
                    _round_half_away(uk / 10000.0, 2), pa.float64()
                ),
                "share": pa.array(
                    _round_half_away(uk / float(total), 6), pa.float64()
                ),
            }
        )

    return agg.map_batches(having, batch_format="pyarrow")


_PART_REVENUE_SHARE_SQL = """
WITH pr AS (
  SELECT l_partkey,
         SUM(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)
             * CAST(ROUND((1.0 - l_discount) * 100, 0) AS BIGINT)) AS u
  FROM lineitem GROUP BY 1),
t AS (SELECT SUM(u) AS tot FROM pr)
SELECT l_partkey, ROUND(u / 10000.0, 2) AS revenue,
       ROUND(CAST(u AS DOUBLE) / CAST(tot AS DOUBLE), 6) AS share
FROM pr, t WHERE u * 20000 > 13 * tot
"""


def q_top_supplier(sf_dir: str):
    """TPC-H-Q15-shaped top supplier: the supplier(s) with maximum
    revenue over H1-1996 shipments. Global-max-filter pattern: the max
    comes from per-block partial maxima over the grouped dataset
    (O(blocks) driver rows), the equality filter runs distributed, and
    only the winners join the supplier dimension."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import broadcast_join

    lo = int(
        (np.datetime64("1996-01-01") - np.datetime64("1970-01-01"))
        / np.timedelta64(1, "us")
    )
    hi = int(
        (np.datetime64("1996-07-01") - np.datetime64("1970-01-01"))
        / np.timedelta64(1, "us")
    )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def window(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("l_shipdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = (ts >= lo) & (ts < hi)
        return _li_rev_units(["l_suppkey"])(tbl.filter(pa.array(keep)))

    agg = (
        li.map_batches(window, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("rev", alias_name="units"))
    )

    def partial_max(tbl: pa.Table) -> pa.Table:
        u = tbl.column("units").to_numpy(zero_copy_only=False)
        m = int(u.max()) if len(u) else 0
        return pa.table({"m": pa.array([m], pa.int64())})

    parts = agg.map_batches(partial_max, batch_format="pyarrow").take_all()
    best = max((r["m"] for r in parts), default=0)

    def winners(tbl: pa.Table) -> pa.Table:
        u = tbl.column("units").to_numpy(zero_copy_only=False)
        t = tbl.filter(pa.array(u == best))
        return pa.table(
            {
                "s_suppkey": t.column("l_suppkey"),
                "total_revenue": pa.array(
                    _round_half_away(
                        t.column("units").to_numpy(zero_copy_only=False)
                        / 10000.0,
                        2,
                    ),
                    pa.float64(),
                ),
            }
        )

    win = agg.map_batches(winners, batch_format="pyarrow")
    names = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"],
    )
    return broadcast_join(win, names, on="s_suppkey").select_columns(
        ["s_suppkey", "s_name", "total_revenue"]
    )


_TOP_SUPPLIER_SQL = """
WITH r AS (
  SELECT l_suppkey,
         SUM(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)
             * CAST(ROUND((1.0 - l_discount) * 100, 0) AS BIGINT)) AS u
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-07-01'
  GROUP BY 1)
SELECT s.s_suppkey, s.s_name, ROUND(r.u / 10000.0, 2) AS total_revenue
FROM r JOIN supplier s ON s.s_suppkey = r.l_suppkey
WHERE r.u = (SELECT MAX(u) FROM r)
"""


def q_priority_returned_orders(sf_dir: str):
    """TPC-H-Q4-shaped EXISTS semi-join: 1996 orders having at least
    one returned lineitem, counted per priority. The existence test is
    the distinct-key semi-join idiom — lineitem dedups its returned
    orderkeys per block BEFORE the exchange (the semi side never ships
    duplicates), then hash_join(how='semi') co-partitions once; the
    5-key count is a per-block partial + tiny fold."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from signal_collect_ray.functions.joins import hash_join

    lo = int(
        (np.datetime64("1996-01-01") - np.datetime64("1970-01-01"))
        / np.timedelta64(1, "us")
    )
    hi = int(
        (np.datetime64("1997-01-01") - np.datetime64("1970-01-01"))
        / np.timedelta64(1, "us")
    )

    def win(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("o_orderdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        t = tbl.filter(pa.array((ts >= lo) & (ts < hi)))
        return pa.table(
            {
                "orderkey": t.column("o_orderkey"),
                "o_orderpriority": t.column("o_orderpriority"),
            }
        )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(win, batch_format="pyarrow")

    def returned_keys(tbl: pa.Table) -> pa.Table:
        rf = np.asarray(tbl.column("l_returnflag").to_pylist(), dtype=object)
        ok = tbl.column("l_orderkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {"orderkey": pa.array(np.unique(ok[rf == "R"]), pa.int64())}
        )

    ret = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag"],
    ).map_batches(returned_keys, batch_format="pyarrow")
    semi = hash_join(orders, ret, on="orderkey", how="semi")
    return semi.groupby("o_orderpriority").aggregate(
        Count(alias_name="order_count")
    )


_PRIORITY_RETURNED_SQL = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY 1
"""


def q_customer_order_distribution(sf_dir: str):
    """TPC-H-Q13-shaped order-count distribution: how many customers
    placed exactly k non-urgent orders, INCLUDING the zero bucket. The
    left-outer-join-then-histogram shape without the outer join: the
    per-custkey counts and the count-of-counts are two tiny grouped
    folds, and the zero bucket is arithmetic — total customers minus
    Σ custdist — so no customer row ever crosses the wire."""
    import ray.data as rd
    from ray.data.aggregate import Count

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderpriority"],
    )

    def nonurgent(tbl: pa.Table) -> pa.Table:
        pr = np.asarray(
            tbl.column("o_orderpriority").to_pylist(), dtype=object
        )
        t = tbl.filter(pa.array(pr != "1-URGENT"))
        return pa.table({"o_custkey": t.column("o_custkey")})

    per_cust = (
        orders.map_batches(nonurgent, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Count(alias_name="c_count"))
    )
    dist = (
        per_cust.groupby("c_count")
        .aggregate(Count(alias_name="custdist"))
        .take_all()
    )  # O(distinct order counts) — a few dozen rows
    n_cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    ).count()
    n_with = sum(r["custdist"] for r in dist)
    counts = [int(r["c_count"]) for r in dist]
    dists = [int(r["custdist"]) for r in dist]
    if n_cust - n_with > 0:
        counts.append(0)
        dists.append(int(n_cust - n_with))
    return pa.table(
        {
            "c_count": pa.array(counts, pa.int64()),
            "custdist": pa.array(dists, pa.int64()),
        }
    )


_CUST_ORDER_DIST_SQL = """
WITH c AS (SELECT o_custkey, COUNT(*) AS c_count FROM orders
           WHERE o_orderpriority <> '1-URGENT' GROUP BY 1)
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
FROM (SELECT cu.c_custkey, COALESCE(c.c_count, 0) AS c_count
      FROM customer cu LEFT JOIN c ON c.o_custkey = cu.c_custkey)
GROUP BY 1
"""


def q_small_quantity_revenue(sf_dir: str):
    """TPC-H-Q17-shaped correlated-average gate: yearly revenue from
    Brand#1 lineitems whose quantity is below 20% of that part's own
    average quantity. The correlated scalar subquery becomes a
    two-pass shape over the same filtered stream: pass 1 folds exact
    per-part (Σqty, n) partials, pass 2 re-joins them through the
    capped-broadcast idiom and applies the gate as the INTEGER
    predicate 5·q·n < Σqty (quantities are integral), so the oracle
    can't diverge on a float-division boundary."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import capped_broadcast_join

    brand_keys = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"]
    )

    def brand_only(tbl: pa.Table) -> pa.Table:
        b = np.asarray(tbl.column("p_brand").to_pylist(), dtype=object)
        t = tbl.filter(pa.array(b == "Brand#1"))
        return pa.table({"l_partkey": t.column("p_partkey")})

    brand_keys = brand_keys.map_batches(brand_only, batch_format="pyarrow")

    def proj(tbl: pa.Table) -> pa.Table:
        q = np.rint(
            tbl.column("l_quantity").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        cents = np.rint(
            tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "l_partkey": tbl.column("l_partkey"),
                "q": pa.array(q, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    ).map_batches(proj, batch_format="pyarrow")
    li = capped_broadcast_join(
        li, brand_keys, on="l_partkey", max_broadcast_bytes=_LOOKUP_CAP()
    )

    def qty_partial(tbl: pa.Table) -> pa.Table:
        pk = tbl.column("l_partkey").to_numpy(zero_copy_only=False)
        q = tbl.column("q").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(pk, return_inverse=True)
        return pa.table(
            {
                "l_partkey": pa.array(uniq, pa.int64()),
                "sq": pa.array(
                    np.bincount(inv, weights=q).astype(np.int64), pa.int64()
                ),
                "n": pa.array(
                    np.bincount(inv, minlength=len(uniq)).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    stats = (
        li.map_batches(qty_partial, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("sq", alias_name="sq"), Sum("n", alias_name="n"))
    )
    gated = capped_broadcast_join(
        li, stats, on="l_partkey", max_broadcast_bytes=_LOOKUP_CAP()
    )

    def gate_sum(tbl: pa.Table) -> pa.Table:
        q = tbl.column("q").to_numpy(zero_copy_only=False)
        n = tbl.column("n").to_numpy(zero_copy_only=False)
        sq = tbl.column("sq").to_numpy(zero_copy_only=False)
        cents = tbl.column("cents").to_numpy(zero_copy_only=False)
        keep = 5 * q * n < sq
        return pa.table(
            {"c": pa.array([int(cents[keep].sum())], pa.int64())}
        )

    parts = gated.map_batches(gate_sum, batch_format="pyarrow").take_all()
    total = sum(int(r["c"]) for r in parts)
    return pa.table(
        {
            "avg_yearly": pa.array(
                [float(_round_half_away(total / 100.0 / 7.0, 2))],
                pa.float64(),
            )
        }
    )


_SMALL_QTY_REV_SQL = """
WITH b AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#1'),
l AS (SELECT l_partkey, CAST(ROUND(l_quantity, 0) AS BIGINT) AS q,
             CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT) AS cents
      FROM lineitem JOIN b ON b.p_partkey = l_partkey),
s AS (SELECT l_partkey, SUM(q) AS sq, COUNT(*) AS n FROM l GROUP BY 1)
SELECT ROUND(SUM(l.cents) / 100.0 / 7.0, 2) AS avg_yearly
FROM l JOIN s ON s.l_partkey = l.l_partkey
WHERE 5 * l.q * s.n < s.sq
"""


def q_waiting_suppliers(sf_dir: str):
    """TPC-H-Q21-shaped sole-blame analysis: for finalized orders with
    ≥2 distinct suppliers where EXACTLY ONE supplier shipped late
    (>60 days after the order date), count per supplier how often it
    was that one — top 20. The multi-EXISTS/NOT-EXISTS pair becomes
    one co-partitioned orderkey exchange: per-block dedup of
    (order, supplier, late) triples, a hash-partitioned vectorized
    group kernel (np.unique/reduceat per PARTITION, not per order),
    and a per-supplier fold; supplier names broadcast at the end."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import broadcast_join, hash_join
    from signal_collect_ray.util import part_of

    late_us = int(np.timedelta64(60, "D") / np.timedelta64(1, "us"))

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )

    def li_proj(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": tbl.column("l_orderkey"),
                "l_suppkey": tbl.column("l_suppkey"),
                "ship_us": tbl.column("l_shipdate").cast(pa.int64()),
            }
        )

    def ord_proj(tbl: pa.Table) -> pa.Table:
        st = np.asarray(
            tbl.column("o_orderstatus").to_pylist(), dtype=object
        )
        t = tbl.filter(pa.array(st == "F"))
        return pa.table(
            {
                "orderkey": t.column("o_orderkey"),
                "odate_us": t.column("o_orderdate").cast(pa.int64()),
            }
        )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    ).map_batches(ord_proj, batch_format="pyarrow")
    j = hash_join(
        li.map_batches(li_proj, batch_format="pyarrow"), orders, on="orderkey"
    )

    def triples(tbl: pa.Table) -> pa.Table:
        ok = tbl.column("orderkey").to_numpy(zero_copy_only=False)
        sk = tbl.column("l_suppkey").to_numpy(zero_copy_only=False)
        late = (
            tbl.column("ship_us").to_numpy(zero_copy_only=False)
            > tbl.column("odate_us").to_numpy(zero_copy_only=False) + late_us
        ).astype(np.int64)
        trip = np.unique(np.stack([ok, sk, late], axis=1), axis=0)
        return pa.table(
            {
                "__opart": pa.array(part_of(trip[:, 0], 64), pa.int32()),
                "ok": pa.array(trip[:, 0], pa.int64()),
                "sk": pa.array(trip[:, 1], pa.int64()),
                "late": pa.array(trip[:, 2], pa.int64()),
            }
        )

    def blame(tbl: pa.Table) -> pa.Table:
        # one vectorized pass over the whole orderkey partition
        trip = np.unique(
            np.stack(
                [
                    tbl.column("ok").to_numpy(zero_copy_only=False),
                    tbl.column("sk").to_numpy(zero_copy_only=False),
                    tbl.column("late").to_numpy(zero_copy_only=False),
                ],
                axis=1,
            ),
            axis=0,
        )
        # distinct (order, supplier) pairs and distinct late pairs
        pairs = np.unique(trip[:, :2], axis=0)
        lpairs = np.unique(trip[trip[:, 2] == 1][:, :2], axis=0)
        oks, n_supp = np.unique(pairs[:, 0], return_counts=True)
        loks, n_late = np.unique(lpairs[:, 0], return_counts=True)
        multi = oks[n_supp >= 2]
        sole = loks[n_late == 1]
        good = np.intersect1d(multi, sole)
        mask = np.isin(lpairs[:, 0], good)
        winners = lpairs[mask][:, 1]
        sks, cnt = np.unique(winners, return_counts=True)
        return pa.table(
            {
                "s_suppkey": pa.array(sks, pa.int64()),
                "numwait": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    per_supp = (
        j.map_batches(triples, batch_format="pyarrow")
        .groupby("__opart")
        .map_groups(blame, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("numwait", alias_name="numwait"))
    )
    names = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"],
    )
    out = broadcast_join(per_supp, names, on="s_suppkey")
    return (
        out.select_columns(["s_name", "numwait"])
        .sort(["numwait", "s_name"], descending=[True, False])
        .limit(20)
    )


_WAITING_SUPPLIERS_SQL = """
WITH j AS (
  SELECT l.l_orderkey AS ok, l.l_suppkey AS sk,
         (l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY) AS late
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
  WHERE o.o_orderstatus = 'F'),
p AS (SELECT DISTINCT ok, sk FROM j),
ns AS (SELECT ok, COUNT(*) AS n FROM p GROUP BY 1),
lp AS (SELECT DISTINCT ok, sk FROM j WHERE late),
nl AS (SELECT ok, COUNT(*) AS nlate FROM lp GROUP BY 1)
SELECT s.s_name, CAST(COUNT(*) AS BIGINT) AS numwait
FROM lp JOIN ns USING (ok) JOIN nl USING (ok)
JOIN supplier s ON s.s_suppkey = lp.sk
WHERE ns.n >= 2 AND nl.nlate = 1
GROUP BY 1 ORDER BY numwait DESC, s_name LIMIT 20
"""


def q_idle_rich_customers(sf_dir: str):
    """TPC-H-Q22-shaped anti-join under a global scalar: customers
    whose balance beats the all-positive-balance average yet placed no
    order in the final year, grouped by nation. The global average is
    two exact integers (Σcents, n) folded from per-block partials and
    applied as the integer predicate cents·n > Σcents (no float
    division on the filter boundary); the NOT-EXISTS is the dedup-then
    -hash_join(how='anti') idiom on recent orderer keys."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import hash_join

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    )

    def cents_proj(tbl: pa.Table) -> pa.Table:
        c = np.rint(
            tbl.column("c_acctbal").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "custkey": tbl.column("c_custkey"),
                "c_nationkey": tbl.column("c_nationkey"),
                "cents": pa.array(c, pa.int64()),
            }
        )

    cc = cust.map_batches(cents_proj, batch_format="pyarrow")

    def pos_partial(tbl: pa.Table) -> pa.Table:
        c = tbl.column("cents").to_numpy(zero_copy_only=False)
        pos = c[c > 0]
        return pa.table(
            {
                "s": pa.array([int(pos.sum())], pa.int64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    parts = cc.map_batches(pos_partial, batch_format="pyarrow").take_all()
    s_tot = sum(int(r["s"]) for r in parts)
    n_tot = sum(int(r["n"]) for r in parts)

    def rich(tbl: pa.Table) -> pa.Table:
        c = tbl.column("cents").to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array(c * n_tot > s_tot))

    lo = int(
        (np.datetime64("2000-08-01") - np.datetime64("1970-01-01"))
        / np.timedelta64(1, "us")
    )

    def recent_keys(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("o_orderdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        ck = tbl.column("o_custkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {"custkey": pa.array(np.unique(ck[ts >= lo]), pa.int64())}
        )

    recent = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate"],
    ).map_batches(recent_keys, batch_format="pyarrow")
    idle = hash_join(
        cc.map_batches(rich, batch_format="pyarrow"),
        recent,
        on="custkey",
        how="anti",
    )

    def nation_partial(tbl: pa.Table) -> pa.Table:
        nk = tbl.column("c_nationkey").to_numpy(zero_copy_only=False)
        c = tbl.column("cents").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(nk, return_inverse=True)
        return pa.table(
            {
                "c_nationkey": pa.array(uniq, pa.int64()),
                "numcust": pa.array(
                    np.bincount(inv, minlength=len(uniq)).astype(np.int64),
                    pa.int64(),
                ),
                "cents": pa.array(
                    np.bincount(inv, weights=c).astype(np.int64), pa.int64()
                ),
            }
        )

    agg = (
        idle.map_batches(nation_partial, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(
            Sum("numcust", alias_name="numcust"),
            Sum("cents", alias_name="cents"),
        )
    )

    def rnd(tbl: pa.Table) -> pa.Table:
        c = tbl.column("cents").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c_nationkey": tbl.column("c_nationkey"),
                "numcust": tbl.column("numcust"),
                "totacctbal": pa.array(
                    _round_half_away(c / 100.0, 2), pa.float64()
                ),
            }
        )

    return agg.map_batches(rnd, batch_format="pyarrow")


_IDLE_RICH_SQL = """
WITH s AS (SELECT SUM(CAST(ROUND(c_acctbal * 100, 0) AS BIGINT)) AS sc,
                  COUNT(*) AS n
           FROM customer
           WHERE CAST(ROUND(c_acctbal * 100, 0) AS BIGINT) > 0)
SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS numcust,
       ROUND(SUM(CAST(ROUND(c_acctbal * 100, 0) AS BIGINT)) / 100.0, 2)
         AS totacctbal
FROM customer, s
WHERE CAST(ROUND(c_acctbal * 100, 0) AS BIGINT) * s.n > s.sc
  AND c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderdate >= TIMESTAMP '2000-08-01')
GROUP BY 1
"""


def q_trending_event_types(sf_dir: str):
    """Top-3 event types per hour window by count (windowed grouped
    top-k, the trending-now operator): one (window, type) count
    exchange, then a per-window vectorized rank inside map_groups —
    the per-group sort touches only the tiny (window × type) domain."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"]
    )
    HOUR_US = 3_600_000_000

    def win(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "window_us": pa.array(ts - ts % HOUR_US, pa.int64()),
                "event_type": tbl.column("event_type"),
            }
        )

    counts = (
        ds.map_batches(win, batch_format="pyarrow")
        .groupby(["window_us", "event_type"])
        .aggregate(Count(alias_name="n"))
    )

    def topk(tbl: pa.Table) -> pa.Table:
        n = tbl.column("n").to_numpy(zero_copy_only=False)
        et = np.asarray(tbl.column("event_type").to_pylist())
        order = np.lexsort((et, -n))[:3]
        return pa.table(
            {
                "window_us": tbl.column("window_us").take(
                    pa.array(order, pa.int64())
                ),
                "event_type": pa.array(et[order], pa.string()),
                "n": pa.array(n[order].astype(np.int64), pa.int64()),
                "rnk": pa.array(np.arange(1, len(order) + 1), pa.int64()),
            }
        )

    return counts.groupby("window_us").map_groups(topk, batch_format="pyarrow")


_TRENDING_SQL = """
WITH c AS (SELECT epoch_us(time_bucket(INTERVAL 1 HOUR, ts)) AS window_us,
           event_type, COUNT(*) AS n FROM events GROUP BY 1, 2),
r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY window_us
      ORDER BY n DESC, event_type) AS rnk FROM c)
SELECT window_us, event_type, CAST(n AS BIGINT) AS n, CAST(rnk AS BIGINT) AS rnk
FROM r WHERE rnk <= 3
"""


_FRONTIER_V = 400  # vids >= this never crawl: dst-only frontier pages


def q_dangling_mass(sf_dir: str):
    """Dangling-vertex analysis at PageRank k=4 over the crawl-frontier
    graph (only pages with vid < 400 have been crawled, so their
    out-links exist; vids ≥ 400 are discovered-but-uncrawled dst-only
    pages — exactly what dangling mass means in a live crawl): count of
    zero-out-degree vertices and their share of total rank mass. Sizes
    the dangling-redistribution question the reference's PageRank (like
    ours, faithfully) does NOT handle (PageRank.scala:31-70 has no
    dangling term). One filtered build + engine PR run, two scalar
    folds."""
    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import PageRank

    def flt(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array(s < _FRONTIER_V))

    edges = derived_edges_ds(sf_dir).map_batches(flt, batch_format="pyarrow")
    g = Graph.build(
        edges, _work_dir(sf_dir, "graph_frontier"), num_partitions=_P
    )
    info = _engine(4, eps=0.0).run(
        g,
        PageRank(),
        run_dir=_work_dir(sf_dir, "run_pr_frontier"),
        resume=False,
        checkpoint_interval=50,
    )
    # the engine's state shards already carry out_degree — one
    # streaming pass of per-block partials, no O(V) driver broadcast
    def partial(tbl: pa.Table) -> pa.Table:
        rank = tbl.column("state").to_numpy(zero_copy_only=False)
        od = tbl.column("out_degree").to_numpy(zero_copy_only=False)
        dang = od == 0
        return pa.table(
            {
                "n_dangling": pa.array([int(dang.sum())], pa.int64()),
                "mass": pa.array([float(rank[dang].sum())], pa.float64()),
                "total": pa.array([float(rank.sum())], pa.float64()),
            }
        )

    parts = info.final_state_ds().map_batches(
        partial, batch_format="pyarrow"
    ).take_all()
    n_dang = sum(r["n_dangling"] for r in parts)
    mass = sum(r["mass"] for r in parts)
    total = sum(r["total"] for r in parts)
    return pa.table(
        {
            "n_dangling": pa.array([int(n_dang)], pa.int64()),
            "mass": pa.array(
                [float(_round_half_away(np.array([mass]), 4)[0])], pa.float64()
            ),
            "share": pa.array(
                [float(_round_half_away(np.array([mass / total]), 6)[0])],
                pa.float64(),
            ),
        }
    )


def _dangling_sql() -> str:
    e2 = f"SELECT src, dst FROM ({_E_SQL}) WHERE src < {_FRONTIER_V}"
    raw = _pr_sql(4, edges_sql=e2).replace(
        "SELECT vid, ROUND(r, 6) AS rank FROM r4", "SELECT vid, r FROM r4"
    )
    return (
        f"WITH pr AS ({raw}), "
        "dang AS (SELECT pr.vid, pr.r FROM pr WHERE pr.vid NOT IN "
        f"(SELECT src FROM ({e2}))) "
        "SELECT CAST((SELECT COUNT(*) FROM dang) AS BIGINT) AS n_dangling, "
        "ROUND(COALESCE((SELECT SUM(r) FROM dang), 0), 4) AS mass, "
        "ROUND(COALESCE((SELECT SUM(r) FROM dang), 0) "
        "/ (SELECT SUM(r) FROM pr), 6) AS share"
    )


def q_lang_token_rates(sf_dir: str):
    """Per-language tokenizer-rate profile: documents, characters,
    whitespace tokens and tokens-per-kilochar — the fertility statistic
    that sizes token budgets per language split. Per-block vectorized
    partials, one tiny groupby."""
    import re

    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["lang", "text", "n_chars"],
    )
    tok = re.compile(r"\S+")

    def partial(tbl: pa.Table) -> pa.Table:
        lang = np.asarray(tbl.column("lang").to_pylist())
        texts = tbl.column("text").to_pylist()
        nch = tbl.column("n_chars").to_numpy(zero_copy_only=False)
        ntok = np.array([len(tok.findall(t)) for t in texts], dtype=np.int64)
        ul, inv = np.unique(lang, return_inverse=True)
        return pa.table(
            {
                "lang": pa.array(ul, pa.string()),
                "n_docs": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "n_chars": pa.array(
                    np.bincount(inv, weights=nch).astype(np.int64), pa.int64()
                ),
                "n_tokens": pa.array(
                    np.bincount(inv, weights=ntok).astype(np.int64), pa.int64()
                ),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_chars", alias_name="n_chars"),
            Sum("n_tokens", alias_name="n_tokens"),
        )
        .take_all()
    )
    lang = [r["lang"] for r in rows]
    nd = np.array([r["n_docs"] for r in rows], dtype=np.int64)
    nc = np.array([r["n_chars"] for r in rows], dtype=np.int64)
    nt = np.array([r["n_tokens"] for r in rows], dtype=np.int64)
    rate = nt * 1000.0 / nc
    return pa.table(
        {
            "lang": pa.array(lang, pa.string()),
            "n_docs": pa.array(nd, pa.int64()),
            "n_chars": pa.array(nc, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "tokens_per_kchar": pa.array(
                _round_half_away(rate), pa.float64()
            ),
        }
    )


_LANG_TOKEN_RATES_SQL = """
WITH f AS (SELECT lang, n_chars,
           length(regexp_extract_all(text, '\\S+')) AS n_tokens
           FROM documents),
a AS (SELECT lang, COUNT(*) AS n_docs, SUM(n_chars) AS n_chars,
      SUM(n_tokens) AS n_tokens FROM f GROUP BY lang)
SELECT lang, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(n_chars AS BIGINT) AS n_chars,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       ROUND(n_tokens * 1000.0 / n_chars, 6) AS tokens_per_kchar
FROM a
"""


def q_session_length_histogram(sf_dir: str):
    """Histogram of session sizes (sessions per n_events bucket) from
    the 4-hour-gap sessionizer (functions/windows.py) — the engagement-
    depth distribution. The sessionizer's one exchange plus a tiny
    (n_events → count) fold."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from signal_collect_ray.functions.windows import sessionize

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "value"],
    )
    sess = sessionize(ds)

    def proj(tbl: pa.Table) -> pa.Table:
        return pa.table({"n_events": tbl.column("n_events")})

    out = (
        sess.map_batches(proj, batch_format="pyarrow")
        .groupby("n_events")
        .aggregate(Count(alias_name="n_sessions"))
    )

    def fin(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_events": tbl.column("n_events").cast(pa.int64()),
                "n_sessions": tbl.column("n_sessions").cast(pa.int64()),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


_SESSION_HIST_SQL = """
WITH o AS (SELECT user_id, ts, CASE WHEN
           epoch(ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts))
           > 14400 THEN 1 ELSE 0 END AS brk FROM events),
s AS (SELECT user_id, SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
      ROWS UNBOUNDED PRECEDING) AS session FROM o),
c AS (SELECT user_id, session, COUNT(*) AS n_events FROM s GROUP BY 1, 2)
SELECT CAST(n_events AS BIGINT) AS n_events,
       CAST(COUNT(*) AS BIGINT) AS n_sessions FROM c GROUP BY n_events
"""


_WL_K = 3


def q_wl_refinement(sf_dir: str):
    """1-dimensional Weisfeiler-Lehman color refinement (k=3 rounds)
    over in-neighborhoods: color_{i+1}(v) = class of (color_i(v),
    multiset of in-neighbor colors), classes canonically labeled by
    their minimum member vid — the graph-fingerprint / GNN-
    expressiveness primitive (Weisfeiler & Lehman 1968; public). Per
    round: one co-partitioned (dst-grouped) exchange computes each
    vertex's signature from the broadcast color vector (byte-capped
    idiom — co-partitioned join fallback at billion-vertex scale), one
    tiny unique-fold maps signatures to min-vid class labels."""
    import hashlib

    from ray.data.aggregate import Min

    from signal_collect_ray.functions.joins import capped_broadcast_join
    from signal_collect_ray.util import part_of

    def _sig64(payload: str) -> int:
        # SIGNED view of the 64-bit digest — Ray Data's groupby folds
        # go through Python ints and overflow on uint64
        return int.from_bytes(
            hashlib.md5(payload.encode()).digest()[:8], "big", signed=True
        )

    edges = (
        derived_edges_ds(sf_dir)
        .select_columns(["src", "dst"])
        .materialize()  # reused every round
    )

    def zero_color(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vid": tbl.column("vid"),
                "color": pa.array(np.zeros(len(tbl), np.int64), pa.int64()),
            }
        )

    # colors live as a DISTRIBUTED (vid, color) table end-to-end; the
    # driver never holds the color vector
    colors = (
        _graph(sf_dir).vertices_ds().select_columns(["vid"])
        .map_batches(zero_color, batch_format="pyarrow")
    )

    def as_lookup(key: str, out: str):
        def fn(tbl: pa.Table) -> pa.Table:
            return pa.table({key: tbl.column("vid"), out: tbl.column("color")})

        return fn

    def sig_group(tbl: pa.Table) -> pa.Table:
        # all in-edges of each dst are co-partitioned here: sort by
        # (dst, src color), hash each contiguous multiset slice
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        cs = tbl.column("csrc").to_numpy(zero_copy_only=False)
        cd = tbl.column("cdst").to_numpy(zero_copy_only=False)
        order = np.lexsort((cs, d))
        d_s, c_s, own = d[order], cs[order], cd[order]
        bounds = np.flatnonzero(
            np.concatenate([[True], d_s[1:] != d_s[:-1]])
        )
        ends = np.append(bounds[1:], len(d_s))
        out_v = d_s[bounds]
        out_sig = np.empty(len(bounds), dtype=np.int64)
        for j, (b, e) in enumerate(zip(bounds, ends)):
            payload = f"{own[b]}|" + ",".join(map(str, c_s[b:e]))
            out_sig[j] = np.int64(_sig64(payload))
        return pa.table(
            {
                "vid": pa.array(out_v, pa.int64()),
                "sig": pa.array(out_sig, pa.int64()),
            }
        )

    def keyed(tbl: pa.Table) -> pa.Table:
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "gpart", pa.array(part_of(d, 32), pa.int32())
        )

    def fill_empty(tbl: pa.Table) -> pa.Table:
        # vertices with no in-edges: signature (own color, empty set).
        # fill_null(0) BEFORE to_numpy — a nulled uint64 column would
        # otherwise decay to float64 and corrupt 64-bit signatures
        import pyarrow.compute as pc

        vid = tbl.column("vid")
        col = tbl.column("color").to_numpy(zero_copy_only=False)
        null = np.asarray(tbl.column("sig").is_null())
        out = (
            pc.fill_null(tbl.column("sig"), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        for i in np.flatnonzero(null):
            out[i] = np.int64(_sig64(f"{col[i]}|"))
        return pa.table(
            {"vid": vid, "sig": pa.array(out, pa.int64())}
        )

    for _ in range(_WL_K):
        cm = colors.materialize()
        annotated = capped_broadcast_join(
            edges,
            cm.map_batches(as_lookup("src", "csrc"), batch_format="pyarrow"),
            on="src", max_broadcast_bytes=_LOOKUP_CAP(),
        )
        annotated = capped_broadcast_join(
            annotated,
            cm.map_batches(as_lookup("dst", "cdst"), batch_format="pyarrow"),
            on="dst", max_broadcast_bytes=_LOOKUP_CAP(),
        )
        sigs = (
            annotated.map_batches(keyed, batch_format="pyarrow")
            .groupby("gpart")
            .map_groups(sig_group, batch_format="pyarrow")
        )
        full = capped_broadcast_join(
            cm, sigs, on="vid", how="left",
            max_broadcast_bytes=_LOOKUP_CAP(),
        ).map_batches(fill_empty, batch_format="pyarrow")
        # canonical class label = min member vid per signature — a
        # distributed fold, then one more capped lookup
        classes = full.groupby("sig").aggregate(
            Min("vid", alias_name="color")
        )
        colors = capped_broadcast_join(
            full, classes, on="sig", max_broadcast_bytes=_LOOKUP_CAP(),
        ).select_columns(["vid", "color"])

    return colors.sort("vid")


def _wl_sql(k: int) -> str:
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "c0 AS (SELECT vid, CAST(0 AS BIGINT) AS c FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"s{i} AS MATERIALIZED (SELECT v.vid, "
            f"CAST(own.c AS VARCHAR) || '|' || "
            f"COALESCE(string_agg(CAST(nc.c AS VARCHAR), ',' "
            f"ORDER BY nc.c), '') AS sig "
            f"FROM v JOIN c{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN c{i-1} nc ON nc.vid = e.src "
            f"GROUP BY v.vid, own.c)"
        )
        ctes.append(
            f"c{i} AS MATERIALIZED (SELECT vid, "
            f"MIN(vid) OVER (PARTITION BY sig) AS c FROM s{i})"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, c AS color FROM c{k}"
    )


def q_daily_moving_avg(sf_dir: str):
    """Events per day with the 7-day trailing moving average — the
    volume-trend smoother. Distributed daily partial counts; the
    window pass runs on the driver over the tiny day domain (one row
    per calendar day)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )
    DAY_US = 86_400_000_000

    def per_day(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts - ts % DAY_US
        u, cnt = np.unique(day, return_counts=True)
        return pa.table(
            {
                "day_us": pa.array(u, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(per_day, batch_format="pyarrow")
        .groupby("day_us")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    day = np.array([r["day_us"] for r in rows], dtype=np.int64)
    n = np.array([r["n"] for r in rows], dtype=np.int64)
    order = np.argsort(day)
    day, n = day[order], n[order]
    # trailing window of up to 7 PRESENT rows — matches SQL ROWS 6
    # PRECEDING over the day-ordered aggregate
    ma = np.array(
        [n[max(0, i - 6): i + 1].mean() for i in range(len(n))]
    )
    return pa.table(
        {
            "day_us": pa.array(day, pa.int64()),
            "n": pa.array(n, pa.int64()),
            "ma7": pa.array(_round_half_away(ma), pa.float64()),
        }
    )


_DAILY_MA_SQL = """
WITH d AS (SELECT epoch_us(time_bucket(INTERVAL 1 DAY, ts)) AS day_us,
           COUNT(*) AS n FROM events GROUP BY 1)
SELECT day_us, CAST(n AS BIGINT) AS n,
       ROUND(AVG(n * 1.0) OVER (ORDER BY day_us
             ROWS BETWEEN 6 PRECEDING AND CURRENT ROW), 6) AS ma7
FROM d
"""


def q_pagerank_movers(sf_dir: str):
    """Top-20 rank movers after the event-driven graph mutation: join
    PageRank k=4 on the base graph with PageRank k=4 on the
    Graph.update-mutated graph, rank by |Δ| — the impact report a
    crawl-refresh pipeline publishes. Reuses both engine runs (and
    both unrolled oracles) verbatim."""
    base = q_pagerank_k4(sf_dir)
    upd = q_pagerank_updated_k4(sf_dir)
    bv = base.column("vid").to_numpy(zero_copy_only=False)
    br = base.column("rank").to_numpy(zero_copy_only=False)
    uv = upd.column("vid").to_numpy(zero_copy_only=False)
    ur = upd.column("rank").to_numpy(zero_copy_only=False)
    bo, uo = np.argsort(bv), np.argsort(uv)
    # mutation only adds/removes edges among existing vids here, but be
    # honest about vid-set drift: inner join on sorted vids
    common, bi, ui = np.intersect1d(
        bv[bo], uv[uo], assume_unique=True, return_indices=True
    )
    rb, ru = br[bo][bi], ur[uo][ui]
    delta = ru - rb
    top = np.lexsort((common, -np.abs(delta)))[:20]
    return pa.table(
        {
            "vid": pa.array(common[top], pa.int64()),
            "rank_before": pa.array(rb[top], pa.float64()),
            "rank_after": pa.array(ru[top], pa.float64()),
            "delta": pa.array(
                _round_half_away(delta[top]), pa.float64()
            ),
        }
    )


def _pr_movers_sql() -> str:
    base = _pr_sql(4)
    upd = _pr_sql(4, edges_sql=_E_UPD_SQL)
    return (
        f"WITH b AS ({base}), u AS ({upd}) "
        "SELECT b.vid, b.rank AS rank_before, u.rank AS rank_after, "
        "ROUND(u.rank - b.rank, 6) AS delta "
        "FROM b JOIN u ON u.vid = b.vid "
        "ORDER BY abs(u.rank - b.rank) DESC, b.vid ASC LIMIT 20"
    )


def q_embedding_quantization(sf_dir: str):
    """Symmetric int8 quantization audit: global per-corpus max-abs
    scale, q = round_half_away(x/s*127) clamped to [−127,127], report
    per-label mean absolute reconstruction error and max error — the
    storage-precision tradeoff check before shipping embeddings at
    scale. Two streaming passes (max-abs fold, then error partials) +
    one tiny per-label fold."""
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["label", "embedding"],
    )

    def maxabs(tbl: pa.Table) -> pa.Table:
        m = 0.0
        for chunk in tbl.column("embedding").chunks if tbl.column(
            "embedding"
        ).num_chunks else [tbl.column("embedding")]:
            flat = np.abs(
                chunk.flatten().to_numpy(zero_copy_only=False).astype(
                    np.float64
                )
            )
            if len(flat):
                m = max(m, float(flat.max()))
        return pa.table({"m": pa.array([m], pa.float64())})

    parts = emb.map_batches(maxabs, batch_format="pyarrow").take_all()
    scale = max(r["m"] for r in parts)

    def err_partial(tbl: pa.Table) -> pa.Table:
        lab = tbl.column("label").to_numpy(zero_copy_only=False)
        col = tbl.column("embedding")
        arrs = col.combine_chunks()
        x = arrs.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        dim = len(x) // max(len(lab), 1)
        v = x / scale * 127.0
        q = np.clip(
            np.where(v >= 0, np.floor(v + 0.5), -np.floor(-v + 0.5)),
            -127,
            127,
        )
        err = np.abs(x - q * scale / 127.0).reshape(len(lab), dim)
        u, inv = np.unique(lab, return_inverse=True)
        return pa.table(
            {
                "label": pa.array(u, pa.int64()),
                "sum_err": pa.array(
                    np.bincount(inv, weights=err.sum(axis=1)), pa.float64()
                ),
                "n_vals": pa.array(
                    (np.bincount(inv) * dim).astype(np.int64), pa.int64()
                ),
                "max_err": pa.array(
                    [float(err[inv == i].max()) for i in range(len(u))],
                    pa.float64(),
                ),
            }
        )

    rows = (
        emb.map_batches(err_partial, batch_format="pyarrow")
        .groupby("label")
        .aggregate(
            Sum("sum_err", alias_name="sum_err"),
            Sum("n_vals", alias_name="n_vals"),
            Max("max_err", alias_name="max_err"),
        )
        .take_all()
    )
    lab = np.array([r["label"] for r in rows], dtype=np.int64)
    se = np.array([r["sum_err"] for r in rows])
    nv = np.array([r["n_vals"] for r in rows], dtype=np.int64)
    me = np.array([r["max_err"] for r in rows])
    return pa.table(
        {
            "label": pa.array(lab, pa.int64()),
            "mean_abs_err": pa.array(
                _round_half_away(se / nv, 8), pa.float64()
            ),
            "max_abs_err": pa.array(_round_half_away(me, 8), pa.float64()),
        }
    )


_EMB_QUANT_SQL = """
WITH flat AS (SELECT label, CAST(u.x AS DOUBLE) AS x
              FROM embeddings, unnest(embedding) AS u(x)),
s AS (SELECT MAX(abs(x)) AS scale FROM flat),
q AS (SELECT label,
      abs(x - LEAST(GREATEST(ROUND(x / s.scale * 127.0, 0), -127), 127)
              * s.scale / 127.0) AS err
      FROM flat, s)
SELECT CAST(label AS BIGINT) AS label,
       ROUND(SUM(err) / COUNT(*), 8) AS mean_abs_err,
       ROUND(MAX(err), 8) AS max_abs_err
FROM q GROUP BY label
"""


def q_clicks_near_errors(sf_dir: str):
    """Range/interval join (functions.joins.interval_join): attribute
    each click to the most recent error by the same user within the
    past hour — error windows [ts, ts+1h) clipped at the user's next
    error so intervals are non-overlapping per key (the join's
    partitioning contract; clipping ≡ 'most recent wins'). One
    exchange builds the clipped windows, one co-partitioned exchange
    joins; all kernels vectorized."""
    import ray.data as rd

    from signal_collect_ray.functions.joins import interval_join
    from signal_collect_ray.util import part_of

    HOUR_US = 3_600_000_000
    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def errs_keyed(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        t = tbl.filter(pa.array(et == "error"))
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "part": pa.array(part_of(uid, 16), pa.int32()),
                "user_id": t.column("user_id"),
                "ts_us": pa.array(
                    t.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.int64(),
                ),
                "event_id": t.column("event_id"),
            }
        )

    def windows(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts_us").to_numpy(zero_copy_only=False)
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t, e = uid[order], ts[order], eid[order]
        nxt = np.full(len(t), np.iinfo(np.int64).max, dtype=np.int64)
        same = u[:-1] == u[1:]
        nxt[:-1][same] = t[1:][same] - 1
        end = np.minimum(t + HOUR_US - 1, nxt)
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "s": pa.array(t, pa.int64()),
                "e": pa.array(end, pa.int64()),
                "err_id": pa.array(e, pa.int64()),
            }
        )

    intervals = (
        ds.map_batches(errs_keyed, batch_format="pyarrow")
        .groupby("part")
        .map_groups(windows, batch_format="pyarrow")
    )

    def clicks(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        t = tbl.filter(pa.array(et == "click"))
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "ts_us": pa.array(
                    t.column("ts").cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    ),
                    pa.int64(),
                ),
                "click_id": t.column("event_id"),
            }
        )

    clk = ds.map_batches(clicks, batch_format="pyarrow")
    j = interval_join(
        clk,
        intervals,
        by="user_id",
        time_col="ts_us",
        start_col="s",
        end_col="e",
        value_cols=["err_id"],
        how="inner",
    )

    def proj(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": tbl.column("user_id"),
                "click_id": tbl.column("click_id"),
                "err_id": tbl.column("err_id"),
            }
        )

    return j.map_batches(proj, batch_format="pyarrow")


_CLICKS_NEAR_ERRORS_SQL = """
WITH err AS (SELECT user_id, epoch_us(ts) AS s, event_id AS err_id,
             LEAST(epoch_us(ts) + 3600000000 - 1,
                   COALESCE(LEAD(epoch_us(ts)) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) - 1,
                            9223372036854775807)) AS e
             FROM events WHERE event_type = 'error'),
clk AS (SELECT user_id, epoch_us(ts) AS t, event_id AS click_id
        FROM events WHERE event_type = 'click')
SELECT c.user_id, c.click_id, err.err_id
FROM clk c JOIN err ON err.user_id = c.user_id
WHERE c.t BETWEEN err.s AND err.e
"""


def q_props_k_stats(sf_dir: str):
    """Semi-structured payload extraction: parse the JSON ``props``
    column, aggregate the ``k`` field per event type (n, mean, min,
    max). One vectorized streaming pass (stdlib json — C-accelerated —
    per row, the LanguageId per-doc-C-call pattern) + a tiny fold;
    integer sums keep float64 exact so mean is bit-identical to SQL's
    AVG."""
    import json

    import ray.data as rd
    from ray.data.aggregate import Max, Min, Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "props"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        ks = np.array(
            [json.loads(p)["k"] for p in tbl.column("props").to_pylist()],
            dtype=np.int64,
        )
        u, inv = np.unique(et, return_inverse=True)
        return pa.table(
            {
                "event_type": pa.array(u, pa.string()),
                "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "sum_k": pa.array(
                    np.bincount(inv, weights=ks).astype(np.int64), pa.int64()
                ),
                "min_k": pa.array(
                    np.array(
                        [ks[inv == i].min() for i in range(len(u))], np.int64
                    ),
                    pa.int64(),
                ),
                "max_k": pa.array(
                    np.array(
                        [ks[inv == i].max() for i in range(len(u))], np.int64
                    ),
                    pa.int64(),
                ),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_k", alias_name="sum_k"),
            Min("min_k", alias_name="min_k"),
            Max("max_k", alias_name="max_k"),
        )
        .take_all()
    )
    et = [r["event_type"] for r in rows]
    n = np.array([r["n"] for r in rows], dtype=np.int64)
    sk = np.array([r["sum_k"] for r in rows], dtype=np.int64)
    return pa.table(
        {
            "event_type": pa.array(et, pa.string()),
            "n": pa.array(n, pa.int64()),
            "mean_k": pa.array(
                _round_half_away(sk * 1.0 / n), pa.float64()
            ),
            "min_k": pa.array(
                np.array([r["min_k"] for r in rows], np.int64), pa.int64()
            ),
            "max_k": pa.array(
                np.array([r["max_k"] for r in rows], np.int64), pa.int64()
            ),
        }
    )


_PROPS_K_SQL = """
WITH x AS (SELECT event_type,
           CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
           FROM events)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       ROUND(SUM(k) * 1.0 / COUNT(*), 6) AS mean_k,
       CAST(MIN(k) AS BIGINT) AS min_k, CAST(MAX(k) AS BIGINT) AS max_k
FROM x GROUP BY event_type
"""


_PERC_PS = (10, 20, 40)


def q_percolation_sweep(sf_dir: str):
    """Random-failure percolation curve: for removal fractions p ∈
    {10,20,40}% (deterministic Knuth-hash site percolation, the
    random_robustness mechanism swept), rerun CC and report surviving
    vertices, components and giant-component fraction — where does the
    giant component break down. Three filtered builds + engine CC runs;
    each is the hub_robustness composition."""
    from signal_collect_ray import Graph
    from signal_collect_ray.algorithms import ConnectedComponents

    key = (sf_dir, "percolation_sweep")
    out = _RESULT_CACHE.get(key)
    if out is not None:
        return out

    rows = []
    for p in _PERC_PS:

        def drop(tbl: pa.Table, thr=p) -> pa.Table:
            s = tbl.column("src").to_numpy(zero_copy_only=False)
            d = tbl.column("dst").to_numpy(zero_copy_only=False)

            def dead(v: np.ndarray) -> np.ndarray:
                h = (v.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(
                    1 << 32
                )
                return (h % np.uint64(100)) < thr

            return tbl.filter(pa.array(~(dead(s) | dead(d))))

        filtered = derived_edges_ds(sf_dir).map_batches(
            drop, batch_format="pyarrow"
        )
        g = Graph.build(
            sym_edges(filtered),
            _work_dir(sf_dir, f"graph_perc_{p}"),
            num_partitions=_P,
            dedup=True,
        )
        info = _engine(_CC_K).run(
            g,
            ConnectedComponents(),
            run_dir=_work_dir(sf_dir, f"run_cc_perc_{p}"),
            resume=False,
            checkpoint_interval=50,
        )
        lab = (
            info.state_table()
            .column("state")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        _u, counts = np.unique(lab, return_counts=True)
        big = int(counts.max()) if len(counts) else 0
        rows.append(
            (p, len(lab), len(counts), big,
             float(_round_half_away(np.array([big * 1.0 / len(lab)]))[0])
             if len(lab) else 0.0)
        )
    out = pa.table(
        {
            "p": pa.array([r[0] for r in rows], pa.int64()),
            "n_vertices": pa.array([r[1] for r in rows], pa.int64()),
            "n_components": pa.array([r[2] for r in rows], pa.int64()),
            "largest_component": pa.array([r[3] for r in rows], pa.int64()),
            "frac_largest": pa.array([r[4] for r in rows], pa.float64()),
        }
    )
    _RESULT_CACHE[key] = out
    return out


def _percolation_sql(k: int) -> str:
    dead = "(((CAST({v} AS UBIGINT) * 2654435761) % 4294967296) % 100) < {p}"
    parts = []
    for p in _PERC_PS:
        filtered = (
            f"SELECT src, dst FROM ({_E_SQL}) base "
            f"WHERE NOT ({dead.format(v='src', p=p)}) "
            f"AND NOT ({dead.format(v='dst', p=p)})"
        )
        parts.append(
            f"SELECT {p} AS p, CAST(COUNT(*) AS BIGINT) AS n_vertices, "
            "CAST(COUNT(DISTINCT label) AS BIGINT) AS n_components, "
            "CAST(MAX(csize) AS BIGINT) AS largest_component, "
            "ROUND(MAX(csize) * 1.0 / COUNT(*), 6) AS frac_largest "
            "FROM (SELECT label, COUNT(*) OVER (PARTITION BY label) AS csize "
            f"FROM ({_cc_sql(k, filtered)}))"
        )
    return " UNION ALL ".join(parts)


def q_cross_label_nn(sf_dir: str):
    """Bipartite nearest neighbor between two embedding populations:
    for every label-0 vector, its most-cosine-similar label-1 vector —
    the cross-corpus contamination / nearest-donor probe. Runs the
    chunked-candidate exact-NN idiom (similarity.bipartite_nn_top1):
    one broadcast when the candidate matrix fits the byte cap, a
    sequence of byte-capped id-ascending chunks with a running argmax
    above it — bit-identical either way (cap=0 A/B pinned in
    tests/test_capped_broadcast.py); ties break to the smallest
    candidate vec_id."""
    import ray.data as rd

    from signal_collect_ray.functions.similarity import bipartite_nn_top1

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label", "embedding"],
    )

    def side(lab: int):
        def f(tbl: pa.Table, want=lab) -> pa.Table:
            l = tbl.column("label").to_numpy(zero_copy_only=False)
            return tbl.filter(pa.array(l == want))

        return f

    nn = bipartite_nn_top1(
        emb.map_batches(side(0), batch_format="pyarrow"),
        emb.map_batches(side(1), batch_format="pyarrow"),
        max_chunk_bytes=_LOOKUP_CAP(),
    )

    def rounded(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": tbl.column("vec_id"),
                "nn_id": tbl.column("nn_id"),
                "score": pa.array(
                    _round_half_away(
                        tbl.column("score").to_numpy(zero_copy_only=False), 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return nn.map_batches(rounded, batch_format="pyarrow")


_CROSS_NN_SQL = """
WITH a AS (SELECT vec_id, embedding FROM embeddings WHERE label = 0),
b AS (SELECT vec_id, embedding FROM embeddings WHERE label = 1),
s AS (SELECT a.vec_id, b.vec_id AS nn_id,
      CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE) AS sim,
      ROW_NUMBER() OVER (PARTITION BY a.vec_id
      ORDER BY list_cosine_similarity(a.embedding, b.embedding) DESC,
      b.vec_id) AS rn
      FROM a CROSS JOIN b)
SELECT vec_id, nn_id, ROUND(sim, 4) AS score FROM s WHERE rn = 1
"""


def q_third_highest_value_per_type(sf_dir: str):
    """Grouped order statistic: the 3rd-highest event value per type
    (duplicates count separately — ROW_NUMBER semantics). Per-block
    top-3 partials (np.partition — the combiner shape: only 3 rows per
    (block, type) cross the exchange), per-type merge of partials."""
    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        et = np.asarray(tbl.column("event_type").to_pylist())
        v = tbl.column("value").to_numpy(zero_copy_only=False)
        u, inv = np.unique(et, return_inverse=True)
        out_t, out_v = [], []
        for i, t in enumerate(u):
            vals = v[inv == i]
            top = np.sort(vals)[-3:]  # up to 3 largest
            out_t.extend([t] * len(top))
            out_v.extend(top.tolist())
        return pa.table(
            {
                "event_type": pa.array(out_t, pa.string()),
                "value": pa.array(out_v, pa.float64()),
            }
        )

    def merge(tbl: pa.Table) -> pa.Table:
        v = np.sort(tbl.column("value").to_numpy(zero_copy_only=False))
        third = (
            float(_round_half_away(np.array([v[-3]]))[0])
            if len(v) >= 3
            else None
        )
        return pa.table(
            {
                "event_type": tbl.column("event_type").slice(0, 1),
                "third_value": pa.array([third], pa.float64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(merge, batch_format="pyarrow")
    )


_THIRD_VALUE_SQL = """
WITH r AS (SELECT event_type, value,
           ROW_NUMBER() OVER (PARTITION BY event_type
                              ORDER BY value DESC) AS rn FROM events)
SELECT event_type, ROUND(value, 6) AS third_value FROM r WHERE rn = 3
"""


def q_sliding_distinct_users(sf_dir: str):
    """Distinct users per 6-hour sliding window (1-hour slide) — the
    overlapping-window cardinality operator (re-emission per window;
    the HLL sketch in functions/sketches.py is the documented
    approximate path at scale). Vectorized 6-way explode, per-batch
    (window, user) pre-dedup bounds the exchange, per-window distinct
    count in one map_groups."""
    import ray.data as rd

    HOUR_US = 3_600_000_000
    K = 6  # 6h width / 1h slide

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def explode(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        n = len(ts)
        newest = (ts // HOUR_US) * HOUR_US
        offs = np.arange(K, dtype=np.int64) * HOUR_US
        win = np.repeat(newest, K) - np.tile(offs, n)
        u = np.repeat(uid, K)
        pairs = np.unique(np.stack([win, u], axis=1), axis=0)
        return pa.table(
            {
                "window_us": pa.array(pairs[:, 0], pa.int64()),
                "user_id": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def count_distinct(tbl: pa.Table) -> pa.Table:
        u = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "window_us": tbl.column("window_us").slice(0, 1),
                "n_users": pa.array([len(np.unique(u))], pa.int64()),
            }
        )

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("window_us")
        .map_groups(count_distinct, batch_format="pyarrow")
    )


_SLIDING_DISTINCT_SQL = """
WITH x AS (SELECT DISTINCT
           ((epoch_us(ts) // 3600000000) * 3600000000)
           - j.j * 3600000000 AS window_us, user_id
           FROM events CROSS JOIN (SELECT UNNEST(range(6)) AS j) j)
SELECT window_us, CAST(COUNT(*) AS BIGINT) AS n_users
FROM x GROUP BY window_us
"""


def q_quality_percent_rank(sf_dir: str):
    """Global PERCENT_RANK of every document's quality score —
    rank-normalize quality to [0,1] before threshold-free curation
    (keep top-X%). rank = count(strictly lower) via one searchsorted
    against the broadcast sorted score vector (byte-capped idiom —
    the scale path is the classic two-pass range-partitioned rank:
    sample → range-partition by score → per-partition offset + local
    rank). Scores are bit-identical to the SQL mirror per the
    _QUALITY_SQL contract, so tie groups match exactly."""
    import ray
    import ray.data as rd

    from signal_collect_ray.functions.text import QualityScore

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(QualityScore(), batch_format="pyarrow")

    def keyed(tbl: pa.Table) -> pa.Table:
        # the 6-dp-quantized score (the _QUALITY_SQL contract) as an
        # exact integer key — the histogram domain is then bounded by
        # the score range × 1e6, NOT by N, so the broadcast stays small
        # at any corpus size (same idiom as quality_percentiles)
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        qi = np.round(q * 1e6).astype(np.int64)
        return pa.table({"doc_id": tbl.column("doc_id"),
                         "qi": pa.array(qi, pa.int64())})

    kd = ds.map_batches(keyed, batch_format="pyarrow").materialize()

    def hist(tbl: pa.Table) -> pa.Table:
        u, c = np.unique(tbl.column("qi").to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"qi": pa.array(u, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    parts = kd.map_batches(hist, batch_format="pyarrow").take_all()
    agg: dict = {}
    for r in parts:
        agg[r["qi"]] = agg.get(r["qi"], 0) + r["c"]
    vals = np.array(sorted(agg), dtype=np.int64)
    counts = np.array([agg[v] for v in vals], dtype=np.int64)
    cum = np.cumsum(counts)
    excl = cum - counts  # strictly-lower count per distinct score
    N = int(cum[-1]) if len(cum) else 0
    ref = ray.put((vals, excl))

    def rank(tbl: pa.Table) -> pa.Table:
        v, e = ray.get(ref)
        qi = tbl.column("qi").to_numpy(zero_copy_only=False)
        less = e[np.searchsorted(v, qi)]
        pct = less * 1.0 / (N - 1) if N > 1 else np.zeros(len(qi))
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "pct_rank": pa.array(_round_half_away(pct), pa.float64()),
            }
        )

    return kd.map_batches(rank, batch_format="pyarrow")


def _quality_pct_rank_sql() -> str:
    # ranks the 6-dp-quantized score (the _QUALITY_SQL contract) — the
    # same tie groups the engine's bounded counting histogram uses
    return (
        f"WITH q AS ({_QUALITY_SQL}) "
        "SELECT doc_id, ROUND(PERCENT_RANK() OVER (ORDER BY quality), 6) "
        "AS pct_rank FROM q"
    )


def q_triangle_estimate_sampled(sf_dir: str):
    """DOULION-style sampled triangle estimate (Tsourakakis et al.
    2009, public): keep each UNDIRECTED edge iff knuth_hash(canonical
    pair key) mod 100 < 50 (deterministic p=0.5 site-free edge
    sampling, exactly SQL-mirrorable), count triangles on the sample
    with the engine's oriented-wedge counter, scale by 1/p³ = 8.
    Returns (exact, sampled, estimate) so the estimator's error is the
    visible result."""
    from signal_collect_ray.algorithms import total_triangles

    edges = derived_edges_ds(sf_dir).select_columns(["src", "dst"])

    def samp(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        a, b = np.minimum(s, d), np.maximum(s, d)
        key = (a * V_GRAPH + b).astype(np.uint64)
        h = (key * np.uint64(2654435761)) % np.uint64(1 << 32)
        return tbl.filter(pa.array((h % np.uint64(100)) < 50))

    exact = total_triangles(edges, num_partitions=32)
    sampled = total_triangles(
        edges.map_batches(samp, batch_format="pyarrow"), num_partitions=32
    )
    return pa.table(
        {
            "n_true": pa.array([exact], pa.int64()),
            "n_sampled": pa.array([sampled], pa.int64()),
            "estimate": pa.array([sampled * 8], pa.int64()),
        }
    )


_TRI_SAMPLED_SQL = f"""
WITH e0 AS ({_E_SQL}),
u AS (SELECT LEAST(src, dst) AS a, GREATEST(src, dst) AS b FROM e0
      GROUP BY 1, 2),
us AS (SELECT a, b FROM u WHERE
       ((CAST(a * {V_GRAPH} + b AS UBIGINT) * 2654435761) % 4294967296)
       % 100 < 50),
tri AS (SELECT COUNT(*) AS n FROM u x JOIN u y ON y.a = x.b
        JOIN u z ON z.a = x.a AND z.b = y.b),
tris AS (SELECT COUNT(*) AS n FROM us x JOIN us y ON y.a = x.b
         JOIN us z ON z.a = x.a AND z.b = y.b)
SELECT CAST(tri.n AS BIGINT) AS n_true,
       CAST(tris.n AS BIGINT) AS n_sampled,
       CAST(tris.n * 8 AS BIGINT) AS estimate
FROM tri, tris
"""


_KHOP_SOURCES = (0, 16, 32, 48)


def q_khop_counts(sf_dir: str):
    """Exact k-hop neighborhood sizes (|{v : dist(s,v) ≤ k}|, source
    included) for the four harmonic-closeness probe sources, k=1..3 —
    the exact companion to the HyperBall-approximate
    `neighborhood_function`. Four frontier-gated engine BFS runs; the
    count fold is a scalar per (source, k)."""
    from signal_collect_ray.algorithms import SSSP

    out_s, out_k, out_n = [], [], []
    for s in _KHOP_SOURCES:
        t = _state(sf_dir, SSSP(s), False, 50, tag=f"_khop{s}")
        d = t.column("state").to_numpy(zero_copy_only=False)
        for k in (1, 2, 3):
            out_s.append(s)
            out_k.append(k)
            out_n.append(int((d <= k).sum()))
    return pa.table(
        {
            "source": pa.array(out_s, pa.int64()),
            "k": pa.array(out_k, pa.int64()),
            "n_reach": pa.array(out_n, pa.int64()),
        }
    )


def _khop_sql() -> str:
    parts = []
    for s in _KHOP_SOURCES:
        parts.append(
            f"SELECT {s} AS source, ks.k, "
            "CAST(COUNT(*) FILTER (d.dist <= ks.k) AS BIGINT) AS n_reach "
            f"FROM ({_sssp_sql(_BFS_K, s)}) d "
            "CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS k) ks "
            "GROUP BY ks.k"
        )
    return " UNION ALL ".join(parts)


def q_ab_split_conversion(sf_dir: str):
    """Deterministic A/B experiment readout: users hash-split into two
    arms (knuth_hash(user_id) mod 2 — the training_shards mapper), per
    arm the view→purchase conversion rate (purchase strictly after the
    first view). One per-user fold (partial min-ts per type inside each
    block, then a tiny per-user combine), scalar per-arm counts."""
    import ray.data as rd
    from ray.data.aggregate import Min

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )
    BIG = np.int64(2**62)

    def partial(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = np.asarray(tbl.column("event_type").to_pylist())
        u, inv = np.unique(uid, return_inverse=True)
        tv = np.full(len(u), BIG)
        tp = np.full(len(u), BIG)
        isv, isp = et == "view", et == "purchase"
        np.minimum.at(tv, inv[isv], ts[isv])
        np.minimum.at(tp, inv[isp], ts[isp])
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "tv": pa.array(tv, pa.int64()),
                "tp": pa.array(tp, pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("tv", alias_name="tv"), Min("tp", alias_name="tp"))
        .take_all()
    )
    uid = np.array([r["user_id"] for r in rows], dtype=np.int64)
    tv = np.array([r["tv"] for r in rows], dtype=np.int64)
    tp = np.array([r["tp"] for r in rows], dtype=np.int64)
    arm = part_of(uid, 2)
    viewed = tv < BIG
    conv = viewed & (tp < BIG) & (tp > tv)
    out_a, out_u, out_c, out_r = [], [], [], []
    for a in (0, 1):
        m = arm == a
        nu = int((viewed & m).sum())
        nc = int((conv & m).sum())
        out_a.append(a)
        out_u.append(nu)
        out_c.append(nc)
        out_r.append(
            float(_round_half_away(np.array([nc * 1.0 / nu]))[0])
            if nu
            else 0.0
        )
    return pa.table(
        {
            "arm": pa.array(out_a, pa.int64()),
            "n_users": pa.array(out_u, pa.int64()),
            "n_converted": pa.array(out_c, pa.int64()),
            "conversion": pa.array(out_r, pa.float64()),
        }
    )


_AB_SPLIT_SQL = """
WITH f AS (SELECT user_id,
           ((CAST(user_id AS UBIGINT) * 2654435761) % 4294967296) % 2 AS arm,
           MIN(epoch_us(ts)) FILTER (WHERE event_type = 'view') AS tv,
           MIN(epoch_us(ts)) FILTER (WHERE event_type = 'purchase') AS tp
           FROM events GROUP BY user_id),
a AS (SELECT arm, COUNT(*) FILTER (tv IS NOT NULL) AS n_users,
      COUNT(*) FILTER (tv IS NOT NULL AND tp IS NOT NULL AND tp > tv)
      AS n_converted
      FROM f GROUP BY arm)
SELECT CAST(arm AS BIGINT) AS arm, CAST(n_users AS BIGINT) AS n_users,
       CAST(n_converted AS BIGINT) AS n_converted,
       ROUND(CASE WHEN n_users > 0
             THEN n_converted * 1.0 / n_users ELSE 0.0 END, 6) AS conversion
FROM a
"""


def q_community_rank_mass(sf_dir: str):
    """Authority distribution across communities: Σ PageRank(k=4) per
    1-round Chinese-Whispers community — which clusters hold the rank
    mass. Composition of two engine runs + one keyed fold (both runs
    reuse their cached graphs)."""
    from signal_collect_ray.algorithms import ChineseWhispers, PageRank

    pr = _state(sf_dir, PageRank(), False, 4, eps=0.0, tag="_k4")
    cw = _state(sf_dir, ChineseWhispers(), True, 1, eps=0.0, tag="_k1")
    pv = pr.column("vid").to_numpy(zero_copy_only=False)
    rank = pr.column("state").to_numpy(zero_copy_only=False)
    cv = cw.column("vid").to_numpy(zero_copy_only=False)
    lab = cw.column("state").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(cv)
    lab_of = lab[order][np.searchsorted(cv[order], pv)]
    u, inv = np.unique(lab_of, return_inverse=True)
    mass = np.bincount(inv, weights=rank)
    n = np.bincount(inv)
    return pa.table(
        {
            "label": pa.array(u, pa.int64()),
            "n_vertices": pa.array(n.astype(np.int64), pa.int64()),
            "rank_mass": pa.array(_round_half_away(mass, 4), pa.float64()),
        }
    )


def _community_rank_sql() -> str:
    raw_pr = _pr_sql(4).replace(
        "SELECT vid, ROUND(r, 6) AS rank FROM r4", "SELECT vid, r FROM r4"
    )
    return (
        f"WITH pr AS ({raw_pr}), cw AS ({_CW1_SQL}) "
        "SELECT cw.label, CAST(COUNT(*) AS BIGINT) AS n_vertices, "
        "ROUND(SUM(pr.r), 4) AS rank_mass "
        "FROM pr JOIN cw ON cw.vid = pr.vid GROUP BY cw.label"
    )


def q_mutual_nn_pairs(sf_dir: str):
    """Reciprocal nearest neighbors across the label-0 / label-1
    populations: pairs where each side is the other's top-1 cosine
    match — the high-precision alignment seed set (mutual-NN matching,
    public). Both directions run similarity.bipartite_nn_top1 (one
    broadcast under the byte cap, byte-capped chunked running-argmax
    above it — nothing O(V) on the driver); the reciprocity test is a
    capped_broadcast_join of the reverse table onto the forward one
    (hash-join fallback above the cap), filtered to back_id ==
    vec_id."""
    import ray.data as rd

    from signal_collect_ray.functions.joins import capped_broadcast_join
    from signal_collect_ray.functions.similarity import bipartite_nn_top1

    emb = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label", "embedding"],
    )

    def side(lab: int):
        def f(tbl: pa.Table, want=lab) -> pa.Table:
            l = tbl.column("label").to_numpy(zero_copy_only=False)
            return tbl.filter(pa.array(l == want))

        return f

    zeros = emb.map_batches(side(0), batch_format="pyarrow")
    ones = emb.map_batches(side(1), batch_format="pyarrow")
    fwd = bipartite_nn_top1(zeros, ones, max_chunk_bytes=_LOOKUP_CAP())
    bwd = bipartite_nn_top1(ones, zeros, max_chunk_bytes=_LOOKUP_CAP())

    def as_back(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {"nn_id": tbl.column("vec_id"), "back_id": tbl.column("nn_id")}
        )

    j = capped_broadcast_join(
        fwd,
        bwd.map_batches(as_back, batch_format="pyarrow"),
        on="nn_id",
        max_broadcast_bytes=_LOOKUP_CAP(),
    )

    def mutual(tbl: pa.Table) -> pa.Table:
        back = tbl.column("back_id").to_numpy(zero_copy_only=False)
        vid = tbl.column("vec_id").to_numpy(zero_copy_only=False)
        t = tbl.filter(pa.array(back == vid))
        return pa.table(
            {
                "vec_a": t.column("vec_id"),
                "vec_b": t.column("nn_id"),
                "score": pa.array(
                    _round_half_away(
                        t.column("score").to_numpy(zero_copy_only=False), 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return j.map_batches(mutual, batch_format="pyarrow")


_MUTUAL_NN_SQL = """
WITH a AS (SELECT vec_id, embedding FROM embeddings WHERE label = 0),
b AS (SELECT vec_id, embedding FROM embeddings WHERE label = 1),
s AS (SELECT a.vec_id AS va, b.vec_id AS vb,
      CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE) AS sim
      FROM a CROSS JOIN b),
fa AS (SELECT va, vb, sim FROM
       (SELECT *, ROW_NUMBER() OVER (PARTITION BY va
        ORDER BY sim DESC, vb) AS rn FROM s) WHERE rn = 1),
fb AS (SELECT va, vb FROM
       (SELECT *, ROW_NUMBER() OVER (PARTITION BY vb
        ORDER BY sim DESC, va) AS rn FROM s) WHERE rn = 1)
SELECT fa.va AS vec_a, fa.vb AS vec_b, ROUND(fa.sim, 4) AS score
FROM fa JOIN fb ON fb.va = fa.va AND fb.vb = fa.vb
"""


def q_doc_lang_mix(sf_dir: str):
    """Paragraph-granularity language mixing: chunk every document with
    the sliding word window (ChunkDocuments — the doc_chunks contract),
    run the n-gram LanguageId per CHUNK, report chunks, distinct
    detected languages and a mixed flag per document — the
    code-switching / concatenated-crawl detector that doc-level lang-ID
    misses. Chunk + detect stream; one doc-keyed fold."""
    import ray.data as rd

    from signal_collect_ray.functions.text import ChunkDocuments, LanguageId

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ch = ds.map_batches(
        ChunkDocuments(_CHUNK_SIZE, _CHUNK_STRIDE),
        batch_format="pyarrow",
        batch_size=2048,
    )

    def prep(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "text": tbl.column("chunk_text"),
            }
        )

    pred = ch.map_batches(prep, batch_format="pyarrow").map_batches(
        LanguageId(), batch_format="pyarrow"
    )

    def fold(tbl: pa.Table) -> pa.Table:
        langs = np.asarray(tbl.column("lang_pred").to_pylist())
        nl = len(np.unique(langs))
        return pa.table(
            {
                "doc_id": tbl.column("doc_id").slice(0, 1),
                "n_chunks": pa.array([len(langs)], pa.int64()),
                "n_langs": pa.array([nl], pa.int64()),
                "mixed": pa.array([nl > 1], pa.bool_()),
            }
        )

    def proj(tbl: pa.Table) -> pa.Table:
        return tbl.select(["doc_id", "lang_pred"])

    return (
        pred.map_batches(proj, batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(fold, batch_format="pyarrow")
    )


def _doc_lang_mix_sql() -> str:
    pred = _lang_pred_sql(
        src=f"({_CHUNKS_SQL})", text_col="chunk_text", key="doc_id"
    )
    return (
        f"WITH pred AS ({pred}) "
        "SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_chunks, "
        "CAST(COUNT(DISTINCT lang_pred) AS BIGINT) AS n_langs, "
        "COUNT(DISTINCT lang_pred) > 1 AS mixed "
        "FROM pred GROUP BY doc_id"
    )


_VOCAB_KS = (100, 1000, 10000)


def q_vocab_coverage_curve(sf_dir: str):
    """Vocabulary coverage curve: fraction of all corpus token
    occurrences covered by the top-k most frequent words, k ∈
    {100, 1k, 10k} — the tokenizer-vocabulary sizing curve. Word
    counts from per-block partials + one groupby; the sorted-cumsum
    tail runs on the driver over the counts table (heavy_hitters is
    the documented sketch path when the vocabulary itself is too big
    to collect). Ties at the k boundary break by (count desc, word
    asc) on both sides."""
    import re

    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    tok = re.compile(r"[a-z]+")

    def partial(tbl: pa.Table) -> pa.Table:
        words: dict = {}
        for t in tbl.column("text").to_pylist():
            for w in tok.findall((t or "").lower()):
                words[w] = words.get(w, 0) + 1
        return pa.table(
            {
                "word": pa.array(list(words), pa.string()),
                "n": pa.array(list(words.values()), pa.int64()),
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    words = np.asarray([r["word"] for r in rows])
    n = np.array([r["n"] for r in rows], dtype=np.int64)
    order = np.lexsort((words, -n))
    csum = np.cumsum(n[order])
    total = int(n.sum())
    out_k, out_cov = [], []
    for k in _VOCAB_KS:
        covered = int(csum[min(k, len(csum)) - 1]) if len(csum) else 0
        out_k.append(k)
        out_cov.append(
            float(_round_half_away(np.array([covered * 1.0 / total]))[0])
            if total
            else 0.0
        )
    return pa.table(
        {
            "k": pa.array(out_k, pa.int64()),
            "coverage": pa.array(out_cov, pa.float64()),
        }
    )


def _vocab_coverage_sql() -> str:
    ks = ", ".join(str(k) for k in _VOCAB_KS)
    return (
        "WITH w AS (SELECT unnest(regexp_extract_all(lower(COALESCE(text, "
        "'')), '[a-z]+')) AS word FROM documents), "
        "c AS (SELECT word, COUNT(*) AS n FROM w GROUP BY word), "
        "r AS (SELECT n, ROW_NUMBER() OVER (ORDER BY n DESC, word ASC) "
        "AS rk FROM c), "
        "t AS (SELECT SUM(n) AS total FROM c), "
        f"ks AS (SELECT UNNEST([{ks}]) AS k) "
        "SELECT ks.k, ROUND(COALESCE((SELECT SUM(n) FROM r WHERE "
        "r.rk <= ks.k), 0) * 1.0 / t.total, 6) AS coverage "
        "FROM ks, t"
    )


def q_pagerank_topk_stability(sf_dir: str):
    """Rank-stability probe: Jaccard overlap of the top-20 PageRank
    vertex sets at k=4 vs k=20 iterations — how early does the head of
    the ranking stabilize (the iteration-budget question for
    incremental recrawl scoring). Reuses both cached engine runs."""
    a = q_pagerank_k4(sf_dir)
    b = q_pagerank_k20(sf_dir)

    def topset(t: pa.Table) -> np.ndarray:
        vid = t.column("vid").to_numpy(zero_copy_only=False)
        r = t.column("rank").to_numpy(zero_copy_only=False)
        return vid[np.lexsort((vid, -r))[:20]]

    sa, sb = topset(a), topset(b)
    inter = len(np.intersect1d(sa, sb))
    union = len(np.union1d(sa, sb))
    return pa.table(
        {
            "n_common": pa.array([inter], pa.int64()),
            "jaccard": pa.array(
                [float(_round_half_away(np.array([inter * 1.0 / union]))[0])],
                pa.float64(),
            ),
        }
    )


def _pr_topk_stability_sql() -> str:
    return (
        f"WITH a AS ({_pr_sql(4)}), b AS ({_pr_sql(20)}), "
        "ta AS (SELECT vid FROM a ORDER BY rank DESC, vid LIMIT 20), "
        "tb AS (SELECT vid FROM b ORDER BY rank DESC, vid LIMIT 20), "
        "i AS (SELECT COUNT(*) AS n FROM ta WHERE vid IN "
        "(SELECT vid FROM tb)) "
        "SELECT CAST(i.n AS BIGINT) AS n_common, "
        "ROUND(i.n * 1.0 / (40 - i.n), 6) AS jaccard FROM i"
    )


_RICH_KS = (5, 10, 20)


def q_rich_club(sf_dir: str):
    """Rich-club coefficient φ(k) = 2·E_k / (N_k·(N_k−1)) for degree
    thresholds k ∈ {5,10,20} (Zhou & Mondragón 2004, public): do the
    highest-degree hubs of the link graph link to EACH OTHER more than
    chance — the web-graph core-densification diagnostic. One exchange
    for canonical undirected edges, one tiny groupby for degrees;
    endpoint degrees attach via capped_broadcast_join (broadcast under
    the byte cap, co-partitioned hash-join above it — billion-vertex
    safe), then one vectorized counting pass; N_k is a distributed
    fold over the degree table (nothing O(V) reaches the driver)."""
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import capped_broadcast_join
    from signal_collect_ray.util import part_of

    edges = derived_edges_ds(sf_dir).select_columns(["src", "dst"])

    def canon(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        pairs = np.unique(
            np.stack([np.minimum(s, d), np.maximum(s, d)], axis=1), axis=0
        )
        return pa.table(
            {
                "gpart": pa.array(part_of(pairs[:, 0], 32), pa.int32()),
                "a": pa.array(pairs[:, 0], pa.int64()),
                "b": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def dedup(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([a, b], axis=1), axis=0)
        return pa.table(
            {
                "a": pa.array(pairs[:, 0], pa.int64()),
                "b": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    und = (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(dedup, batch_format="pyarrow")
        .materialize()
    )

    def deg_partial(tbl: pa.Table) -> pa.Table:
        ab = np.concatenate(
            [
                tbl.column("a").to_numpy(zero_copy_only=False),
                tbl.column("b").to_numpy(zero_copy_only=False),
            ]
        )
        u, cnt = np.unique(ab, return_counts=True)
        return pa.table(
            {"vid": pa.array(u, pa.int64()), "d": pa.array(cnt, pa.int64())}
        )

    deg = (
        und.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("vid")
        .aggregate(Sum("d", alias_name="d"))
        .materialize()
    )

    def nk_partial(tbl: pa.Table) -> pa.Table:
        d = tbl.column("d").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                f"n{k}": pa.array([int((d > k).sum())], pa.int64())
                for k in _RICH_KS
            }
        )

    nrows = deg.map_batches(nk_partial, batch_format="pyarrow").take_all()
    nks = {k: sum(int(r[f"n{k}"]) for r in nrows) for k in _RICH_KS}

    def as_d(key: str, out: str):
        def fn(tbl: pa.Table) -> pa.Table:
            return pa.table({key: tbl.column("vid"), out: tbl.column("d")})

        return fn

    j = capped_broadcast_join(
        und, deg.map_batches(as_d("a", "da"), batch_format="pyarrow"),
        on="a", max_broadcast_bytes=_LOOKUP_CAP(),
    )
    j = capped_broadcast_join(
        j, deg.map_batches(as_d("b", "db"), batch_format="pyarrow"),
        on="b", max_broadcast_bytes=_LOOKUP_CAP(),
    )

    def count_partial(tbl: pa.Table) -> pa.Table:
        da = tbl.column("da").to_numpy(zero_copy_only=False)
        db = tbl.column("db").to_numpy(zero_copy_only=False)
        ek = [int(((da > k) & (db > k)).sum()) for k in _RICH_KS]
        return pa.table(
            {f"e{k}": pa.array([e], pa.int64()) for k, e in zip(_RICH_KS, ek)}
        )

    parts = j.map_batches(count_partial, batch_format="pyarrow").take_all()
    out_k, out_n, out_e, out_phi = [], [], [], []
    for k in _RICH_KS:
        nk = nks[k]
        e_k = sum(r[f"e{k}"] for r in parts)
        phi = 2.0 * e_k / (nk * (nk - 1.0)) if nk > 1 else 0.0
        out_k.append(k)
        out_n.append(nk)
        out_e.append(e_k)
        # DuckDB ROUND half-away (values positive)
        out_phi.append(np.floor(phi * 1e6 + 0.5) / 1e6)
    return pa.table(
        {
            "k": pa.array(out_k, pa.int64()),
            "n_nodes": pa.array(out_n, pa.int64()),
            "n_edges": pa.array(out_e, pa.int64()),
            "phi": pa.array(out_phi, pa.float64()),
        }
    )


_RICH_CLUB_SQL = f"""
WITH e0 AS ({_E_SQL}),
u AS (SELECT LEAST(src, dst) AS a, GREATEST(src, dst) AS b FROM e0 GROUP BY 1, 2),
deg AS (SELECT v AS vid, COUNT(*) AS deg FROM
        (SELECT a AS v FROM u UNION ALL SELECT b FROM u) GROUP BY v),
ks AS (SELECT UNNEST([{", ".join(str(k) for k in _RICH_KS)}]) AS k),
nk AS (SELECT ks.k, COUNT(*) AS n_nodes FROM ks JOIN deg ON deg.deg > ks.k
       GROUP BY ks.k),
ek AS (SELECT ks.k, COUNT(*) AS n_edges FROM ks
       JOIN u ON TRUE JOIN deg da ON da.vid = u.a JOIN deg db ON db.vid = u.b
       WHERE da.deg > ks.k AND db.deg > ks.k GROUP BY ks.k)
SELECT ks.k, CAST(COALESCE(nk.n_nodes, 0) AS BIGINT) AS n_nodes,
       CAST(COALESCE(ek.n_edges, 0) AS BIGINT) AS n_edges,
       ROUND(CASE WHEN COALESCE(nk.n_nodes, 0) > 1
             THEN 2.0 * COALESCE(ek.n_edges, 0)
                  / (nk.n_nodes * (nk.n_nodes - 1.0))
             ELSE 0.0 END, 6) AS phi
FROM ks LEFT JOIN nk ON nk.k = ks.k LEFT JOIN ek ON ek.k = ks.k
"""


_N_SHARDS = 16


def q_training_shards(sf_dir: str):
    """Deterministic hash-shuffle shard assignment for training-data
    export: doc → shard = knuth_hash(doc_id) % 16 (util.part_of — the
    same mapper the engine partitions vertices with), reporting per-
    shard document count and total characters. This is the shard-layout
    contract of the resumable Parquet sink (sinks.py): balanced,
    reproducible, join-free — one streaming pass of per-block partials
    and a 16-row groupby. The hash arithmetic is exactly SQL-mirrorable
    (Knuth multiplicative mod 2^32; doc ids < 2^32 so the high-bit fold
    is zero)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        ch = tbl.column("n_chars").to_numpy(zero_copy_only=False)
        shard = part_of(ids, _N_SHARDS)
        n = np.bincount(shard, minlength=_N_SHARDS)
        c = np.bincount(shard, weights=ch, minlength=_N_SHARDS)
        return pa.table(
            {
                "shard": pa.array(np.arange(_N_SHARDS), pa.int64()),
                "n_docs": pa.array(n.astype(np.int64), pa.int64()),
                "n_chars": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("shard")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_chars", alias_name="n_chars"),
        )
    )


_TRAINING_SHARDS_SQL = f"""
WITH s AS (SELECT ((CAST(doc_id AS UBIGINT) * 2654435761) % 4294967296)
           % {_N_SHARDS} AS shard, n_chars FROM documents),
agg AS (SELECT shard, COUNT(*) AS n_docs, SUM(n_chars) AS n_chars
        FROM s GROUP BY shard)
SELECT CAST(sh AS BIGINT) AS shard,
       CAST(COALESCE(agg.n_docs, 0) AS BIGINT) AS n_docs,
       CAST(COALESCE(agg.n_chars, 0) AS BIGINT) AS n_chars
FROM (SELECT UNNEST(range({_N_SHARDS})) AS sh) LEFT JOIN agg ON agg.shard = sh
"""


def q_curation_shards(sf_dir: str):
    """The last mile between 'curation pipeline' and 'training-data
    product': the curated corpus (corpus_curation's exact survivor
    set) LANDS as resumable per-shard-committed Parquet via
    sinks.write_partitioned — one directory per knuth-hash shard
    (training_shards' mapper), tmp-file rename then a _SUCCESS marker
    holding the row count, so a rerun (or a killed job) skips every
    shard that already committed and rewrites only the missing ones.
    The query returns the shard MANIFEST (shard, n_docs) the writer
    observed, which the oracle pins against the curation SQL composed
    with the shard-hash arithmetic — a wrong, stale, or lost shard
    shows up as a manifest-count mismatch. Kill-resume behavior is
    pinned in tests/test_sinks.py."""
    import ray.data as rd

    from signal_collect_ray.functions.text import curate_corpus
    from signal_collect_ray.sinks import write_partitioned

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    curated = curate_corpus(
        ds,
        lang=_CURATE_LANG,
        min_quality=_CURATE_MINQ,
        max_top_word_frac=_CURATE_MAXTW,
    )
    # config-keyed directory: a threshold / shard-count change lands in
    # a fresh tree instead of resuming against stale shards
    out_dir = _work_dir(
        sf_dir,
        f"curation_shards_{_CURATE_LANG}_{_CURATE_MINQ}_"
        f"{_CURATE_MAXTW}_{_N_SHARDS}",
    )
    manifest = write_partitioned(
        curated, out_dir, key="doc_id", num_partitions=_N_SHARDS, resume=True
    )
    return pa.table(
        {
            "shard": manifest.column("part"),
            "n_docs": manifest.column("n_rows"),
        }
    )


_CURATION_SHARDS_SQL = f"""
WITH f AS ({{curation}}),
s AS (SELECT ((CAST(doc_id AS UBIGINT) * 2654435761) % 4294967296)
      % {_N_SHARDS} AS shard FROM f)
SELECT CAST(shard AS BIGINT) AS shard, COUNT(*) AS n_docs
FROM s GROUP BY shard
"""


def q_dup_cluster_sizes(sf_dir: str):
    """Exact-duplicate cluster-size histogram: group documents by
    normalized-text fingerprint (same normalization as doc_dedup_exact),
    then histogram the cluster sizes — the boilerplate-multiplicity
    profile a dedup pass is sized against. Two exchanges, the second
    over the tiny (size → count) domain; fingerprint hashing is md5 via
    one C call per doc (the doc_fingerprints kernel)."""
    import hashlib
    import re

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    ws = re.compile(r"\s+")

    def fp(tbl: pa.Table) -> pa.Table:
        texts = tbl.column("text").to_pylist()
        out = [
            hashlib.md5(ws.sub(" ", t.lower()).strip().encode()).hexdigest()
            for t in texts
        ]
        return pa.table({"fp": pa.array(out, pa.string())})

    sizes = (
        ds.map_batches(fp, batch_format="pyarrow")
        .groupby("fp")
        .aggregate(Count(alias_name="sz"))
        .select_columns(["sz"])
    )
    out = (
        sizes.groupby("sz")
        .aggregate(Count(alias_name="n_clusters"))
    )

    def rename(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cluster_size": tbl.column("sz").cast(pa.int64()),
                "n_clusters": tbl.column("n_clusters").cast(pa.int64()),
            }
        )

    return out.map_batches(rename, batch_format="pyarrow")


_DUP_CLUSTER_SQL = (
    "WITH c AS (SELECT COUNT(*) AS sz FROM documents "
    "GROUP BY md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))) "
    "SELECT CAST(sz AS BIGINT) AS cluster_size, "
    "CAST(COUNT(*) AS BIGINT) AS n_clusters FROM c GROUP BY sz"
)


def q_rectangle_count(sf_dir: str):
    """Exact 4-cycle (rectangle) count of the undirected derived graph:
    #C4 = ½ Σ_{u<w} C(codeg(u,w), 2) — the motif one up from triangles
    (algorithms/rectangles.py, butterfly-counting identity). Oracle:
    the same identity over a SQL common-neighbour self-join."""
    from signal_collect_ray.algorithms import rectangle_count

    n = rectangle_count(derived_edges_ds(sf_dir), num_partitions=32)
    return pa.table({"n_rectangles": pa.array([n], pa.int64())})


_RECT_SQL = f"""
WITH e0 AS ({_E_SQL}),
u AS (SELECT LEAST(src, dst) AS a, GREATEST(src, dst) AS b FROM e0 GROUP BY 1, 2),
sym AS (SELECT a AS v, b AS n FROM u UNION ALL SELECT b, a FROM u),
codeg AS (SELECT s1.n AS x, s2.n AS y, COUNT(*) AS c
          FROM sym s1 JOIN sym s2 ON s2.v = s1.v AND s1.n < s2.n
          GROUP BY 1, 2)
SELECT CAST(COALESCE(SUM(c * (c - 1) // 2), 0) // 2 AS BIGINT)
       AS n_rectangles FROM codeg
"""


def _graph_dag(sf_dir: str):
    """Acyclic subgraph: derived edges filtered to src < dst (a DAG by
    construction — edges always point id-upward)."""
    from signal_collect_ray import Graph

    key = (sf_dir, "dag")
    g = _GRAPH_CACHE.get(key)
    if g is None:

        def flt(tbl: pa.Table) -> pa.Table:
            s = tbl.column("src").to_numpy(zero_copy_only=False)
            d = tbl.column("dst").to_numpy(zero_copy_only=False)
            return tbl.filter(pa.array(s < d))

        g = Graph.build(
            derived_edges_ds(sf_dir).map_batches(flt, batch_format="pyarrow"),
            _work_dir(sf_dir, "graph_dag"),
            num_partitions=_P,
        )
        _GRAPH_CACHE[key] = g
    return g


def q_dag_layers(sf_dir: str):
    """Longest-path layering of the src<dst DAG, exactly 8 Jacobi
    rounds on BOTH sides (algorithms/dag.py DagLongestPath — the
    engine's dense min fold over negated layers; monotone, so an early
    fixpoint equals the round-8 value)."""
    from signal_collect_ray.algorithms import DagLongestPath, layers_from_state

    g = _graph_dag(sf_dir)
    eng = _engine(8, eps=0.0)
    info = eng.run(
        g, DagLongestPath(), run_dir=_work_dir(sf_dir, "run_dag"),
        resume=False, checkpoint_interval=50,
    )
    return layers_from_state(info.state_table())


def _dag_sql(k: int) -> str:
    """k-step unrolled Jacobi max-fold over the src<dst DAG."""
    ctes = [
        f"e0 AS MATERIALIZED ({_E_SQL})",
        "e AS (SELECT src, dst FROM e0 WHERE src < dst)",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "l0 AS (SELECT vid, 0 AS l FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"l{i} AS MATERIALIZED (SELECT v.vid, "
            f"GREATEST(own.l, COALESCE(MAX(nb.l + 1), 0)) AS l "
            f"FROM v JOIN l{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN l{i-1} nb ON nb.vid = e.src GROUP BY v.vid, own.l)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, CAST(l AS BIGINT) AS layer FROM l{k}"
    )


def q_sssp_tree(sf_dir: str):
    """Shortest-path-tree parents from the converged SSSP(0) run:
    parent(v) = min in-neighbor u with dist(u) + 1 = dist(v)
    (algorithms/sssp.py shortest_path_tree — broadcast distance map +
    one min exchange). Oracle: the _BFS_K-step distance unroll joined
    against the edge table."""
    from signal_collect_ray.algorithms import SSSP, shortest_path_tree

    t = _state(sf_dir, SSSP(0), False, 50, tag="_tree")
    out = shortest_path_tree(
        derived_edges_ds(sf_dir), t, num_partitions=_P
    )
    return pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    )


def _sssp_tree_sql(k: int, source: int = 0) -> str:
    inner = _sssp_sql(k, source)
    return (
        f"WITH dist AS (SELECT vid, dist FROM ({inner}) WHERE dist IS NOT NULL), "
        f"e AS ({_E_SQL}) "
        "SELECT e.dst AS vid, CAST(MIN(e.src) AS BIGINT) AS parent "
        "FROM e JOIN dist a ON a.vid = e.src "
        "JOIN dist b ON b.vid = e.dst AND b.dist = a.dist + 1 "
        "GROUP BY e.dst"
    )


def _vid_pr_deg(sf_dir: str):
    """(vid, 6-digit-rounded 4-step PageRank, in-degree) arrays —
    shared by the rank-composition queries (spearman / RRF). State
    tables are driver-resident at gate scale (same precedent as
    harmonic_closeness); at web scale the rank assignment runs through
    the broadcast counting-histogram percent-rank machinery and the
    fold distributes as per-block partials. Memoized per sf_dir."""
    key = (sf_dir, "vid_pr_deg")
    hit = _RESULT_CACHE.get(key)
    if hit is not None:
        return hit
    from signal_collect_ray.algorithms import PageRank

    t = _state(sf_dir, PageRank(), False, 4, eps=0.0, tag="_k4")
    vid = t.column("vid").to_numpy(zero_copy_only=False).astype(np.int64)
    pr = np.round(
        t.column("state").to_numpy(zero_copy_only=False).astype(np.float64), 6
    )
    et = pa.concat_tables(
        list(
            derived_edges_ds(sf_dir).select_columns(["dst"]).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    dst = et.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    vs = np.sort(vid)
    deg = np.bincount(
        np.searchsorted(vs, dst), minlength=len(vs)
    ).astype(np.int64)
    deg = deg[np.searchsorted(vs, vid)]  # align to state-table order
    out = (vid, pr, deg)
    _RESULT_CACHE[key] = out
    return out


def q_spearman_indeg_pagerank(sf_dir: str):
    """Spearman rank correlation between in-degree and 4-step PageRank
    — the centrality-agreement diagnostic. Ranks use the (value, vid)
    tie-break so they are a permutation and ρ = 1 − 6Σd²/(n(n²−1))
    applies exactly; PR values are rounded to 6 digits BEFORE ranking
    so the SQL mirror orders every tie identically."""
    vid, pr, deg = _vid_pr_deg(sf_dir)
    n = len(vid)
    rx = np.empty(n, dtype=np.int64)
    rx[np.lexsort((vid, deg))] = np.arange(1, n + 1)
    ry = np.empty(n, dtype=np.int64)
    ry[np.lexsort((vid, pr))] = np.arange(1, n + 1)
    d = (rx - ry).astype(np.float64)
    rho = 1.0 - 6.0 * float((d * d).sum()) / (n * (float(n) * n - 1.0))
    return pa.table({"rho": pa.array([round(rho, 6)], pa.float64())})


_SPEARMAN_SQL = f"""
WITH pr AS ({_pr_sql(4)}),
e AS ({_E_SQL}),
ind AS (SELECT dst, COUNT(*) AS c FROM e GROUP BY dst),
j AS (SELECT pr.vid, pr.rank AS r, COALESCE(ind.c, 0) AS deg
      FROM pr LEFT JOIN ind ON ind.dst = pr.vid),
rk AS (SELECT vid,
       ROW_NUMBER() OVER (ORDER BY deg, vid) AS rx,
       ROW_NUMBER() OVER (ORDER BY r, vid) AS ry FROM j)
SELECT ROUND(1 - 6.0 * SUM(CAST((rx - ry) * (rx - ry) AS DOUBLE))
       / (COUNT(*) * (CAST(COUNT(*) AS DOUBLE) * COUNT(*) - 1)), 6) AS rho
FROM rk
"""


_RRF_K = 60


def q_rrf_fused_top20(sf_dir: str):
    """Reciprocal-rank fusion (Cormack et al. 2009, public) of the
    in-degree and 4-step-PageRank rankings: score(v) =
    1/(60+r_deg(v)) + 1/(60+r_pr(v)) with descending-value ranks
    (ties broken by vid, so ranks are a permutation — mirrorable
    exactly), top 20 by (score desc, vid asc). The standard
    multi-signal result fusion for search/retrieval stacks."""
    vid, pr, deg = _vid_pr_deg(sf_dir)
    n = len(vid)
    r_deg = np.empty(n, dtype=np.int64)
    r_deg[np.lexsort((vid, -deg))] = np.arange(1, n + 1)
    r_pr = np.empty(n, dtype=np.int64)
    r_pr[np.lexsort((vid, -pr))] = np.arange(1, n + 1)
    score = np.round(
        1.0 / (_RRF_K + r_deg) + 1.0 / (_RRF_K + r_pr), 6
    )
    order = np.lexsort((vid, -score))[:20]
    return pa.table(
        {
            "vid": pa.array(vid[order], pa.int64()),
            "rrf": pa.array(score[order], pa.float64()),
        }
    )


_RRF_SQL = f"""
WITH pr AS ({_pr_sql(4)}),
e AS ({_E_SQL}),
ind AS (SELECT dst, COUNT(*) AS c FROM e GROUP BY dst),
j AS (SELECT pr.vid, pr.rank AS r, COALESCE(ind.c, 0) AS deg
      FROM pr LEFT JOIN ind ON ind.dst = pr.vid),
rk AS (SELECT vid,
       ROW_NUMBER() OVER (ORDER BY deg DESC, vid) AS rd,
       ROW_NUMBER() OVER (ORDER BY r DESC, vid) AS rp FROM j)
SELECT vid, ROUND(1.0 / ({_RRF_K} + rd) + 1.0 / ({_RRF_K} + rp), 6) AS rrf
FROM rk ORDER BY rrf DESC, vid ASC LIMIT 20
"""


def q_hourly_event_zscores(sf_dir: str):
    """Trailing-window anomaly score per hour: z = (c − mean(prev ≤24
    observed hours)) / stddev_samp(prev), over the hourly event-count
    series — the ops-dashboard anomaly detector. Counting is
    distributed (per-block hour bincount partials, one tiny groupby);
    the rolling pass runs on the aggregated series, whose length is
    hours-of-history — thousands of rows at any corpus scale."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])
    HOUR_US = 3_600_000_000

    def hr(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"hr": pa.array(ts // HOUR_US, pa.int64())})

    counts = (
        ds.map_batches(hr, batch_format="pyarrow")
        .groupby("hr")
        .aggregate(Count(alias_name="c"))
    )
    t = pa.concat_tables(
        list(counts.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    h = t.column("hr").to_numpy(zero_copy_only=False).astype(np.int64)
    c = t.column("c").to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.argsort(h, kind="stable")
    h, c = h[order], c[order]
    out_h, out_c, out_z = [], [], []
    for i in range(len(h)):
        lo = max(0, i - 24)
        w = c[lo:i]
        if len(w) >= 2:
            m = w.mean()
            s = w.std(ddof=1)
            if s > 0:
                out_h.append(int(h[i]))
                out_c.append(int(c[i]))
                out_z.append(round((c[i] - m) / s, 6))
    return pa.table(
        {
            "hr": pa.array(out_h, pa.int64()),
            "n_events": pa.array(out_c, pa.int64()),
            "z": pa.array(out_z, pa.float64()),
        }
    )


_HOURLY_Z_SQL = """
WITH h AS (SELECT epoch_us(ts) // 3600000000 AS hr, COUNT(*) AS c
           FROM events GROUP BY 1),
w AS (SELECT hr, c,
      AVG(c) OVER (ORDER BY hr ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING) AS m,
      STDDEV_SAMP(c) OVER (ORDER BY hr
                           ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING) AS s
      FROM h)
SELECT CAST(hr AS BIGINT) AS hr, CAST(c AS BIGINT) AS n_events,
       ROUND((c - m) / s, 6) AS z
FROM w WHERE s IS NOT NULL AND s > 0
"""


_CURVE_TAUS = (0.5, 0.6, 0.7, 0.8, 0.9)


def q_dedup_threshold_curve(sf_dir: str):
    """Dedup threshold-sensitivity curve: exact word-5-gram Jaccard
    pair counts at τ ∈ {0.5 … 0.9} from ONE inverted-index pass
    (ngram_jaccard_pairs at the loosest τ; the tighter buckets filter
    the same scored pair set — no re-shingling). The knob-tuning
    diagnostic a curation run consults before committing a dedup
    threshold. Buckets compare the 6-digit-rounded Jaccard on both
    sides."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import ngram_jaccard_pairs

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    pairs = ngram_jaccard_pairs(ds, shingle_k=5, threshold=_CURVE_TAUS[0])

    def partial(tbl: pa.Table) -> pa.Table:
        j = tbl.column("jaccard").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "threshold": pa.array(list(_CURVE_TAUS), pa.float64()),
                "n": pa.array(
                    [int((j >= t).sum()) for t in _CURVE_TAUS], pa.int64()
                ),
            }
        )

    parts = pairs.map_batches(partial, batch_format="pyarrow").take_all()
    tot = {t: 0 for t in _CURVE_TAUS}
    for r in parts:
        tot[r["threshold"]] += r["n"]
    return pa.table(
        {
            "threshold": pa.array(list(_CURVE_TAUS), pa.float64()),
            "n_pairs": pa.array([tot[t] for t in _CURVE_TAUS], pa.int64()),
        }
    )


def _curve_sql() -> str:
    taus = ", ".join(str(t) for t in _CURVE_TAUS)
    return (
        f"WITH base AS ({_ngram_pairs_sql(_CURVE_TAUS[0])}), "
        f"t AS (SELECT unnest([{taus}]) AS threshold) "
        "SELECT t.threshold, CAST(COUNT(b.id_a) AS BIGINT) AS n_pairs "
        "FROM t LEFT JOIN base b ON b.jaccard >= t.threshold "
        "GROUP BY t.threshold"
    )


_SKEW_P = 16


def q_partition_skew(sf_dir: str):
    """Shuffle-planning diagnostic: row count per hash partition of
    events.user_id under the engine's own mapper (util.part_of,
    Knuth multiplicative) at P=16, with the imbalance ratio
    n/avg — what an operator consults before picking partition counts
    and salting. Per-block bincount partials, one 16-row fold."""
    import ray.data as rd

    from signal_collect_ray.util import part_of

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )

    def partial(tbl: pa.Table) -> pa.Table:
        u = tbl.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n = np.bincount(part_of(u, _SKEW_P), minlength=_SKEW_P)
        return pa.table(
            {
                "part": pa.array(np.arange(_SKEW_P), pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    tot = np.zeros(_SKEW_P, dtype=np.int64)
    for r in parts:
        tot[r["part"]] += r["n"]
    avg = tot.sum() / _SKEW_P
    return pa.table(
        {
            "part": pa.array(np.arange(_SKEW_P), pa.int64()),
            "n_rows": pa.array(tot, pa.int64()),
            "imbalance": pa.array(
                np.round(tot / avg, 6), pa.float64()
            ),
        }
    )


_SKEW_SQL = f"""
WITH s AS (SELECT xor(
             ((CAST(user_id AS UBIGINT) % 4294967296) * 2654435761)
             % 4294967296,
             CAST(user_id AS UBIGINT) >> 32)
           % {_SKEW_P} AS part FROM events),
agg AS (SELECT part, COUNT(*) AS n FROM s GROUP BY part),
t AS (SELECT CAST(p.p AS BIGINT) AS part,
      CAST(COALESCE(agg.n, 0) AS BIGINT) AS n_rows
      FROM (SELECT UNNEST(range({_SKEW_P})) AS p) p
      LEFT JOIN agg ON agg.part = p.p)
SELECT part, n_rows,
       ROUND(n_rows / ((SELECT SUM(n_rows) FROM t) / {_SKEW_P}.0), 6)
       AS imbalance
FROM t
"""


def q_knn_label_consistency(sf_dir: str):
    """Label-noise probe: each vector's 3 nearest neighbors (cosine,
    self excluded, ties → smaller vec_id), their majority label (ties →
    smaller label), and whether it disagrees with the vector's own
    label — the standard embedding-space mislabel detector. The
    candidate side ships via similarity.candidate_chunks: one broadcast
    under the byte cap, a sequence of byte-capped id-ascending chunks
    above it; each query batch keeps a running per-row top-3 under the
    total order (sim desc, vec_id asc) — bit-identical to the
    single-matrix stable argsort (cap=0 A/B pinned in
    tests/test_capped_broadcast.py). Nothing O(V) on the driver."""
    import ray
    import ray.data as rd

    from signal_collect_ray.functions.similarity import (
        _emb_matrix,
        _normalize,
        candidate_chunks,
    )

    emb_src = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label", "embedding"],
    )
    refs = candidate_chunks(
        emb_src, extra_cols=("label",), max_chunk_bytes=_LOOKUP_CAP()
    )
    _SENT = np.int64(1) << 62  # sorts after every real id / label

    def kernel(tbl: pa.Table) -> pa.Table:
        q_ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
        own = tbl.column("label").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        q = _normalize(_emb_matrix(tbl, "embedding").astype(np.float64))
        n = len(q_ids)
        best_s = np.full((n, 3), -np.inf)
        best_id = np.full((n, 3), _SENT, dtype=np.int64)
        best_lab = np.full((n, 3), _SENT, dtype=np.int64)
        for r in refs:
            ch = ray.get(r)
            c_ids, c_labs, c_mat = ch["ids"], ch["label"], ch["mat"]
            # round to 6dp before ranking: the oracle computes cosine
            # via a different formula (list_cosine_similarity vs
            # normalized matmul); last-ulp differences on near-ties
            # would flip neighbor membership without a shared
            # quantization
            sims = _round_half_away(q @ c_mat.T, 6)
            pos = np.searchsorted(c_ids, q_ids)
            inb = pos < len(c_ids)
            hit = inb & (c_ids[np.minimum(pos, len(c_ids) - 1)] == q_ids)
            sims[np.flatnonzero(hit), pos[hit]] = -np.inf  # exclude self
            k = min(3, sims.shape[1])
            # per-chunk top-k under (sim desc, index asc = id asc)
            top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
            all_s = np.concatenate(
                [best_s, np.take_along_axis(sims, top, axis=1)], axis=1
            )
            all_id = np.concatenate([best_id, c_ids[top]], axis=1)
            all_lab = np.concatenate([best_lab, c_labs[top]], axis=1)
            # re-rank merged candidates: id asc, then stable sim desc
            # ⇒ total order (sim desc, vec_id asc), the global tie rule
            ord1 = np.argsort(all_id, axis=1, kind="stable")
            s1 = np.take_along_axis(all_s, ord1, axis=1)
            ord2 = np.argsort(-s1, axis=1, kind="stable")
            sel = np.take_along_axis(ord1, ord2, axis=1)[:, :3]
            best_s = np.take_along_axis(all_s, sel, axis=1)
            best_id = np.take_along_axis(all_id, sel, axis=1)
            best_lab = np.take_along_axis(all_lab, sel, axis=1)
        # majority of 3: the repeated label if any, else the smallest
        # (== bincount argmax first-max = smallest label)
        a, b, c = best_lab[:, 0], best_lab[:, 1], best_lab[:, 2]
        maj = np.minimum(np.minimum(a, b), c)
        maj = np.where(b == c, b, maj)
        maj = np.where(a == c, a, maj)
        maj = np.where(a == b, a, maj)
        return pa.table(
            {
                "vec_id": pa.array(q_ids, pa.int64()),
                "label": pa.array(own, pa.int64()),
                "nn_majority": pa.array(maj.astype(np.int64), pa.int64()),
                "mismatch": pa.array(
                    (own != maj).astype(np.int64), pa.int64()
                ),
            }
        )

    return emb_src.map_batches(kernel, batch_format="pyarrow")


_KNN_LABEL_SQL = """
WITH s AS (SELECT a.vec_id, a.label AS own, b.label AS nl,
      ROW_NUMBER() OVER (PARTITION BY a.vec_id
        ORDER BY ROUND(list_cosine_similarity(a.embedding, b.embedding),
                       6) DESC,
        b.vec_id) AS rn
      FROM embeddings a JOIN embeddings b ON b.vec_id <> a.vec_id),
t AS (SELECT vec_id, own, nl, COUNT(*) AS c FROM s WHERE rn <= 3
      GROUP BY 1, 2, 3),
m AS (SELECT vec_id, own, nl,
      ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY c DESC, nl ASC) AS r
      FROM t)
SELECT vec_id, CAST(own AS BIGINT) AS label,
       CAST(nl AS BIGINT) AS nn_majority,
       CAST(own <> nl AS BIGINT) AS mismatch
FROM m WHERE r = 1
"""


def q_doc_metrics_melted(sf_dir: str):
    """UNPIVOT/melt (functions/analytics.py melt — the inverse of
    pivot): per-doc (n_words, n_tokens, n_chars) widened to long
    (doc_id, metric, value) rows, one per-batch gather, no exchange.
    Oracle: three-way UNION ALL with the RE2-identical token regex."""
    import ray.data as rd

    from signal_collect_ray.functions.analytics import melt
    from signal_collect_ray.functions.text import TokenCount

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "n_chars"],
    )
    counted = ds.map_batches(TokenCount(), batch_format="pyarrow") \
        .select_columns(["doc_id", "n_words", "n_tokens", "n_chars"])
    return melt(
        counted, ["doc_id"], ["n_words", "n_tokens", "n_chars"]
    )


_MELT_SQL = """
WITH t AS (SELECT doc_id,
  CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_words,
  CAST(length(regexp_extract_all(text,
       '[A-Za-z]+|\\d+|[^\\sA-Za-z\\d]')) AS BIGINT) AS n_tokens,
  CAST(n_chars AS BIGINT) AS n_chars FROM documents)
SELECT doc_id, 'n_words' AS metric, n_words AS value FROM t
UNION ALL SELECT doc_id, 'n_tokens', n_tokens FROM t
UNION ALL SELECT doc_id, 'n_chars', n_chars FROM t
"""


def q_warc_roundtrip(sf_dir: str):
    """End-to-end WARC-lite source check: documents → minimal WARC 1.0
    response records (8 archive files, knuth-hash sharded) → distributed
    ``read_warc_lite`` parse → (doc_id, text) recovered from the
    WARC-Target-URI. Oracle: the documents table itself — byte-identical
    text through the archive round trip."""
    import ray.data as rd

    from signal_collect_ray.sources import read_warc_lite, write_warc_lite
    from signal_collect_ray.util import part_of

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    wdir = _work_dir(sf_dir, "warc")
    os.makedirs(wdir, exist_ok=True)
    n_shards = 8
    shards: dict = {i: [] for i in range(n_shards)}
    for b in docs.iter_batches(batch_format="pyarrow", batch_size=None):
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        sh = part_of(ids, n_shards)
        for i, t, s in zip(ids, b.column("text").to_pylist(), sh):
            shards[int(s)].append(
                (f"doc://{int(i)}", "2024-01-01T00:00:00Z", t or "")
            )
    paths = []
    for s, recs in shards.items():
        p = os.path.join(wdir, f"shard_{s}.warc")
        write_warc_lite(p, recs)
        paths.append(p)

    parsed = read_warc_lite(paths)

    def back(tbl: pa.Table) -> pa.Table:
        ids = np.array(
            [int(u[len("doc://"):]) for u in tbl.column("url").to_pylist()],
            dtype=np.int64,
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": tbl.column("text"),
            }
        )

    return parsed.map_batches(back, batch_format="pyarrow")


_Q18_MIN_QTY = 150


def q_large_orders(sf_dir: str):
    """TPC-H-Q18-flavored large-volume orders: per-order total quantity
    (exact int units, per-block segment-sum pre-combine + one hash
    exchange), HAVING > 150, then the small survivor set broadcast into
    the orders scan for o_custkey. The group-then-filter-then-join
    shape that makes Q18 the classic anti-broadcast trap — here the
    join is AFTER the reduction, so the broadcast side is tiny."""
    import ray.data as rd

    from signal_collect_ray.functions.joins import broadcast_join
    from signal_collect_ray.util import part_of, segment_sum

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        k = tbl.column("l_orderkey").to_numpy(zero_copy_only=False)
        # half-away rounding to match DuckDB ROUND (np.round is
        # half-to-even; quantities are integral so both agree today,
        # but an exact-.5 quantity would flip under np.round)
        q = _round_half_away(
            tbl.column("l_quantity").to_numpy(zero_copy_only=False), 0
        ).astype(np.int64)
        kk, qq = segment_sum(k, q)
        return pa.table(
            {
                "gpart": pa.array(part_of(kk, 32), pa.int32()),
                "o_orderkey": pa.array(kk, pa.int64()),
                "qty": pa.array(qq, pa.int64()),
            }
        )

    def final(tbl: pa.Table) -> pa.Table:
        kk, qq = segment_sum(
            tbl.column("o_orderkey").to_numpy(zero_copy_only=False),
            tbl.column("qty").to_numpy(zero_copy_only=False),
        )
        keep = qq > _Q18_MIN_QTY
        return pa.table(
            {
                "o_orderkey": pa.array(kk[keep], pa.int64()),
                "total_qty": pa.array(qq[keep], pa.int64()),
            }
        )

    big = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(final, batch_format="pyarrow")
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    )
    out = broadcast_join(orders, big, on="o_orderkey")
    return pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    ).select(["o_orderkey", "o_custkey", "total_qty"])


_Q18_SQL = f"""
WITH t AS (SELECT l_orderkey,
           CAST(SUM(CAST(ROUND(l_quantity, 0) AS BIGINT)) AS BIGINT) AS q
           FROM lineitem GROUP BY 1 HAVING q > {_Q18_MIN_QTY})
SELECT o.o_orderkey, o.o_custkey, t.q AS total_qty
FROM orders o JOIN t ON t.l_orderkey = o.o_orderkey
"""


def q_returned_revenue_top20(sf_dir: str):
    """TPC-H-Q10-flavored returned-item revenue: lineitems with
    l_returnflag = 'R', exact integer-cent revenue units, big-big
    hash_join to orders for the customer key, per-customer sum, exact
    global top-20 (revenue desc, custkey asc — rounded BEFORE the
    prune so the SQL mirror decides boundary rows identically)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import hash_join

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey", "l_extendedprice", "l_discount", "l_returnflag",
        ],
    )

    def rev(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(tbl.column("l_returnflag"), "R").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(bool)
        p = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
        d = tbl.column("l_discount").to_numpy(zero_copy_only=False)[keep]
        units = np.round(p * 100.0).astype(np.int64) * np.round(
            (1.0 - d) * 100.0
        ).astype(np.int64)
        k = tbl.column("l_orderkey").to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "l_orderkey": pa.array(k, pa.int64()),
                "rev": pa.array(units, pa.int64()),
            }
        )

    li = li.map_batches(rev, batch_format="pyarrow")
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
    ).rename_columns({"o_orderkey": "l_orderkey"})
    j = hash_join(li, orders, on="l_orderkey")
    agg = j.groupby("o_custkey").aggregate(Sum("rev", alias_name="units"))
    t = pa.concat_tables(
        list(agg.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    cust = t.column("o_custkey").to_numpy(zero_copy_only=False)
    rev_d = _round_half_away(
        t.column("units").to_numpy(zero_copy_only=False) / 10000.0, 2
    )
    order = np.lexsort((cust, -rev_d))[:20]
    return pa.table(
        {
            "c_custkey": pa.array(cust[order], pa.int64()),
            "revenue": pa.array(rev_d[order], pa.float64()),
        }
    )


_Q10_SQL = """
WITH r AS (SELECT o.o_custkey AS c_custkey,
           ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
                 * CAST(ROUND((1.0 - l.l_discount) * 100, 0) AS BIGINT))
                 / 10000.0, 2) AS revenue
           FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
           WHERE l.l_returnflag = 'R' GROUP BY 1)
SELECT c_custkey, revenue FROM r
ORDER BY revenue DESC, c_custkey ASC LIMIT 20
"""


def q_triangle_list(sf_dir: str):
    """Every distinct triangle as a canonical (a<b<c) row
    (algorithms/triangles.py triangle_list — the counting pipeline's
    wedge closure emitting corners instead of aggregating)."""
    from signal_collect_ray.algorithms import triangle_list

    out = triangle_list(derived_edges_ds(sf_dir), num_partitions=32)
    return pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    )


def q_source_vocab_overlap(sf_dir: str):
    """Pairwise source vocabulary Jaccard (functions/text.py
    source_vocab_overlap): one word-hash exchange, per-partition
    intersect1d pair partials, O(sources²) driver fold."""
    import ray.data as rd

    from signal_collect_ray.functions.text import source_vocab_overlap

    return source_vocab_overlap(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["source", "text"],
        )
    )


_SRC_VOCAB_SQL = """
WITH d AS (
  SELECT source,
         regexp_split_to_array(trim(lower(COALESCE(text, ''))), '\\s+') AS w
  FROM documents),
u AS (SELECT source, unnest(w) AS word FROM d),
ws AS (SELECT DISTINCT source, word FROM u WHERE word <> ''),
m AS (SELECT source, COUNT(*) AS nv FROM ws GROUP BY source),
c AS (SELECT a.source AS source_a, b.source AS source_b, COUNT(*) AS n_common
      FROM ws a JOIN ws b ON a.word = b.word AND a.source < b.source
      GROUP BY 1, 2)
SELECT c.source_a, c.source_b, CAST(c.n_common AS BIGINT) AS n_common,
       ROUND(c.n_common * 1.0 / (ma.nv + mb.nv - c.n_common), 6) AS jaccard
FROM c JOIN m ma ON ma.source = c.source_a
       JOIN m mb ON mb.source = c.source_b
"""


_PACK_L = 256
_PACK_SHARDS = 8


def q_sequence_packing(sf_dir: str):
    """GPT-style concat-and-split training-sequence packing
    (functions/text.py pack_sequences): whitespace token counts →
    knuth-hash shard → in-shard doc_id-order concatenation split into
    fixed 256-token blocks, straddling docs contributing one span per
    crossed block. Oracle: window cumsum + lateral UNNEST(range())."""
    import ray.data as rd

    from signal_collect_ray.functions.text import pack_sequences

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def count(tbl: pa.Table) -> pa.Table:
        from signal_collect_ray.functions.text import _RE2_NONSPACE_RE

        texts = tbl.column("text").to_pylist()
        # RE2-exact \S+ (matches _PACK_SQL's regexp_extract_all)
        n = np.array(
            [len(_RE2_NONSPACE_RE.findall(t or "")) for t in texts], np.int64
        )
        return pa.table(
            {"doc_id": tbl.column("doc_id"), "n": pa.array(n, pa.int64())}
        )

    counts = ds.map_batches(count, batch_format="pyarrow")
    return pack_sequences(
        counts, seq_len=_PACK_L, num_shards=_PACK_SHARDS
    )


_PACK_SQL = f"""
WITH t AS (SELECT doc_id,
           CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n,
           CAST(xor(
                  ((CAST(doc_id AS UBIGINT) % 4294967296) * 2654435761)
                  % 4294967296,
                  CAST(doc_id AS UBIGINT) >> 32)
                % {_PACK_SHARDS} AS BIGINT) AS shard
           FROM documents),
s AS (SELECT * FROM t WHERE n > 0),
o AS (SELECT doc_id, n, shard,
      CAST(COALESCE(SUM(n) OVER (PARTITION BY shard ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
      AS off
      FROM s)
SELECT shard, CAST(u.block AS BIGINT) AS block, doc_id,
       CAST(GREATEST(u.block * {_PACK_L}, off) - off AS BIGINT) AS doc_off,
       CAST(LEAST((u.block + 1) * {_PACK_L}, off + n)
            - GREATEST(u.block * {_PACK_L}, off) AS BIGINT) AS n_tok
FROM o, UNNEST(range(o.off // {_PACK_L},
                     (o.off + o.n - 1) // {_PACK_L} + 1)) AS u(block)
"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Round-4 session-3 relational + streaming shapes: the remaining TPC-H
# query skeletons the testdata schema can express (Q2/Q6/Q9/Q12/Q16/Q19/
# Q20 analogues — no partsupp table and no l_shipmode column exist, so
# Q2/Q9/Q16/Q20 substitute lineitem as the part–supplier relation and
# l_linestatus as the ship-mode proxy; each docstring states the
# substitution) plus a watermark/late-event streaming-semantics query.
# All money/quantity accumulation is exact-integer per the
# q_regional_revenue analysis; reference test-query provenance:
# /root/reference/src/test/scala/com/signalcollect/features/
# AggregationOperationsSpec.scala (aggregate shapes).
# ---------------------------------------------------------------------------


def _us_of(day: str) -> int:
    """Microseconds since epoch for an ISO date string — the shared
    timestamp-literal form of the shipdate-window queries."""
    return int(
        (np.datetime64(day) - np.datetime64("1970-01-01"))
        / np.timedelta64(1, "us")
    )


def q_forecast_revenue(sf_dir: str):
    """TPC-H-Q6-flavored forecast revenue: pure scan-filter-aggregate,
    no join, no shuffle — each block reduces to ONE int64 partial
    (exact 10^-4-dollar units), the driver folds O(blocks) scalars.
    The discount predicate compares integer cents on both sides so an
    IEEE artifact in `0.05 <= d` can never disagree with the oracle."""
    import ray.data as rd

    lo, hi = _us_of("1995-01-01"), _us_of("1997-01-01")

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("l_shipdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        d = tbl.column("l_discount").to_numpy(zero_copy_only=False)
        q = tbl.column("l_quantity").to_numpy(zero_copy_only=False)
        p = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = np.round(d * 100.0).astype(np.int64)
        keep = (ts >= lo) & (ts < hi) & (dc >= 5) & (dc <= 7) & (q < 24)
        units = int(
            (np.round(p[keep] * 100.0).astype(np.int64) * dc[keep]).sum()
        )
        return pa.table({"units": pa.array([units], pa.int64())})

    units = li.map_batches(partial, batch_format="pyarrow").sum("units")
    rev = float(_round_half_away(np.array([units / 10000.0]), 2)[0])
    return pa.table({"forecast_revenue": pa.array([rev], pa.float64())})


_Q6_SQL = """
SELECT ROUND(SUM(CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT)
       * CAST(ROUND(l_discount * 100, 0) AS BIGINT)) / 10000.0, 2)
       AS forecast_revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1995-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND CAST(ROUND(l_discount * 100, 0) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


_Q19_BRANCHES = (
    ("Brand#12", 15, 1, 21),
    ("Brand#23", 25, 10, 30),
    ("Brand#34", 35, 20, 40),
)


def q_disjunctive_revenue(sf_dir: str):
    """TPC-H-Q19-flavored disjunctive-predicate revenue: lineitem ⨝
    part (dimension broadcast, one searchsorted lookup per batch) under
    an OR of three (brand, size-range, quantity-range) conjunctions —
    the shape that defeats naive predicate pushdown. Each block reduces
    to one exact-int partial; output is a single revenue scalar."""
    import pyarrow.compute as pc
    import ray.data as rd

    from signal_collect_ray.functions.joins import broadcast_join

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).rename_columns({"p_partkey": "l_partkey"})
    j = broadcast_join(li, part, on="l_partkey")

    def partial(tbl: pa.Table) -> pa.Table:
        q = tbl.column("l_quantity").to_numpy(zero_copy_only=False)
        sz = tbl.column("p_size").to_numpy(zero_copy_only=False)
        brand = tbl.column("p_brand")
        keep = np.zeros(len(q), dtype=bool)
        for b, max_sz, q_lo, q_hi in _Q19_BRANCHES:
            bm = pc.equal(brand, b).combine_chunks().to_numpy(
                zero_copy_only=False
            ).astype(bool)
            keep |= bm & (sz >= 1) & (sz <= max_sz) & (q >= q_lo) & (q <= q_hi)
        p = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
        d = tbl.column("l_discount").to_numpy(zero_copy_only=False)[keep]
        units = int(
            (
                np.round(p * 100.0).astype(np.int64)
                * np.round((1.0 - d) * 100.0).astype(np.int64)
            ).sum()
        )
        return pa.table({"units": pa.array([units], pa.int64())})

    units = j.map_batches(partial, batch_format="pyarrow").sum("units")
    rev = float(_round_half_away(np.array([units / 10000.0]), 2)[0])
    return pa.table({"revenue": pa.array([rev], pa.float64())})


_Q19_SQL = """
SELECT ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
       * CAST(ROUND((1.0 - l.l_discount) * 100, 0) AS BIGINT)) / 10000.0, 2)
       AS revenue
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE (p.p_brand = 'Brand#12' AND p.p_size BETWEEN 1 AND 15
       AND l.l_quantity BETWEEN 1 AND 21)
   OR (p.p_brand = 'Brand#23' AND p.p_size BETWEEN 1 AND 25
       AND l.l_quantity BETWEEN 10 AND 30)
   OR (p.p_brand = 'Brand#34' AND p.p_size BETWEEN 1 AND 35
       AND l.l_quantity BETWEEN 20 AND 40)
"""


def q_nation_profit(sf_dir: str):
    """TPC-H-Q9-flavored profit by (supplier nation, ship year) over
    parts named like '%red%'. No partsupp table exists in this schema,
    so supply cost is proxied as 10% of p_retailprice — the JOIN SHAPE
    (fact ⨝ part ⨝ supplier ⨝ nation, two dimension broadcasts after an
    inner dimension filter) is the point. profit accumulates in exact
    10^-4-dollar int64 units: price_cents·(100−disc_cents) −
    qty·retail_cents·10; per-block Arrow group_by pre-combines the
    ≤ nations×years keys before the single tiny exchange."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import broadcast_join

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_partkey", "l_suppkey", "l_quantity",
            "l_extendedprice", "l_discount", "l_shipdate",
        ],
    )
    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_retailprice"],
    ).filter(lambda r: "red" in r["p_name"])

    def part_proj(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": tbl.column("p_partkey"),
                "retail_cents": pa.array(
                    np.round(
                        tbl.column("p_retailprice").to_numpy(
                            zero_copy_only=False
                        )
                        * 100.0
                    ).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    part = part.map_batches(part_proj, batch_format="pyarrow")
    j = broadcast_join(li, part, on="l_partkey")
    supp = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    ).rename_columns({"s_suppkey": "l_suppkey"})
    j = broadcast_join(j, supp, on="l_suppkey")
    nation = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    ).rename_columns({"n_nationkey": "s_nationkey"})
    j = broadcast_join(j, nation, on="s_nationkey")

    def partial(tbl: pa.Table) -> pa.Table:
        p = tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)
        d = tbl.column("l_discount").to_numpy(zero_copy_only=False)
        q = np.round(
            tbl.column("l_quantity").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        rc = tbl.column("retail_cents").to_numpy(zero_copy_only=False)
        dc = np.round(d * 100.0).astype(np.int64)
        amount = (
            np.round(p * 100.0).astype(np.int64) * (100 - dc) - q * rc * 10
        )
        yr = pc.year(tbl.column("l_shipdate")).cast(pa.int64())
        t = pa.table(
            {
                "n_name": tbl.column("n_name"),
                "yr": yr,
                "amount": pa.array(amount, pa.int64()),
            }
        )
        return t.group_by(["n_name", "yr"]).aggregate([("amount", "sum")]) \
            .rename_columns(["n_name", "yr", "amount"])

    agg = (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby(["n_name", "yr"])
        .aggregate(Sum("amount", alias_name="units"))
    )

    def rnd(tbl: pa.Table) -> pa.Table:
        units = tbl.column("units").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_name": tbl.column("n_name"),
                "yr": tbl.column("yr"),
                "profit": pa.array(
                    _round_half_away(units / 10000.0, 2), pa.float64()
                ),
            }
        )

    return agg.map_batches(rnd, batch_format="pyarrow")


_Q9_SQL = """
SELECT n.n_name, CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS yr,
  ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
        * (100 - CAST(ROUND(l.l_discount * 100, 0) AS BIGINT))
        - CAST(ROUND(l.l_quantity, 0) AS BIGINT)
        * CAST(ROUND(p.p_retailprice * 100, 0) AS BIGINT) * 10)
        / 10000.0, 2) AS profit
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey AND p.p_name LIKE '%red%'
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
GROUP BY 1, 2
"""


def q_min_cost_supplier(sf_dir: str):
    """TPC-H-Q2-flavored min-cost supplier per part (size 15, region
    EUROPE). No partsupp table exists, so the observed min
    l_extendedprice per (part, supplier) in lineitem stands in for
    ps_supplycost — the SHAPE is Q2's: restrict the part and supplier
    dimensions, aggregate offers, then pick each part's min-price
    supplier (ties → smallest suppkey). Both dimension filters are
    broadcast membership lookups; offers pre-combine per block with
    segment_min before ONE hash exchange on partkey."""
    import ray
    import ray.data as rd

    from signal_collect_ray.util import part_of, segment_min

    # dimension chain: suppliers in EUROPE (tiny — nation⨝region on the
    # driver is O(dim) by construction)
    supp = pa.concat_tables(
        rd.read_parquet(
            os.path.join(sf_dir, "supplier.parquet"),
            columns=["s_suppkey", "s_name", "s_nationkey"],
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    nation = pa.concat_tables(
        rd.read_parquet(
            os.path.join(sf_dir, "nation.parquet")
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    region = pa.concat_tables(
        rd.read_parquet(
            os.path.join(sf_dir, "region.parquet")
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    eu_rk = region.column("r_regionkey").to_numpy(zero_copy_only=False)[
        np.array(region.column("r_name").to_pylist()) == "EUROPE"
    ]
    nk = nation.column("n_nationkey").to_numpy(zero_copy_only=False)
    eu_nk = nk[
        np.isin(
            nation.column("n_regionkey").to_numpy(zero_copy_only=False), eu_rk
        )
    ]
    sk_all = supp.column("s_suppkey").to_numpy(zero_copy_only=False)
    eu_mask = np.isin(
        supp.column("s_nationkey").to_numpy(zero_copy_only=False), eu_nk
    )
    eu_sk = np.sort(sk_all[eu_mask].astype(np.int64))
    name_of = dict(
        zip(
            sk_all[eu_mask].tolist(),
            [supp.column("s_name").to_pylist()[i]
             for i in np.flatnonzero(eu_mask)],
        )
    )

    pk15 = np.sort(
        pa.concat_tables(
            rd.read_parquet(
                os.path.join(sf_dir, "part.parquet"),
                columns=["p_partkey", "p_size"],
            )
            .filter(lambda r: r["p_size"] == 15)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
        .column("p_partkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    pk_ref = ray.put(pk15)
    sk_ref = ray.put(eu_sk)

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )

    n_parts = 32

    def offers(tbl: pa.Table) -> pa.Table:
        pks = ray.get(pk_ref)
        sks = ray.get(sk_ref)
        pk = tbl.column("l_partkey").to_numpy(zero_copy_only=False)
        sk = tbl.column("l_suppkey").to_numpy(zero_copy_only=False)
        pi = np.searchsorted(pks, pk)
        pi[pi >= len(pks)] = 0
        si = np.searchsorted(sks, sk)
        si[si >= len(sks)] = 0
        keep = (pks[pi] == pk) & (sks[si] == sk)
        pk, sk = pk[keep], sk[keep]
        price = np.round(
            tbl.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
            * 100.0
        ).astype(np.int64)
        # composite (pk, sk) key for the per-block pre-combine; suppkeys
        # fit 20 bits at any realistic supplier count — asserted so a
        # larger deployment fails loudly rather than aliasing keys
        assert sk.max(initial=0) < (1 << 20) and pk.max(initial=0) < (1 << 43)
        comp = (pk << 20) | sk
        ck, cv = segment_min(comp, price)
        return pa.table(
            {
                "gpart": pa.array(part_of(ck >> 20, n_parts), pa.int32()),
                "comp": pa.array(ck, pa.int64()),
                "price": pa.array(cv, pa.int64()),
            }
        )

    def best(tbl: pa.Table) -> pa.Table:
        comp = tbl.column("comp").to_numpy(zero_copy_only=False)
        price = tbl.column("price").to_numpy(zero_copy_only=False)
        ck, cv = segment_min(comp, price)  # fold cross-block duplicates
        pk, sk = ck >> 20, ck & ((1 << 20) - 1)
        # per part: min price, tie-break min suppkey
        order = np.lexsort((sk, cv, pk))
        pk, sk, cv = pk[order], sk[order], cv[order]
        first = np.ones(len(pk), dtype=bool)
        first[1:] = pk[1:] != pk[:-1]
        return pa.table(
            {
                "p_partkey": pa.array(pk[first], pa.int64()),
                "s_suppkey": pa.array(sk[first], pa.int64()),
                "price": pa.array(cv[first], pa.int64()),
            }
        )

    out = (
        li.map_batches(offers, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(best, batch_format="pyarrow")
    )
    t = pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    sk = t.column("s_suppkey").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "p_partkey": t.column("p_partkey"),
            "s_suppkey": t.column("s_suppkey"),
            "s_name": pa.array(
                [name_of[int(s)] for s in sk], pa.string()
            ),
            "min_price": pa.array(
                t.column("price").to_numpy(zero_copy_only=False) / 100.0,
                pa.float64(),
            ),
        }
    )


_Q2_SQL = """
WITH offers AS (
  SELECT l.l_partkey AS pk, l.l_suppkey AS sk,
         MIN(CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)) AS price
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey AND p.p_size = 15
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation n ON n.n_nationkey = s.s_nationkey
  JOIN region r ON r.r_regionkey = n.n_regionkey AND r.r_name = 'EUROPE'
  GROUP BY 1, 2),
best AS (SELECT pk, sk, price,
         ROW_NUMBER() OVER (PARTITION BY pk ORDER BY price, sk) AS rn
         FROM offers)
SELECT b.pk AS p_partkey, b.sk AS s_suppkey, s.s_name,
       ROUND(b.price / 100.0, 2) AS min_price
FROM best b JOIN supplier s ON s.s_suppkey = b.sk WHERE b.rn = 1
"""


_Q16_SIZES = (1, 4, 7, 10, 13, 16, 19, 22)


def q_part_supplier_counts(sf_dir: str):
    """TPC-H-Q16-flavored distinct-supplier counts per (brand, type,
    size), lineitem standing in for partsupp, excluding negative-balance
    suppliers (the NOT IN shape, a tiny broadcast exclusion set). The
    scale move: every block first collapses to its DISTINCT
    (brand,type,size,suppkey) rows with one vectorized Arrow group_by —
    the exchange then carries near-|groups| rows, not |lineitem|; the
    per-group distinct count is an np.unique over one group."""
    import ray
    import ray.data as rd

    from signal_collect_ray.functions.joins import broadcast_join

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey"],
    )
    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    ).filter(
        lambda r: r["p_brand"] != "Brand#45"
        and r["p_type"] != "PROMO"
        and r["p_size"] in _Q16_SIZES
    ).rename_columns({"p_partkey": "l_partkey"})
    j = broadcast_join(li, part, on="l_partkey")

    bad_batches = list(
        rd.read_parquet(
            os.path.join(sf_dir, "supplier.parquet"),
            columns=["s_suppkey", "s_acctbal"],
        )
        .filter(lambda r: r["s_acctbal"] < 0)
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    bad = (
        np.sort(
            pa.concat_tables(bad_batches)
            .column("s_suppkey")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        if bad_batches
        else np.empty(0, dtype=np.int64)
    )
    bad_ref = ray.put(bad)

    def distinct(tbl: pa.Table) -> pa.Table:
        b = ray.get(bad_ref)
        sk = tbl.column("l_suppkey").to_numpy(zero_copy_only=False)
        if len(b):
            i = np.searchsorted(b, sk)
            i[i >= len(b)] = 0
            t = tbl.filter(pa.array(b[i] != sk))
        else:
            t = tbl
        t = t.select(
            ["p_brand", "p_type", "p_size", "l_suppkey"]
        )
        return t.group_by(
            ["p_brand", "p_type", "p_size", "l_suppkey"]
        ).aggregate([])

    def count_group(tbl: pa.Table) -> pa.Table:
        sk = tbl.column("l_suppkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_brand": tbl.column("p_brand").slice(0, 1),
                "p_type": tbl.column("p_type").slice(0, 1),
                "p_size": tbl.column("p_size").slice(0, 1).cast(pa.int64()),
                "supplier_cnt": pa.array(
                    [len(np.unique(sk))], pa.int64()
                ),
            }
        )

    return (
        j.map_batches(distinct, batch_format="pyarrow")
        .groupby(["p_brand", "p_type", "p_size"])
        .map_groups(count_group, batch_format="pyarrow")
    )


_Q16_SQL = f"""
SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
       CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_brand <> 'Brand#45' AND p.p_type <> 'PROMO'
  AND p.p_size IN {_Q16_SIZES}
  AND l.l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2, 3
"""


_Q20_MIN_QTY = 100


def q_excess_suppliers(sf_dir: str):
    """TPC-H-Q20-flavored heavy suppliers of 'small%'-named parts:
    suppliers whose 1995–1997 shipped quantity of those parts exceeds a
    threshold (availqty doesn't exist in this schema, so shipped volume
    replaces the stock predicate; the semi-join-then-threshold SHAPE is
    Q20's). Part filter is a broadcast membership set; quantities are
    exact int64; per-block segment_sum → one small suppkey exchange →
    the tiny survivor set broadcasts into the supplier dimension."""
    import ray
    import ray.data as rd

    from signal_collect_ray.functions.joins import broadcast_join
    from signal_collect_ray.util import part_of, segment_sum

    lo, hi = _us_of("1995-01-01"), _us_of("1998-01-01")

    pk = np.sort(
        pa.concat_tables(
            rd.read_parquet(
                os.path.join(sf_dir, "part.parquet"),
                columns=["p_partkey", "p_name"],
            )
            .filter(lambda r: r["p_name"].startswith("small"))
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
        .column("p_partkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    pk_ref = ray.put(pk)

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        pks = ray.get(pk_ref)
        ts = tbl.column("l_shipdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        p = tbl.column("l_partkey").to_numpy(zero_copy_only=False)
        i = np.searchsorted(pks, p)
        i[i >= len(pks)] = 0
        keep = (pks[i] == p) & (ts >= lo) & (ts < hi)
        sk = tbl.column("l_suppkey").to_numpy(zero_copy_only=False)[keep]
        q = np.round(
            tbl.column("l_quantity").to_numpy(zero_copy_only=False)[keep]
        ).astype(np.int64)
        kk, qq = segment_sum(sk, q)
        return pa.table(
            {
                "gpart": pa.array(part_of(kk, 32), pa.int32()),
                "s_suppkey": pa.array(kk, pa.int64()),
                "qty": pa.array(qq, pa.int64()),
            }
        )

    def final(tbl: pa.Table) -> pa.Table:
        kk, qq = segment_sum(
            tbl.column("s_suppkey").to_numpy(zero_copy_only=False),
            tbl.column("qty").to_numpy(zero_copy_only=False),
        )
        keep = qq > _Q20_MIN_QTY
        return pa.table(
            {
                "s_suppkey": pa.array(kk[keep], pa.int64()),
                "total_qty": pa.array(qq[keep], pa.int64()),
            }
        )

    heavy = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(final, batch_format="pyarrow")
    )
    supp = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"],
    )
    out = broadcast_join(supp, heavy, on="s_suppkey")
    return pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    ).select(["s_suppkey", "s_name", "total_qty"])


_Q20_SQL = f"""
SELECT l.l_suppkey AS s_suppkey, s.s_name,
       CAST(SUM(CAST(ROUND(l.l_quantity, 0) AS BIGINT)) AS BIGINT)
       AS total_qty
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey AND p.p_name LIKE 'small%'
JOIN supplier s ON s.s_suppkey = l.l_suppkey
WHERE l.l_shipdate >= TIMESTAMP '1995-01-01'
  AND l.l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY 1, 2 HAVING SUM(CAST(ROUND(l.l_quantity, 0) AS BIGINT))
  > {_Q20_MIN_QTY}
"""


def q_linestatus_priority(sf_dir: str):
    """TPC-H-Q12-flavored priority split per line status (the schema
    has no l_shipmode, so l_linestatus is the two-valued proxy): 1996
    shipments hash-join orders for o_orderpriority, each block reduces
    to ≤2 (status, high, low) partial rows before the final
    2-row groupby — the classic conditional-aggregation-after-join."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import hash_join

    lo, hi = _us_of("1996-01-01"), _us_of("1997-01-01")

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linestatus", "l_shipdate"],
    )

    def window(tbl: pa.Table) -> pa.Table:
        ts = tbl.column("l_shipdate").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = (ts >= lo) & (ts < hi)
        return tbl.filter(pa.array(keep)).select(
            ["l_orderkey", "l_linestatus"]
        )

    li = li.map_batches(window, batch_format="pyarrow")
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    ).rename_columns({"o_orderkey": "l_orderkey"})
    j = hash_join(li, orders, on="l_orderkey")

    def partial(tbl: pa.Table) -> pa.Table:
        prio = tbl.column("o_orderpriority")
        high = pc.or_(
            pc.equal(prio, "1-URGENT"), pc.equal(prio, "2-HIGH")
        ).combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "l_linestatus": tbl.column("l_linestatus"),
                "high": pa.array(high, pa.int64()),
                "low": pa.array(1 - high, pa.int64()),
            }
        )
        return t.group_by(["l_linestatus"]).aggregate(
            [("high", "sum"), ("low", "sum")]
        ).rename_columns(["l_linestatus", "high", "low"])

    return (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby("l_linestatus")
        .aggregate(
            Sum("high", alias_name="high_count"),
            Sum("low", alias_name="low_count"),
        )
    )


_Q12_SQL = """
SELECT l.l_linestatus,
  CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
       THEN 1 ELSE 0 END) AS BIGINT) AS high_count,
  CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
       THEN 0 ELSE 1 END) AS BIGINT) AS low_count
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
  AND l.l_shipdate < TIMESTAMP '1997-01-01'
GROUP BY 1
"""


_LATE_LATENESS_US = 300 * 1_000_000


def q_late_events(sf_dir: str):
    """Watermark / late-data semantics over the event stream: arrival
    order is modeled as a deterministic Knuth-hash permutation of
    event_id (the table itself is time-ordered, so the permutation IS
    the out-of-order replay); an event is LATE if its timestamp is more
    than 300 s behind the per-user running-max watermark at its arrival.
    One hash exchange on user_id, then a vectorized pandas grouped
    cummax-shift per partition — integer-µs compares, so the oracle
    window query agrees bit-for-bit. Precondition (asserted): event_id
    < 2^32 so the permutation key can't overflow int64 on either side."""
    import ray.data as rd

    from signal_collect_ray.util import part_of

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    n_parts = 32

    def shard(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "gpart", pa.array(part_of(uid, n_parts), pa.int32())
        )

    def late_counts(tbl: pa.Table) -> pa.Table:
        import pandas as pd

        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        assert eid.max(initial=0) < (1 << 32), "arrival permutation overflow"
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        arrival = (eid * 2654435761) % (1 << 32)
        order = np.lexsort((eid, arrival, uid))
        df = pd.DataFrame(
            {"u": uid[order], "ts": ts[order]}
        )
        g = df.groupby("u", sort=False)
        wm = g["ts"].cummax().groupby(df["u"], sort=False).shift(1)
        late = (df["ts"] < wm - _LATE_LATENESS_US).to_numpy()
        out = pd.DataFrame({"u": df["u"], "late": late.astype(np.int64)})
        agg = out.groupby("u", sort=False).agg(
            late_events=("late", "sum"), total_events=("late", "size")
        ).reset_index()
        return pa.table(
            {
                "user_id": pa.array(agg["u"].to_numpy(), pa.int64()),
                "late_events": pa.array(
                    agg["late_events"].to_numpy(), pa.int64()
                ),
                "total_events": pa.array(
                    agg["total_events"].to_numpy(), pa.int64()
                ),
            }
        )

    return (
        ev.map_batches(shard, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(late_counts, batch_format="pyarrow")
        .select_columns(["user_id", "late_events", "total_events"])
    )


_LATE_SQL = """
WITH w AS (
  SELECT user_id, ts,
         MAX(ts) OVER (PARTITION BY user_id
           ORDER BY (event_id * 2654435761) % 4294967296, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events)
SELECT user_id,
  CAST(COUNT(*) FILTER (WHERE ts < wm - INTERVAL 300 SECOND) AS BIGINT)
    AS late_events,
  CAST(COUNT(*) AS BIGINT) AS total_events
FROM w GROUP BY 1
"""



def q_four_cliques(sf_dir: str):
    """Exact 4-clique count (algorithms/cliques.py four_clique_count):
    degree-ordered orientation makes each clique a totally-ordered DAG,
    each oriented triangle (u,v,w) contributes |N+(u)∩N+(v)∩N+(w)|
    via one vectorized bitset AND + popcount per batch. Oracle: the
    canonical 6-way self-join over the undirected edge set."""
    from signal_collect_ray.algorithms.cliques import four_clique_count

    n = four_clique_count(derived_edges_ds(sf_dir), num_partitions=32)
    return pa.table({"four_cliques": pa.array([n], pa.int64())})


_FOUR_CLIQUE_SQL = f"""
WITH ue AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
            FROM ({_E_SQL}))
SELECT CAST(COUNT(*) AS BIGINT) AS four_cliques FROM ue e1
JOIN ue e2 ON e2.a = e1.a AND e2.b > e1.b
JOIN ue e3 ON e3.a = e1.b AND e3.b = e2.b
JOIN ue e4 ON e4.a = e1.a
JOIN ue e5 ON e5.a = e1.b AND e5.b = e4.b
JOIN ue e6 ON e6.a = e2.b AND e6.b = e4.b
WHERE e4.b > e2.b
"""


_SPARSE_MOD = 20


def _sparse_edges_ds(sf_dir: str):
    """Deterministically hash-sampled (1/20) canonical undirected edges
    of the derived graph — the dense 500-vertex query graph has no
    triangle-free edges, so structure queries that need sparsity share
    this thinned view (both sides express the identical predicate)."""
    from signal_collect_ray.algorithms.triangles import _unique_undirected

    uniq = _unique_undirected(derived_edges_ds(sf_dir))

    def thin(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        h = (a * 2654435761 + b * 40503) % (1 << 32)
        t = tbl.filter(pa.array(h % _SPARSE_MOD == 0))
        return pa.table(
            {"src": t.column("a"), "dst": t.column("b")}
        )

    return uniq.map_batches(thin, batch_format="pyarrow")


def q_local_bridges(sf_dir: str):
    """Granovetter local bridges — edges whose endpoints share NO
    common neighbor (span > 2) — over the hash-thinned derived graph
    (algorithms/cliques.py local_bridges, vectorized bitset AND per
    batch). Oracle: NOT EXISTS wedge join on the same thinned edges."""
    from signal_collect_ray.algorithms.cliques import local_bridges

    out = local_bridges(_sparse_edges_ds(sf_dir), num_partitions=32)
    return pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    )


_LOCAL_BRIDGE_SQL = f"""
WITH ue0 AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
             FROM ({_E_SQL})),
se AS (SELECT a, b FROM ue0
       WHERE ((a * 2654435761 + b * 40503) % 4294967296)
             % {_SPARSE_MOD} = 0),
nbr AS (SELECT a AS u, b AS v FROM se UNION ALL SELECT b, a FROM se)
SELECT se.a, se.b FROM se WHERE NOT EXISTS (
  SELECT 1 FROM nbr x JOIN nbr y ON x.v = y.v
  WHERE x.u = se.a AND y.u = se.b)
"""


def q_nation_order_median(sf_dir: str):
    """Exact distributed median order value per customer nation — the
    counting-histogram selection shape: each block pre-aggregates
    (nation, cents) counts with one Arrow group_by, ONE exchange on
    nation carries only distinct-value histograms, and the k-th /
    (k+1)-th selection walks the per-nation cumsum. No global sort, no
    driver-held value vector."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import broadcast_join

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_totalprice"],
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    ).rename_columns({"c_custkey": "o_custkey"})
    nation = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    ).rename_columns({"n_nationkey": "c_nationkey"})
    j = broadcast_join(
        broadcast_join(orders, cust, on="o_custkey"),
        nation,
        on="c_nationkey",
    )

    def hist(tbl: pa.Table) -> pa.Table:
        cents = np.round(
            tbl.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        t = pa.table(
            {
                "n_name": tbl.column("n_name"),
                "cents": pa.array(cents, pa.int64()),
                "cnt": pa.array(np.ones(len(cents), np.int64), pa.int64()),
            }
        )
        return t.group_by(["n_name", "cents"]).aggregate([("cnt", "sum")]) \
            .rename_columns(["n_name", "cents", "cnt"])

    counts = (
        j.map_batches(hist, batch_format="pyarrow")
        .groupby(["n_name", "cents"])
        .aggregate(Sum("cnt", alias_name="n"))
    )

    def median_of(tbl: pa.Table) -> pa.Table:
        cents = tbl.column("cents").to_numpy(zero_copy_only=False)
        n = tbl.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(cents)
        cents, n = cents[order], n[order]
        cum = np.cumsum(n)
        total = int(cum[-1])
        if total % 2:
            med = float(cents[np.searchsorted(cum, total // 2 + 1)])
        else:
            lo = float(cents[np.searchsorted(cum, total // 2)])
            hi = float(cents[np.searchsorted(cum, total // 2 + 1)])
            med = (lo + hi) / 2.0
        return pa.table(
            {
                "n_name": tbl.column("n_name").slice(0, 1),
                "median_price": pa.array([med / 100.0], pa.float64()),
            }
        )

    return counts.groupby("n_name").map_groups(
        median_of, batch_format="pyarrow"
    )


_NATION_MEDIAN_SQL = """
SELECT n.n_name,
       MEDIAN(CAST(ROUND(o.o_totalprice * 100, 0) AS BIGINT)) / 100.0
       AS median_price
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY 1
"""


_TFIDF_SCALE = 1_000_000
_TFIDF_MAX_DF_FRAC = 0.2


def q_tfidf_pair_dot(sf_dir: str):
    """Top-20 document pairs by integer tf-idf dot product — the IR
    pairwise-similarity shape kept EXACT by quantizing idf to int64
    micro-units (tf · round(ln(N/df)·1e6)) so the distributed sum is
    order-independent (the float-cosine rank-flip class from ADVICE r3
    can't occur). Inverted-index pair generation: one exchange on term,
    per-term pair partials pre-summed per partition, a second tiny
    exchange on the pair key, per-block top-20 heaps folded on the
    driver. df=1 terms prune early (they can't contribute to a pair),
    and ubiquitous terms (df > 20% of the corpus) are dropped on BOTH
    sides — classic df-based stopword pruning, and the scale guard: a
    term in every doc otherwise emits O(N²) pair partials."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.text import _RE2_NONSPACE_RE
    from signal_collect_ray.util import part_of

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    n_docs = docs.count()

    def term_counts(tbl: pa.Table) -> pa.Table:
        from collections import Counter

        ids, terms, cnts = [], [], []
        for did, text in zip(
            tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()
        ):
            for t, c in Counter(
                _RE2_NONSPACE_RE.findall(text or "")
            ).items():
                ids.append(did)
                terms.append(t)
                cnts.append(c)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "c": pa.array(cnts, pa.int64()),
            }
        )

    tf = docs.map_batches(term_counts, batch_format="pyarrow")

    def by_term(tbl: pa.Table) -> pa.Table:
        import hashlib

        terms = tbl.column("term").to_pylist()
        h = np.array(
            [
                int.from_bytes(
                    hashlib.blake2b(
                        t.encode(), digest_size=8
                    ).digest(), "little"
                ) >> 1
                for t in terms
            ],
            dtype=np.int64,
        )
        return tbl.append_column(
            "gpart", pa.array(part_of(h, 32), pa.int32())
        )

    def pair_partials(tbl: pa.Table) -> pa.Table:
        """One term partition: per-term weights then all (a<b) pair
        products, pre-summed per pair within the partition."""
        t = tbl.select(["doc_id", "term", "c"]).sort_by("term")
        terms = np.array(t.column("term").to_pylist())
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        c = t.column("c").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(
            np.concatenate([[True], terms[1:] != terms[:-1]])
        )
        ends = np.concatenate([starts[1:], [len(terms)]])
        max_df = max(2, int(n_docs * _TFIDF_MAX_DF_FRAC))
        pa_, pb_, pw_ = [], [], []
        for s, e in zip(starts, ends):
            df = e - s
            if df < 2 or df > max_df:
                continue
            idf = int(np.round(np.log(n_docs / df) * _TFIDF_SCALE))
            if idf <= 0:
                continue
            w = c[s:e] * idf
            d = ids[s:e]
            o = np.argsort(d)
            d, w = d[o], w[o]
            ii, jj = np.triu_indices(df, k=1)
            pa_.append(d[ii])
            pb_.append(d[jj])
            pw_.append(w[ii] * w[jj])
        if not pa_:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "dot": pa.array([], pa.int64()),
                }
            )
        a = np.concatenate(pa_)
        b = np.concatenate(pb_)
        w = np.concatenate(pw_)
        assert a.max(initial=0) < (1 << 31) and b.max(initial=0) < (1 << 31)
        comp = (a << 31) | b
        ck, cw = segment_sum_sorted(comp, w)
        return pa.table(
            {
                "a": pa.array(ck >> 31, pa.int64()),
                "b": pa.array(ck & ((1 << 31) - 1), pa.int64()),
                "dot": pa.array(cw, pa.int64()),
            }
        )

    from signal_collect_ray.util import segment_sum as segment_sum_sorted

    pairs = (
        tf.map_batches(by_term, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(pair_partials, batch_format="pyarrow")
    )

    def shard_pair(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "ppart", pa.array(part_of(a, 32), pa.int32())
        )

    def fold_topk(tbl: pa.Table) -> pa.Table:
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        b = tbl.column("b").to_numpy(zero_copy_only=False)
        w = tbl.column("dot").to_numpy(zero_copy_only=False)
        comp = (a << 31) | b
        ck, cw = segment_sum_sorted(comp, w)
        order = np.lexsort((ck & ((1 << 31) - 1), ck >> 31, -cw))[:20]
        return pa.table(
            {
                "a": pa.array((ck >> 31)[order], pa.int64()),
                "b": pa.array((ck & ((1 << 31) - 1))[order], pa.int64()),
                "dot": pa.array(cw[order], pa.int64()),
            }
        )

    folded = (
        pairs.map_batches(shard_pair, batch_format="pyarrow")
        .groupby("ppart")
        .map_groups(fold_topk, batch_format="pyarrow")
    )
    t = pa.concat_tables(
        list(folded.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    a = t.column("a").to_numpy(zero_copy_only=False)
    b = t.column("b").to_numpy(zero_copy_only=False)
    w = t.column("dot").to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a, -w))[:20]
    return pa.table(
        {
            "a": pa.array(a[order], pa.int64()),
            "b": pa.array(b[order], pa.int64()),
            "dot": pa.array(w[order], pa.int64()),
        }
    )


_TFIDF_PAIR_SQL = f"""
WITH tok AS (SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS term
             FROM documents),
tf AS (SELECT doc_id, term, COUNT(*) AS c FROM tok GROUP BY 1, 2),
df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY 1),
n AS (SELECT COUNT(*) AS nd FROM documents),
w AS (SELECT tf.doc_id, tf.term,
      tf.c * CAST(ROUND(LN(n.nd * 1.0 / df.df) * {_TFIDF_SCALE}, 0)
                  AS BIGINT) AS wt
      FROM tf JOIN df USING (term) CROSS JOIN n
      WHERE df.df > 1
        AND df.df <= GREATEST(2, CAST(FLOOR(n.nd * {_TFIDF_MAX_DF_FRAC})
                                      AS BIGINT))
        AND CAST(ROUND(LN(n.nd * 1.0 / df.df) * {_TFIDF_SCALE}, 0)
                 AS BIGINT) > 0),
pairs AS (SELECT w1.doc_id AS a, w2.doc_id AS b,
          CAST(SUM(w1.wt * w2.wt) AS BIGINT) AS dot
          FROM w w1 JOIN w w2 ON w1.term = w2.term
                    AND w1.doc_id < w2.doc_id
          GROUP BY 1, 2)
SELECT a, b, dot FROM pairs ORDER BY dot DESC, a, b LIMIT 20
"""


def q_trigram_backoff(sf_dir: str):
    """Stupid-backoff trigram coverage of held-out documents against
    the 80% training split: per test doc, how many of its trigrams hit
    the train trigram set (hit3), back off to a train bigram (hit2 —
    disjoint, since every train trigram implies its bigram), or back
    off to a unigram (hit1). Counts, not log-probs, so the result is
    integer-exact. Three hash_join SEMI joins on the n-gram key (big-
    big co-partitioned, no broadcast vocabulary), then one tagged-union
    groupby folds the four per-doc counters — the LM-scoring shape of
    data-curation pipelines with none of the float flake."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.functions.joins import hash_join
    from signal_collect_ray.functions.text import _RE2_NONSPACE_RE

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )

    def tri_rows(train: bool):
        # n-gram keys as int64 hashes (blake2b per DISTINCT token, then
        # a vectorized splitmix-style combine): the three semi-joins
        # take hash_join's numeric fast path instead of per-row string
        # hashing — 3x faster at sf0.1. Counts are exact up to 63-bit
        # collisions (~n²/2⁶³, the same argument as shingle hashing).
        import hashlib

        M1 = np.uint64(0x9E3779B97F4A7C15)
        M2 = np.uint64(0xC2B2AE3D27D4EB4F)
        MASK = np.int64((1 << 63) - 1)

        def tok_hash(tok: str) -> int:
            return int.from_bytes(
                hashlib.blake2b(tok.encode(), digest_size=8).digest(),
                "little",
            )

        def fn(tbl: pa.Table) -> pa.Table:
            cache: dict = {}
            ids, h3s, h2s, h1s = [], [], [], []
            for did, text in zip(
                tbl.column("doc_id").to_pylist(),
                tbl.column("text").to_pylist(),
            ):
                if (did % 5 < 4) != train:
                    continue
                ts = _RE2_NONSPACE_RE.findall(text or "")
                if len(ts) < 3:
                    continue
                h = np.fromiter(
                    (cache.get(t) or cache.setdefault(t, tok_hash(t))
                     for t in ts),
                    dtype=np.uint64, count=len(ts),
                )
                w1, w2, w3 = h[:-2], h[1:-1], h[2:]
                with np.errstate(over="ignore"):
                    k2 = (w2 * M1) ^ (w3 * M2)
                    k3 = (w1 * M2) ^ (k2 * M1)
                n = len(w1)
                ids.append(np.full(n, did, np.int64))
                h3s.append((k3.view(np.int64) & MASK))
                h2s.append((k2.view(np.int64) & MASK))
                h1s.append((w3.view(np.int64) & MASK))
            if not ids:
                e = np.empty(0, np.int64)
                ids, h3s, h2s, h1s = [e], [e], [e], [e]
            return pa.table(
                {
                    "doc_id": pa.array(np.concatenate(ids), pa.int64()),
                    "k3": pa.array(np.concatenate(h3s), pa.int64()),
                    "k2": pa.array(np.concatenate(h2s), pa.int64()),
                    "k1": pa.array(np.concatenate(h1s), pa.int64()),
                }
            )

        return fn

    test = docs.map_batches(tri_rows(False), batch_format="pyarrow") \
        .materialize()
    train = docs.map_batches(tri_rows(True), batch_format="pyarrow") \
        .materialize()

    # train n-gram sets as three sorted unique int64 arrays, broadcast
    # ONCE (ray.put) when they fit the byte cap — one membership scan +
    # one groupby instead of three semi-join exchange chains. Beyond
    # the cap (100-TB train split), fall back to the co-partitioned
    # hash_join semi path — same counts, more exchanges.
    import ray

    uniq = {c: [] for c in ("k3", "k2", "k1")}
    for b in train.iter_batches(batch_format="pyarrow", batch_size=None):
        for c in uniq:
            uniq[c].append(
                np.unique(b.column(c).to_numpy(zero_copy_only=False))
            )
    keys = {
        c: (np.unique(np.concatenate(v)) if v else np.empty(0, np.int64))
        for c, v in uniq.items()
    }
    total_bytes = sum(a.nbytes for a in keys.values())

    if total_bytes <= _LOOKUP_CAP():
        keys_ref = ray.put((keys["k3"], keys["k2"], keys["k1"]))

        def member(sorted_arr, vals):
            if not len(sorted_arr):
                return np.zeros(len(vals), np.int64)
            i = np.searchsorted(sorted_arr, vals)
            i[i >= len(sorted_arr)] = 0
            return (sorted_arr[i] == vals).astype(np.int64)

        def score(tbl: pa.Table) -> pa.Table:
            from signal_collect_ray.util import segment_sum

            s3, s2, s1 = ray.get(keys_ref)
            did = tbl.column("doc_id").to_numpy(zero_copy_only=False)
            m3 = member(s3, tbl.column("k3").to_numpy(zero_copy_only=False))
            m2 = member(s2, tbl.column("k2").to_numpy(zero_copy_only=False))
            m1 = member(s1, tbl.column("k1").to_numpy(zero_copy_only=False))
            d, n = segment_sum(did, np.ones(len(did), np.int64))
            _, h3 = segment_sum(did, m3)
            _, c2 = segment_sum(did, m2)
            _, c1 = segment_sum(did, m1)
            return pa.table(
                {
                    "doc_id": pa.array(d, pa.int64()),
                    "n_trigrams": pa.array(n, pa.int64()),
                    "hit3": pa.array(h3, pa.int64()),
                    "c2": pa.array(c2, pa.int64()),
                    "c1": pa.array(c1, pa.int64()),
                }
            )

        u = test.map_batches(score, batch_format="pyarrow")
    else:
        def count_per_doc(ds, col):
            from ray.data.aggregate import Count

            return ds.groupby("doc_id").aggregate(Count(alias_name=col))

        def distinct_keys(col):
            def fn(tbl: pa.Table) -> pa.Table:
                return pa.table(
                    {col: tbl.column(col).unique()}
                )

            return fn

        out_parts = [count_per_doc(test, "n_trigrams")]
        for col, alias in (("k3", "hit3"), ("k2", "c2"), ("k1", "c1")):
            kds = train.map_batches(
                distinct_keys(col), batch_format="pyarrow"
            )
            hits = hash_join(
                test.select_columns(["doc_id", col]), kds, on=col, how="semi"
            )
            out_parts.append(count_per_doc(hits, alias))

        def tag(i, col):
            def fn(tbl: pa.Table) -> pa.Table:
                n = len(tbl)
                z = np.zeros(n, np.int64)
                cols = {"doc_id": tbl.column("doc_id")}
                for j, name in enumerate(
                    ["n_trigrams", "hit3", "c2", "c1"]
                ):
                    cols[name] = (
                        tbl.column(col) if j == i
                        else pa.array(z, pa.int64())
                    )
                return pa.table(cols)

            return fn

        tagged = [
            ds.map_batches(tag(i, col), batch_format="pyarrow")
            for i, (ds, col) in enumerate(
                zip(out_parts, ["n_trigrams", "hit3", "c2", "c1"])
            )
        ]
        u = tagged[0].union(*tagged[1:])

    agg = u.groupby("doc_id").aggregate(
        Sum("n_trigrams", alias_name="n_tri"),
        Sum("hit3", alias_name="h3"),
        Sum("c2", alias_name="s2"),
        Sum("c1", alias_name="s1"),
    )

    def finish(tbl: pa.Table) -> pa.Table:
        h3 = tbl.column("h3").to_numpy(zero_copy_only=False)
        s2 = tbl.column("s2").to_numpy(zero_copy_only=False)
        s1 = tbl.column("s1").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "n_trigrams": tbl.column("n_tri"),
                "hit3": tbl.column("h3"),
                "hit2": pa.array(s2 - h3, pa.int64()),
                "hit1": pa.array(s1 - s2, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


_TRIGRAM_BACKOFF_SQL = """
WITH tok AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts
             FROM documents),
pos AS (SELECT doc_id, unnest(ts) AS w, generate_subscripts(ts, 1) AS p
        FROM tok),
tri AS (SELECT a.doc_id, a.w AS w1, b.w AS w2, c.w AS w3 FROM pos a
        JOIN pos b ON b.doc_id = a.doc_id AND b.p = a.p + 1
        JOIN pos c ON c.doc_id = a.doc_id AND c.p = a.p + 2),
tr3 AS (SELECT DISTINCT w1, w2, w3 FROM tri WHERE doc_id % 5 < 4),
tr2 AS (SELECT DISTINCT w2, w3 FROM tri WHERE doc_id % 5 < 4),
tr1 AS (SELECT DISTINCT w3 FROM tri WHERE doc_id % 5 < 4),
test AS (SELECT * FROM tri WHERE doc_id % 5 = 4),
m AS (SELECT t.doc_id,
        CASE WHEN tr3.w1 IS NOT NULL THEN 1 ELSE 0 END AS h3,
        CASE WHEN tr2.w2 IS NOT NULL THEN 1 ELSE 0 END AS h2,
        CASE WHEN tr1.w3 IS NOT NULL THEN 1 ELSE 0 END AS h1
      FROM test t
      LEFT JOIN tr3 ON tr3.w1 = t.w1 AND tr3.w2 = t.w2 AND tr3.w3 = t.w3
      LEFT JOIN tr2 ON tr2.w2 = t.w2 AND tr2.w3 = t.w3
      LEFT JOIN tr1 ON tr1.w3 = t.w3)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_trigrams,
       CAST(SUM(h3) AS BIGINT) AS hit3,
       CAST(SUM((1 - h3) * h2) AS BIGINT) AS hit2,
       CAST(SUM((1 - h2) * h1) AS BIGINT) AS hit1
FROM m GROUP BY 1
"""



# the click-add edge set unioned onto the base derived graph — the
# add-only half of _E_UPD_SQL (removals break the monotone warm-start
# argument the incremental queries rely on)
_E_INCR_SQL = (
    f"SELECT src, dst FROM ({_E_SQL}) "
    f"UNION SELECT DISTINCT user_id % {V_GRAPH} AS src, "
    f"(event_id * 7) % {V_GRAPH} AS dst FROM events "
    f"WHERE event_type = 'click' "
    f"AND user_id % {V_GRAPH} <> (event_id * 7) % {V_GRAPH}"
)


def _incremental_deltas(sf_dir: str, symmetric: bool):
    """edge_deltas callback delivering the click-add edges ONCE, on the
    first poll at superstep ≥ 1 — mid-run GraphEditor mutation
    (engine.py run: edge_deltas), state migrates, new vertices
    algo.init. The durable engine polls after every unconverged step
    and once more at its final step when converged, so a poll at a step
    ≥ 1 always happens: the increment is delivered whether or not the
    base run has converged by then."""
    delivered = [False]

    def deltas(step):
        if not delivered[0] and step >= 1:
            delivered[0] = True
            adds = _event_edge_deltas(sf_dir, "click")
            return {
                "add_edges_ds": sym_edges(adds) if symmetric else adds
            }
        return None

    return deltas


def q_cc_incremental(sf_dir: str):
    """INCREMENTAL connected components: start min-label propagation on
    the base graph, inject the click-add edges MID-RUN after superstep 1
    through the durable engine's edge_deltas path (graph rebuilt via
    Graph.update, survivor state migrates, every vertex re-enqueued —
    reference GraphEditor.scala:37-201 semantics), and continue to
    quiescence. Min-label is monotone, so the warm-started fixpoint
    equals cold CC of base ∪ adds — which is exactly what the oracle
    computes. Complements cc_updated (cold restart on the mutated
    graph): this drives the warm path."""
    from signal_collect_ray import EngineConfig, SuperstepEngine
    from signal_collect_ray.algorithms import ConnectedComponents

    base = _graph(sf_dir, symmetric=True)
    eng = SuperstepEngine(
        EngineConfig(num_partitions=_P, eps=1e-6, max_supersteps=40)
    )
    info = eng.run(
        base,
        ConnectedComponents(),
        run_dir=_work_dir(sf_dir, "run_cc_incr"),
        resume=False,
        edge_deltas=_incremental_deltas(sf_dir, symmetric=True),
    )
    t = info.state_table()
    return pa.table({"vid": t.column("vid"), "label": t.column("state")})


def q_sssp_incremental(sf_dir: str):
    """INCREMENTAL SSSP from vertex 0: unweighted distances on the base
    directed graph, click-add edges injected mid-run after superstep 1,
    relaxation continues from the warm distances. Distance relaxation
    is monotone non-increasing under edge additions, so the fixpoint
    equals cold SSSP over base ∪ adds (the oracle's unrolled BFS)."""
    from signal_collect_ray import EngineConfig, SuperstepEngine
    from signal_collect_ray.algorithms import SSSP

    base = _graph(sf_dir, symmetric=False)
    eng = SuperstepEngine(
        EngineConfig(num_partitions=_P, eps=1e-6, max_supersteps=40)
    )
    info = eng.run(
        base,
        SSSP(0),
        run_dir=_work_dir(sf_dir, "run_sssp_incr"),
        resume=False,
        edge_deltas=_incremental_deltas(sf_dir, symmetric=False),
    )
    t = info.state_table()
    d = t.column("state").to_numpy(zero_copy_only=False)
    dist = [None if not np.isfinite(x) else float(x) for x in d]
    return pa.table(
        {"vid": t.column("vid"), "dist": pa.array(dist, pa.float64())}
    )



_CRAWL_LIMIT = 1000


def q_crawl_schedule(sf_dir: str):
    """Politeness-bucketed crawl frontier: round-robin interleave
    across hosts, highest-rank-first within each host — the schedule a
    polite distributed crawler (one fetch per host per cycle) would
    execute. rr = per-host rank position (ROW_NUMBER semantics over
    rounded rank desc, vid asc), global order (rr, host, vid), top
    1000. Per-host positions assign inside one hash exchange on host;
    only rows with rr ≤ limit leave the tasks, so the driver folds a
    ≤ hosts·limit bounded set."""
    import ray.data as rd

    from signal_collect_ray.util import part_of

    pr = q_pagerank_k4(sf_dir)
    ds = rd.from_arrow(pr)

    def shard(tbl: pa.Table) -> pa.Table:
        host = tbl.column("vid").to_numpy(zero_copy_only=False) % _HOST_MOD
        return tbl.append_column(
            "host", pa.array(host, pa.int64())
        ).append_column("gpart", pa.array(part_of(host, 16), pa.int32()))

    def positions(tbl: pa.Table) -> pa.Table:
        host = tbl.column("host").to_numpy(zero_copy_only=False)
        vid = tbl.column("vid").to_numpy(zero_copy_only=False)
        rank = tbl.column("rank").to_numpy(zero_copy_only=False)
        order = np.lexsort((vid, -rank, host))
        h, v, r = host[order], vid[order], rank[order]
        starts = np.flatnonzero(np.concatenate([[True], h[1:] != h[:-1]]))
        rr = np.arange(len(h), dtype=np.int64) + 1
        rr -= np.repeat(rr[starts] - 1, np.diff(np.append(starts, len(h))))
        keep = rr <= _CRAWL_LIMIT
        return pa.table(
            {
                "rr": pa.array(rr[keep], pa.int64()),
                "host": pa.array(h[keep], pa.int64()),
                "vid": pa.array(v[keep], pa.int64()),
                "rank": pa.array(r[keep], pa.float64()),
            }
        )

    folded = (
        ds.map_batches(shard, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(positions, batch_format="pyarrow")
    )
    t = pa.concat_tables(
        list(folded.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    rr = t.column("rr").to_numpy(zero_copy_only=False)
    host = t.column("host").to_numpy(zero_copy_only=False)
    vid = t.column("vid").to_numpy(zero_copy_only=False)
    order = np.lexsort((vid, host, rr))[:_CRAWL_LIMIT]
    return t.take(pa.array(order, pa.int64()))


_CRAWL_SQL = f"""
WITH pr AS MATERIALIZED ({{PR}}),
s AS (SELECT vid % {_HOST_MOD} AS host, vid, rank,
      CAST(ROW_NUMBER() OVER (PARTITION BY vid % {_HOST_MOD}
           ORDER BY rank DESC, vid) AS BIGINT) AS rr
      FROM pr)
SELECT rr, host, vid, rank FROM s
ORDER BY rr, host, vid LIMIT {_CRAWL_LIMIT}
"""


def q_host_edge_lift(sf_dir: str):
    """Configuration-model lift per host pair: observed inter-host edge
    count vs the degree-preserving null expectation dout(a)·din(b)/m —
    the network-science 'which hosts link MORE than chance' question.
    obs/dout/din fold as exact int64 partials (per-block Arrow group_by
    pre-combine, one exchange); lift is ONE float division per output
    row rounded half-away, so ranking is deterministic. Top-20 by
    (lift desc, ha, hb) over the ≤ hosts² bounded pair set."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    edges = derived_edges_ds(sf_dir).select_columns(["src", "dst"])

    def hp(tbl: pa.Table) -> pa.Table:
        ha = tbl.column("src").to_numpy(zero_copy_only=False) % _HOST_MOD
        hb = tbl.column("dst").to_numpy(zero_copy_only=False) % _HOST_MOD
        t = pa.table(
            {
                "ha": pa.array(ha, pa.int64()),
                "hb": pa.array(hb, pa.int64()),
                "obs": pa.array(np.ones(len(ha), np.int64), pa.int64()),
            }
        )
        return t.group_by(["ha", "hb"]).aggregate([("obs", "sum")]) \
            .rename_columns(["ha", "hb", "obs"])

    obs = (
        edges.map_batches(hp, batch_format="pyarrow")
        .groupby(["ha", "hb"])
        .aggregate(Sum("obs", alias_name="obs"))
    )
    t = pa.concat_tables(
        list(obs.iter_batches(batch_format="pyarrow", batch_size=None))
    )  # ≤ hosts² rows by construction
    ha = t.column("ha").to_numpy(zero_copy_only=False)
    hb = t.column("hb").to_numpy(zero_copy_only=False)
    o = t.column("obs").to_numpy(zero_copy_only=False)
    m = int(o.sum())
    dout = np.zeros(_HOST_MOD, np.int64)
    np.add.at(dout, ha, o)
    din = np.zeros(_HOST_MOD, np.int64)
    np.add.at(din, hb, o)
    lift = _round_half_away(
        (o * m).astype(np.float64) / (dout[ha] * din[hb]).astype(np.float64),
        6,
    )
    order = np.lexsort((hb, ha, -lift))[:20]
    return pa.table(
        {
            "ha": pa.array(ha[order], pa.int64()),
            "hb": pa.array(hb[order], pa.int64()),
            "obs": pa.array(o[order], pa.int64()),
            "lift": pa.array(lift[order], pa.float64()),
        }
    )


_HOST_LIFT_SQL = f"""
WITH e AS MATERIALIZED ({_E_SQL}),
hp AS (SELECT src % {_HOST_MOD} AS ha, dst % {_HOST_MOD} AS hb,
       CAST(COUNT(*) AS BIGINT) AS obs FROM e GROUP BY 1, 2),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS m FROM e),
dh AS (SELECT src % {_HOST_MOD} AS h, CAST(COUNT(*) AS BIGINT) AS dout
       FROM e GROUP BY 1),
di AS (SELECT dst % {_HOST_MOD} AS h, CAST(COUNT(*) AS BIGINT) AS din
       FROM e GROUP BY 1)
SELECT hp.ha, hp.hb, hp.obs,
       ROUND((hp.obs * tot.m) * 1.0 / (dh.dout * di.din), 6) AS lift
FROM hp, tot
JOIN dh ON dh.h = hp.ha JOIN di ON di.h = hp.hb
ORDER BY lift DESC, ha, hb LIMIT 20
"""


def q_ngram_containment_pairs(sf_dir: str):
    """Asymmetric word-5-gram containment pairs at C ≥ 0.9 in either
    direction (functions/dedup.py ngram_containment_pairs) — the
    subset-duplication detector symmetric Jaccard misses."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import ngram_containment_pairs

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ngram_containment_pairs(ds, shingle_k=5)


_CONTAINMENT_SQL = """
WITH docs AS MATERIALIZED (SELECT doc_id, regexp_split_to_array(
  trim(lower(COALESCE(text, ''))), '\\s+') AS w FROM documents),
sh AS MATERIALIZED (
  SELECT doc_id, array_to_string(w, ' ') AS s FROM docs WHERE len(w) < 5
  UNION ALL
  SELECT d.doc_id, array_to_string(d.w[i.i:i.i+4], ' ') AS s
  FROM docs d, LATERAL (SELECT unnest(range(1, len(d.w) - 3)) AS i) i
  WHERE len(d.w) >= 5),
shs AS MATERIALIZED (SELECT doc_id, list(DISTINCT s) AS S
                     FROM sh GROUP BY doc_id),
p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
      len(list_intersect(a.S, b.S)) AS inter,
      len(a.S) AS na, len(b.S) AS nb
      FROM shs a JOIN shs b ON a.doc_id < b.doc_id)
SELECT id_a, id_b, ROUND(inter * 1.0 / na, 6) AS cont_a,
       ROUND(inter * 1.0 / nb, 6) AS cont_b
FROM p WHERE inter * 10 >= 9 * na OR inter * 10 >= 9 * nb
"""



_SEED_SET = (0, 7, 13, 42)


def q_nearest_seed(sf_dir: str):
    """Distance to the nearest trusted seed (TrustRank-style seed-
    proximity feature): one MultiSourceBFS engine run over the directed
    derived graph — the multi-seed frontier costs the same as one BFS,
    not |seeds| of them. Oracle: the unrolled BFS CTE seeded on the
    set."""
    from signal_collect_ray.algorithms import MultiSourceBFS

    t = _state(
        sf_dir, MultiSourceBFS(_SEED_SET), False, 50, tag="_seed"
    )
    d = t.column("state").to_numpy(zero_copy_only=False)
    dist = [None if not np.isfinite(x) else float(x) for x in d]
    return pa.table(
        {"vid": t.column("vid"), "dist": pa.array(dist, pa.float64())}
    )


def _msbfs_sql(k: int, sources) -> str:
    srcs = ", ".join(str(s) for s in sources)
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        f"d0 AS (SELECT vid, CASE WHEN vid IN ({srcs}) THEN CAST(0 AS DOUBLE) "
        "ELSE CAST(1e18 AS DOUBLE) END AS d FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"d{i} AS MATERIALIZED (SELECT v.vid, LEAST(own.d, "
            "COALESCE(MIN(nb.d + 1.0), 1e18)) AS d "
            f"FROM v JOIN d{i-1} own ON own.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN d{i-1} nb ON nb.vid = e.src GROUP BY v.vid, own.d)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT vid, CASE WHEN d >= 1e17 THEN NULL ELSE d END AS dist "
        f"FROM d{k}"
    )


# MATCH_RECOGNIZE-style pattern over each user's event-type sequence:
# click (view)* purchase — non-overlapping leftmost matches, identical
# semantics in Python re and RE2 regexp_extract_all
_CEP_PATTERN = "cv*p"
_CEP_CODE = {"click": "c", "view": "v", "purchase": "p", "error": "e"}


def q_event_pattern_matches(sf_dir: str):
    """Complex-event pattern matching (MATCH_RECOGNIZE shape): per
    user, count non-overlapping 'click (view)* purchase' runs in the
    arrival-ordered event-type sequence. One hash exchange on user_id;
    the per-user kernel encodes types to single chars and counts with
    one compiled regex — leftmost non-overlapping semantics are
    identical between Python re and the oracle's RE2
    regexp_extract_all, and counts are integers, so parity is exact."""
    import re

    import ray.data as rd

    from signal_collect_ray.util import part_of

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type"],
    )

    def shard(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "gpart", pa.array(part_of(uid, 32), pa.int32())
        )

    pat = re.compile(_CEP_PATTERN)

    def count_matches(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        et = tbl.column("event_type").to_pylist()
        order = np.lexsort((eid, uid))
        uids, codes = [], []
        starts = np.flatnonzero(
            np.concatenate([[True], uid[order][1:] != uid[order][:-1]])
        )
        bounds = np.append(starts, len(order))
        out_u, out_n = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            seq = "".join(
                _CEP_CODE.get(et[i], "x") for i in order[s:e]
            )
            out_u.append(int(uid[order[s]]))
            out_n.append(len(pat.findall(seq)))
        return pa.table(
            {
                "user_id": pa.array(out_u, pa.int64()),
                "n_matches": pa.array(out_n, pa.int64()),
            }
        )

    return (
        ev.map_batches(shard, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(count_matches, batch_format="pyarrow")
        .select_columns(["user_id", "n_matches"])
    )


_CEP_SQL = f"""
WITH s AS (SELECT user_id, string_agg(CASE event_type
    WHEN 'click' THEN 'c' WHEN 'view' THEN 'v'
    WHEN 'purchase' THEN 'p' WHEN 'error' THEN 'e' ELSE 'x' END,
    '' ORDER BY event_id) AS seq FROM events GROUP BY 1)
SELECT user_id,
       CAST(len(regexp_extract_all(seq, '{_CEP_PATTERN}')) AS BIGINT)
       AS n_matches
FROM s
"""


def q_event_path_trigrams(sf_dir: str):
    """Top-20 three-step event paths (t1→t2→t3) across all users — the
    clickstream path-analysis shape: per-user LEAD(1)/LEAD(2) alignment
    inside one hash exchange, per-block Arrow pre-combine over the
    ≤ |types|³ path keys, one tiny final groupby."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from signal_collect_ray.util import part_of

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type"],
    )

    def shard(tbl: pa.Table) -> pa.Table:
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "gpart", pa.array(part_of(uid, 32), pa.int32())
        )

    def paths(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        uid = tbl.column("user_id").to_numpy(zero_copy_only=False)
        et = np.array(tbl.column("event_type").to_pylist())
        order = np.lexsort((eid, uid))
        u, t = uid[order], et[order]
        same2 = u[:-2] == u[2:] if len(u) > 2 else np.array([], bool)
        t1 = t[:-2][same2]
        t2 = t[1:-1][same2]
        t3 = t[2:][same2]
        tab = pa.table(
            {
                "t1": pa.array(t1, pa.string()),
                "t2": pa.array(t2, pa.string()),
                "t3": pa.array(t3, pa.string()),
                "n": pa.array(np.ones(len(t1), np.int64), pa.int64()),
            }
        )
        return tab.group_by(["t1", "t2", "t3"]).aggregate([("n", "sum")]) \
            .rename_columns(["t1", "t2", "t3", "n"])

    agg = (
        ev.map_batches(shard, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(paths, batch_format="pyarrow")
        .groupby(["t1", "t2", "t3"])
        .aggregate(Sum("n", alias_name="n"))
    )
    t = pa.concat_tables(
        list(agg.iter_batches(batch_format="pyarrow", batch_size=None))
    )  # ≤ |types|³ rows
    n = t.column("n").to_numpy(zero_copy_only=False)
    t1 = np.array(t.column("t1").to_pylist())
    t2 = np.array(t.column("t2").to_pylist())
    t3 = np.array(t.column("t3").to_pylist())
    order = np.lexsort((t3, t2, t1, -n))[:20]
    return pa.table(
        {
            "t1": pa.array(t1[order], pa.string()),
            "t2": pa.array(t2[order], pa.string()),
            "t3": pa.array(t3[order], pa.string()),
            "n": pa.array(n[order], pa.int64()),
        }
    )


_PATH3_SQL = """
WITH o AS (SELECT user_id, event_type,
  LEAD(event_type, 1) OVER (PARTITION BY user_id ORDER BY event_id) AS t2,
  LEAD(event_type, 2) OVER (PARTITION BY user_id ORDER BY event_id) AS t3
  FROM events)
SELECT event_type AS t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
FROM o WHERE t3 IS NOT NULL
GROUP BY 1, 2, 3 ORDER BY n DESC, 1, 2, 3 LIMIT 20
"""



def _dangling_pr_sql(k: int) -> str:
    """Unrolled dangling-mass PageRank oracle: per round a scalar CTE
    sums the zero-out-degree mass, mirroring the engine's per-superstep
    global aggregator."""
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd "
        "FROM e GROUP BY src)",
        "n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nv FROM v)",
        "r0 AS (SELECT vid, CAST(0.15 AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"g{i-1} AS MATERIALIZED (SELECT COALESCE(SUM(r), 0) AS d "
            f"FROM r{i-1} WHERE vid NOT IN (SELECT src FROM e))"
        )
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, "
            f"0.15 + 0.85 * (COALESCE(SUM(r{i-1}.r / od.outd), 0) "
            f"+ (SELECT d FROM g{i-1}) / (SELECT nv FROM n)) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src "
            f"LEFT JOIN od ON od.src = e.src GROUP BY v.vid)"
        )
    return "WITH " + ", ".join(ctes) + \
        f" SELECT vid, ROUND(r, 6) AS rank FROM r{k}"


def q_dangling_pagerank_k4(sf_dir: str):
    """4-step TEXTBOOK PageRank with dangling-mass redistribution
    (algorithms/pagerank.py DanglingPageRank) — drives the engine's new
    per-superstep global-aggregator channel end-to-end: D_k partials
    piggyback on collect metrics, fold into the step manifest, and feed
    the next superstep's uniform D_k/N term. Durable engine (the
    aggregate rides its checkpoint manifests, so a resumed run
    continues with the right scalar)."""
    from signal_collect_ray import EngineConfig, SuperstepEngine
    from signal_collect_ray.algorithms import DanglingPageRank

    g = _graph(sf_dir)
    eng = SuperstepEngine(
        EngineConfig(num_partitions=_P, eps=0.0, max_supersteps=4)
    )
    info = eng.run(
        g,
        DanglingPageRank(g.num_vertices),
        run_dir=_work_dir(sf_dir, "run_pr_dangling_k4"),
        resume=False,
    )
    return _round_state(info.state_table(), "rank", 6)



def q_source_quality_calibration(sf_dir: str):
    """Cross-source score calibration: each document's PERCENT_RANK of
    its (rounded) quality score WITHIN its source — the histogram-
    equalization step a mixture builder applies before comparing
    quality across crawls with different score distributions. Scores
    round to 6dp BEFORE ranking (both sides — ulp-safe), ranks come
    from a per-source counting pass inside one hash exchange on
    source, and the final value is a single division rounded 6dp."""
    import ray.data as rd

    from signal_collect_ray.functions.text import QualityScore
    from signal_collect_ray.util import part_of

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )

    def shard(tbl: pa.Table) -> pa.Table:
        import hashlib

        src = tbl.column("source").to_pylist()
        h = np.array(
            [
                int.from_bytes(
                    hashlib.blake2b(s.encode(), digest_size=8).digest(),
                    "little",
                ) >> 1
                for s in src
            ],
            dtype=np.int64,
        )
        q = np.round(tbl.column("quality").to_numpy(zero_copy_only=False), 6)
        return pa.table(
            {
                "gpart": pa.array(part_of(h, 16), pa.int32()),
                "doc_id": tbl.column("doc_id"),
                "source": tbl.column("source"),
                "q": pa.array(q, pa.float64()),
            }
        )

    def prank(tbl: pa.Table) -> pa.Table:
        src = np.array(tbl.column("source").to_pylist())
        did = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        q = tbl.column("q").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, q, src))
        s, d, qq = src[order], did[order], q[order]
        starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
        bounds = np.append(starts, len(s))
        pr = np.zeros(len(s))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            n = hi - lo
            if n > 1:
                seg = qq[lo:hi]
                smaller = np.searchsorted(seg, seg, side="left")
                pr[lo:hi] = smaller / (n - 1)
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "source": pa.array(s, pa.string()),
                "pr": pa.array(np.round(pr, 6), pa.float64()),
            }
        )

    return (
        docs.map_batches(QualityScore(), batch_format="pyarrow")
        .map_batches(shard, batch_format="pyarrow")
        .groupby("gpart")
        .map_groups(prank, batch_format="pyarrow")
        .select_columns(["doc_id", "source", "pr"])
    )


_CALIB_SQL = f"""
WITH q AS ({_QUALITY_SQL}),
s AS (SELECT d.source, q.doc_id, q.quality
      FROM q JOIN documents d ON d.doc_id = q.doc_id)
SELECT doc_id, source,
       ROUND(PERCENT_RANK() OVER
             (PARTITION BY source ORDER BY quality), 6) AS pr
FROM s
"""


def q_event_ohlc(sf_dir: str):
    """OHLC resampling bars per (event_type, day) — open/close are
    SELECTIONS by min/max arrival (event_id), high/low are float
    min/max comparisons: no arithmetic on the values at all, so parity
    is bit-trivial. Per-block partial bars (one candidate row per
    group per block) → one tiny exchange → final argmin/argmax merge."""
    import ray.data as rd

    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "event_type", "value"],
    )

    def partial(tbl: pa.Table) -> pa.Table:
        eid = tbl.column("event_id").to_numpy(zero_copy_only=False)
        ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = np.array(tbl.column("event_type").to_pylist())
        val = tbl.column("value").to_numpy(zero_copy_only=False)
        day = (
            ts.astype("datetime64[us]").astype("datetime64[D]").astype(str)
        )
        key = np.char.add(np.char.add(et, "\x1f"), day)
        order = np.lexsort((eid, key))
        k, e, v = key[order], eid[order], val[order]
        et_s, day_s = et[order], day[order]
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        bounds = np.append(starts, len(k))
        rows = {c: [] for c in (
            "event_type", "day", "min_eid", "open", "max_eid", "close",
            "high", "low", "n",
        )}
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            seg = v[lo:hi]
            rows["event_type"].append(et_s[lo])
            rows["day"].append(day_s[lo])
            rows["min_eid"].append(int(e[lo]))
            rows["open"].append(float(seg[0]))
            rows["max_eid"].append(int(e[hi - 1]))
            rows["close"].append(float(seg[-1]))
            rows["high"].append(float(seg.max()))
            rows["low"].append(float(seg.min()))
            rows["n"].append(hi - lo)
        return pa.table(
            {
                "event_type": pa.array(rows["event_type"], pa.string()),
                "day": pa.array(rows["day"], pa.string()),
                "min_eid": pa.array(rows["min_eid"], pa.int64()),
                "open": pa.array(rows["open"], pa.float64()),
                "max_eid": pa.array(rows["max_eid"], pa.int64()),
                "close": pa.array(rows["close"], pa.float64()),
                "high": pa.array(rows["high"], pa.float64()),
                "low": pa.array(rows["low"], pa.float64()),
                "n": pa.array(rows["n"], pa.int64()),
            }
        )

    def final(tbl: pa.Table) -> pa.Table:
        et = np.array(tbl.column("event_type").to_pylist())
        day = np.array(tbl.column("day").to_pylist())
        mn = tbl.column("min_eid").to_numpy(zero_copy_only=False)
        mx = tbl.column("max_eid").to_numpy(zero_copy_only=False)
        op = tbl.column("open").to_numpy(zero_copy_only=False)
        cl = tbl.column("close").to_numpy(zero_copy_only=False)
        hi_ = tbl.column("high").to_numpy(zero_copy_only=False)
        lo_ = tbl.column("low").to_numpy(zero_copy_only=False)
        n = tbl.column("n").to_numpy(zero_copy_only=False)
        key = np.char.add(np.char.add(et, "\x1f"), day)
        order = np.argsort(key, kind="stable")
        k = key[order]
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        bounds = np.append(starts, len(k))
        out = {c: [] for c in (
            "event_type", "day", "open", "high", "low", "close", "n",
        )}
        for s, e in zip(bounds[:-1], bounds[1:]):
            idx = order[s:e]
            i_open = idx[np.argmin(mn[idx])]
            i_close = idx[np.argmax(mx[idx])]
            out["event_type"].append(et[idx[0]])
            out["day"].append(day[idx[0]])
            out["open"].append(float(op[i_open]))
            out["close"].append(float(cl[i_close]))
            out["high"].append(float(hi_[idx].max()))
            out["low"].append(float(lo_[idx].min()))
            out["n"].append(int(n[idx].sum()))
        return pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "day": pa.array(out["day"], pa.string()),
                "open": pa.array(out["open"], pa.float64()),
                "high": pa.array(out["high"], pa.float64()),
                "low": pa.array(out["low"], pa.float64()),
                "close": pa.array(out["close"], pa.float64()),
                "n": pa.array(out["n"], pa.int64()),
            }
        )

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(final, batch_format="pyarrow")
    )


_OHLC_SQL = """
SELECT event_type, STRFTIME(DATE_TRUNC('day', ts), '%Y-%m-%d') AS day,
       arg_min(value, event_id) AS open,
       MAX(value) AS high, MIN(value) AS low,
       arg_max(value, event_id) AS close,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1, 2
"""



_GSTOP_THRESHOLD = 250.0
_GSTOP_KMAX = 8


def q_pagerank_global_stop(sf_dir: str):
    """PageRank under GLOBAL TERMINATION DETECTION (reference
    ExecutionConfiguration.scala:147-180): stop as soon as the global
    rank sum crosses 250 (SumStatesTermination, checked every
    superstep — the two-phase worker-partial/coordinator-reduce shape).
    Emits (supersteps, rank_sum) so the oracle independently derives
    WHICH round first crosses the bound from its own unrolled chain —
    a wrong check interval or off-by-one stop shows up as a different
    superstep count."""
    from signal_collect_ray import EngineConfig, SuperstepEngine
    from signal_collect_ray.algorithm import SumStatesTermination
    from signal_collect_ray.algorithms import PageRank

    g = _graph(sf_dir)
    eng = SuperstepEngine(
        EngineConfig(
            num_partitions=_P, eps=0.0, max_supersteps=_GSTOP_KMAX,
            signal_threshold=0.0,
        )
    )
    info = eng.run(
        g,
        PageRank(),
        run_dir=_work_dir(sf_dir, "run_pr_gstop"),
        resume=False,
        global_termination=SumStatesTermination(_GSTOP_THRESHOLD, interval=1),
    )
    t = info.state_table()
    s = float(t.column("state").to_numpy(zero_copy_only=False).sum())
    return pa.table(
        {
            "supersteps": pa.array([int(info.supersteps)], pa.int64()),
            "rank_sum": pa.array([round(s, 4)], pa.float64()),
        }
    )


def _pr_global_stop_sql(threshold: float, kmax: int) -> str:
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd "
        "FROM e GROUP BY src)",
        "r0 AS (SELECT vid, CAST(0.15 AS DOUBLE) AS r FROM v)",
    ]
    for i in range(1, kmax + 1):
        ctes.append(
            f"r{i} AS MATERIALIZED (SELECT v.vid, "
            f"0.15 + 0.85 * COALESCE(SUM(r{i-1}.r / od.outd), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN r{i-1} ON r{i-1}.vid = e.src "
            f"LEFT JOIN od ON od.src = e.src GROUP BY v.vid)"
        )
    ctes.append(
        "sums AS (SELECT "
        + ", ".join(
            f"(SELECT SUM(r) FROM r{k}) AS s{k}"
            for k in range(1, kmax + 1)
        )
        + ")"
    )
    case_k = (
        "CASE "
        + " ".join(
            f"WHEN s{k} >= {threshold} THEN {k}"
            for k in range(1, kmax + 1)
        )
        + f" ELSE {kmax} END"
    )
    case_s = (
        "CASE "
        + " ".join(
            f"WHEN s{k} >= {threshold} THEN s{k}"
            for k in range(1, kmax + 1)
        )
        + f" ELSE s{kmax} END"
    )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT CAST({case_k} AS BIGINT) AS supersteps, "
        f"ROUND({case_s}, 4) AS rank_sum FROM sums"
    )



def q_triad_motifs(sf_dir: str):
    """Directed closed-triad census (algorithms/cliques.py
    triad_census): 3-cycles vs transitive (feed-forward) triads — the
    motif signature that separates hierarchy from circularity in a web
    graph. One bitset AND + popcount pair per edge batch; cycles are
    triple-counted by construction and divided exactly."""
    from signal_collect_ray.algorithms.cliques import triad_census

    cyc, tr = triad_census(derived_edges_ds(sf_dir), num_partitions=32)
    return pa.table(
        {
            "cyclic": pa.array([cyc], pa.int64()),
            "transitive": pa.array([tr], pa.int64()),
        }
    )


_TRIAD_SQL = f"""
WITH e AS MATERIALIZED ({_E_SQL})
SELECT
  (SELECT CAST(COUNT(*) AS BIGINT) FROM e ab
   JOIN e bc ON bc.src = ab.dst
   JOIN e ca ON ca.src = bc.dst AND ca.dst = ab.src
   WHERE ab.src < ab.dst AND ab.src < bc.dst) AS cyclic,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM e ab
   JOIN e bc ON bc.src = ab.dst
   JOIN e ac ON ac.src = ab.src AND ac.dst = bc.dst) AS transitive
"""



def q_diamond_count(sf_dir: str):
    """Total diamonds (two triangles sharing an edge — K4 minus an
    edge, counted per shared edge as Σ_e C(t_e, 2)): the 4-node motif
    that measures triangle CLUSTERING beyond the triad census. Built on
    the degree-oriented triangle listing: explode each triangle into
    its 3 canonical edges with per-batch pre-combined counts, one hash
    exchange on the edge key, per-group integer C(t,2) fold
    (algorithms/triangles.py diamond_count)."""
    from signal_collect_ray.algorithms.triangles import diamond_count

    d = diamond_count(derived_edges_ds(sf_dir), num_partitions=32)
    return pa.table({"diamonds": pa.array([d], pa.int64())})


_DIAMOND_SQL = f"""
{_TRI_SQL_BASE},
te AS (SELECT u AS a, v AS b FROM tri
       UNION ALL SELECT u, w FROM tri
       UNION ALL SELECT v, w FROM tri),
c AS (SELECT a, b, COUNT(*) AS t FROM te GROUP BY a, b)
SELECT CAST(COALESCE(SUM(t * (t - 1) // 2), 0) AS BIGINT) AS diamonds FROM c
"""


_DUP_SPAN_CAP = 128  # > the max document word count at every sf


def q_longest_dup_span(sf_dir: str):
    """Longest duplicated word n-gram across documents (exact
    substring-dedup primitive after Lee et al. 2022): every
    maximal-length gram shared by ≥2 docs, with its document count.
    Ray side searches by doubling + binary probes on rolling hashes
    (O(log cap) passes of O(total words) each) and confirms with
    actual strings; the sf-scale oracle materializes all lengths
    (functions/dedup.py longest_duplicated_ngram)."""
    import ray.data as rd

    from signal_collect_ray.functions.dedup import longest_duplicated_ngram

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return longest_duplicated_ngram(docs, cap=_DUP_SPAN_CAP)


_DUP_SPAN_SQL = f"""
WITH w AS (SELECT doc_id,
           regexp_extract_all(lower(COALESCE(text, '')), '\\S+') AS ws
           FROM documents),
ls AS (SELECT unnest(range(1, {_DUP_SPAN_CAP} + 1)) AS l),
wl AS (SELECT doc_id, ws, l FROM w, ls WHERE len(ws) >= l),
g AS (SELECT doc_id, l AS len,
      array_to_string(ws[i.i : i.i + l - 1], ' ') AS ng
      FROM wl, LATERAL (SELECT unnest(range(1, len(ws) - l + 2)) AS i) i),
d AS (SELECT DISTINCT len, ng, doc_id FROM g),
c AS (SELECT len, ng, COUNT(*) AS n_docs FROM d
      GROUP BY len, ng HAVING COUNT(*) >= 2),
mx AS (SELECT MAX(len) AS m FROM c)
SELECT CAST(len AS BIGINT) AS length, ng AS ngram,
       CAST(n_docs AS BIGINT) AS n_docs
FROM c, mx WHERE len = mx.m
"""


def q_textrank_summary(sf_dir: str):
    """Per-document TextRank extractive summary (Mihalcea & Tarau
    2004): 10-word chunks, pair weights = distinct shared words, 4
    damped iterations over the chunk graph, top chunk per doc
    (functions/text.py TextRankSummary). Embarrassingly parallel — one
    map_batches pass, zero exchanges; weights/sums exact integers,
    ranks rounded half-away at 6dp like every iterative oracle."""
    import ray.data as rd

    from signal_collect_ray.functions.text import textrank_summaries

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return textrank_summaries(docs, chunk_words=10, iters=4)


def _textrank_sql(chunk_words: int = 10, iters: int = 4) -> str:
    head = f"""
WITH w AS (SELECT doc_id,
  regexp_extract_all(lower(COALESCE(text, '')), '\\S+') AS ws FROM documents),
c AS (SELECT doc_id, i AS cidx, ws[(i-1)*{chunk_words}+1 : i*{chunk_words}] AS cw
      FROM w, LATERAL (SELECT unnest(range(1,
        CAST(ceil(len(ws) / {chunk_words}.0) AS BIGINT) + 1)) AS i) t
      WHERE len(ws) > 0),
cl AS (SELECT doc_id, cidx FROM c),
cw AS (SELECT DISTINCT doc_id, cidx, unnest(cw) AS word FROM c),
p AS (SELECT a.doc_id, a.cidx AS i, b.cidx AS j,
             CAST(COUNT(*) AS DOUBLE) AS w
      FROM cw a JOIN cw b ON a.doc_id = b.doc_id AND a.word = b.word
        AND a.cidx <> b.cidx
      GROUP BY 1, 2, 3),
sw AS (SELECT doc_id, i, SUM(w) AS sw FROM p GROUP BY 1, 2),
r0 AS (SELECT doc_id, cidx, CAST(0.15 AS DOUBLE) AS r FROM cl),
"""
    iters_sql = ", ".join(
        f"""r{k} AS MATERIALIZED (SELECT cl.doc_id, cl.cidx,
  0.15 + 0.85 * COALESCE(SUM(rp.r * p.w / sw.sw), 0) AS r
  FROM cl LEFT JOIN p ON p.doc_id = cl.doc_id AND p.i = cl.cidx
  LEFT JOIN r{k-1} rp ON rp.doc_id = p.doc_id AND rp.cidx = p.j
  LEFT JOIN sw ON sw.doc_id = p.doc_id AND sw.i = p.j
  GROUP BY cl.doc_id, cl.cidx)"""
        for k in range(1, iters + 1)
    )
    return (
        head
        + iters_sql
        + f""",
n AS (SELECT doc_id, COUNT(*) AS n_chunks FROM cl GROUP BY doc_id),
sel AS (SELECT doc_id, cidx, ROUND(r, 6) AS score,
        ROW_NUMBER() OVER (PARTITION BY doc_id
          ORDER BY ROUND(r, 6) DESC, cidx) AS rn FROM r{iters})
SELECT s.doc_id, CAST(s.cidx AS BIGINT) AS best_chunk, s.score,
       CAST(n.n_chunks AS BIGINT) AS n_chunks
FROM sel s JOIN n USING (doc_id) WHERE s.rn = 1
"""
    )


_SPAM_SEEDS = (0, 7)  # the "trusted" seed set (shared with PPR)


def q_spam_mass_k4(sf_dir: str):
    """Relative spam mass (Gyöngyi, Garcia-Molina & Pedersen 2004,
    "Combating Web Spam with TrustRank" / Gyöngyi et al. 2006 spam
    mass): 1 − TrustRank(v)/PageRank(v) where TrustRank teleports the
    SAME total mass (0.15·V) uniformly onto the trusted seed set. A
    page whose rank mostly arrives without a trusted path has spam
    mass → 1; pages near seeds can go negative (whitelisted). Two
    4-step engine runs (plain + TeleportWeightedPageRank with
    indicator·V/|S| weights) on unrounded states; the ratio rounds at
    6dp once."""
    from signal_collect_ray.algorithms import PageRank
    from signal_collect_ray.algorithms.pagerank import (
        TeleportWeightedPageRank,
    )

    g = _graph(sf_dir)
    factor = g.num_vertices / len(_SPAM_SEEDS)
    pr_t = _state(sf_dir, PageRank(), False, 4, eps=0.0, tag="_k4")
    alg = TeleportWeightedPageRank(
        lambda v: np.where(np.isin(v, np.array(_SPAM_SEEDS)), factor, 0.0)
    )
    tr_t = _state(sf_dir, alg, False, 4, eps=0.0, tag="_spam_k4")
    pr = pr_t.column("state").to_numpy(zero_copy_only=False)
    tr = tr_t.column("state").to_numpy(zero_copy_only=False)
    # state tables are vid-sorted; pin the invariant rather than assume
    assert pr_t.column("vid").equals(tr_t.column("vid"))
    mass = _round_half_away(1.0 - tr / pr, 6)
    return pa.table(
        {
            "vid": pr_t.column("vid"),
            "rank": pa.array(_round_half_away(pr, 6), pa.float64()),
            "trust": pa.array(_round_half_away(tr, 6), pa.float64()),
            "spam_mass": pa.array(mass, pa.float64()),
        }
    )


def _spam_mass_sql(k: int) -> str:
    srcs = ", ".join(str(s) for s in _SPAM_SEEDS)
    n_seeds = len(_SPAM_SEEDS)
    base = (
        f"CASE WHEN vid IN ({srcs}) "
        f"THEN 0.15 * (cnt.c / {n_seeds}.0) ELSE 0.0 END"
    )
    ctes = [
        f"e AS MATERIALIZED ({_E_SQL})",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "cnt AS (SELECT CAST(COUNT(*) AS DOUBLE) AS c FROM v)",
        "od AS (SELECT src, CAST(COUNT(*) AS DOUBLE) AS outd "
        "FROM e GROUP BY src)",
        "p0 AS (SELECT vid, CAST(0.15 AS DOUBLE) AS r FROM v)",
        f"t0 AS (SELECT vid, CAST({base} AS DOUBLE) AS r FROM v, cnt)",
    ]
    for i in range(1, k + 1):
        ctes.append(
            f"p{i} AS MATERIALIZED (SELECT v.vid, 0.15 + 0.85 * "
            f"COALESCE(SUM(p{i-1}.r / od.outd), 0) AS r "
            f"FROM v LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN p{i-1} ON p{i-1}.vid = e.src "
            f"LEFT JOIN od ON od.src = e.src GROUP BY v.vid)"
        )
        ctes.append(
            f"t{i} AS MATERIALIZED (SELECT v.vid, "
            f"{base.replace('vid', 'v.vid')} + 0.85 * "
            f"COALESCE(SUM(t{i-1}.r / od.outd), 0) AS r "
            f"FROM v CROSS JOIN cnt LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN t{i-1} ON t{i-1}.vid = e.src "
            f"LEFT JOIN od ON od.src = e.src GROUP BY v.vid, cnt.c)"
        )
    return (
        "WITH "
        + ", ".join(ctes)
        + f" SELECT p.vid, ROUND(p.r, 6) AS rank, ROUND(t.r, 6) AS trust, "
        f"ROUND(1.0 - t.r / p.r, 6) AS spam_mass "
        f"FROM p{k} p JOIN t{k} t ON t.vid = p.vid"
    )


_DENSEST_ROUNDS = 12


def q_densest_subgraph(sf_dir: str):
    """Parallel Charikar densest-subgraph peel (Bahmani et al. 2012)
    over the symmetric graph: each round removes every vertex whose
    alive-degree · V ≤ 2E (exact integer average threshold), driven by
    the durable engine's per-superstep STRUCTURED global-aggregator
    channel ([2E_r, V_r] folds ride the collect metrics as JSON) on a
    measure/peel 2-superstep cadence (algorithms/densest.py). Output is
    the full peel trajectory — one row per round with the alive set's
    exact size, edge count, density, and the best-density flag — so the
    oracle pins every round, not just the argmax. Driver state is
    O(rounds) scalars from the step manifests; rounds past the
    empty-set fixpoint are (0, 0) on both sides."""
    from signal_collect_ray import EngineConfig, SuperstepEngine
    from signal_collect_ray.algorithms import DensestPeel, peel_profile

    g = _graph(sf_dir, symmetric=True)
    eng = SuperstepEngine(
        EngineConfig(
            num_partitions=_P,
            eps=0.0,
            max_supersteps=2 * _DENSEST_ROUNDS + 1,
        )
    )
    info = eng.run(
        g, DensestPeel(), run_dir=_work_dir(sf_dir, "run_densest"), resume=False
    )
    prof = peel_profile(info, _DENSEST_ROUNDS)
    best = None  # (round, V, E); challenger wins iff e·V_best > E_best·v
    for r, v, e in prof:
        if v > 0 and (best is None or e * best[1] > best[2] * v):
            best = (r, v, e)
    dens = [
        float(_round_half_away(np.array([e / v]), 6)[0]) if v else 0.0
        for _, v, e in prof
    ]
    return pa.table(
        {
            "peel_round": pa.array([r for r, _, _ in prof], pa.int64()),
            "n_vertices": pa.array([v for _, v, _ in prof], pa.int64()),
            "n_edges": pa.array([e for _, _, e in prof], pa.int64()),
            "density": pa.array(dens, pa.float64()),
            "is_best": pa.array(
                [1 if best and r == best[0] else 0 for r, _, _ in prof],
                pa.int64(),
            ),
        }
    )


def _densest_sql(rounds: int) -> str:
    """Unrolled peel mirror: all-integer degree/threshold comparisons,
    so every round of the trajectory is bit-exact."""
    ctes = [
        f"e0 AS MATERIALIZED ({_E_SQL})",
        "e AS MATERIALIZED (SELECT src, dst FROM e0 "
        "UNION SELECT dst AS src, src AS dst FROM e0)",
        "v AS (SELECT src AS vid FROM e UNION SELECT dst FROM e)",
        "a0 AS (SELECT vid, 1 AS al FROM v)",
    ]
    for r in range(rounds + 1):
        ctes.append(
            f"d{r} AS MATERIALIZED (SELECT v.vid, a.al, "
            f"CAST(COALESCE(SUM(n.al), 0) AS BIGINT) AS deg "
            f"FROM v JOIN a{r} a ON a.vid = v.vid "
            f"LEFT JOIN e ON e.dst = v.vid "
            f"LEFT JOIN a{r} n ON n.vid = e.src "
            f"GROUP BY v.vid, a.al)"
        )
        ctes.append(
            f"s{r} AS MATERIALIZED (SELECT "
            f"CAST(COALESCE(SUM(CASE WHEN al = 1 THEN deg END), 0) AS BIGINT)"
            f" AS twoe, "
            f"CAST(COALESCE(SUM(al), 0) AS BIGINT) AS nv FROM d{r})"
        )
        if r < rounds:
            ctes.append(
                f"a{r+1} AS MATERIALIZED (SELECT d.vid, "
                f"CASE WHEN d.al = 1 AND d.deg * s.nv > s.twoe "
                f"THEN 1 ELSE 0 END AS al FROM d{r} d, s{r} s)"
            )
    stats = " UNION ALL ".join(
        f"SELECT {r} AS peel_round, nv AS n_vertices, twoe // 2 AS n_edges "
        f"FROM s{r}"
        for r in range(rounds + 1)
    )
    ctes.append(f"stats AS MATERIALIZED ({stats})")
    return (
        "WITH "
        + ", ".join(ctes)
        + " SELECT CAST(s.peel_round AS BIGINT) AS peel_round, "
        "s.n_vertices, s.n_edges, "
        "CASE WHEN s.n_vertices = 0 THEN 0.0 "
        "ELSE ROUND(s.n_edges * 1.0 / s.n_vertices, 6) END AS density, "
        "CAST(CASE WHEN s.n_vertices > 0 AND NOT EXISTS ("
        "SELECT 1 FROM stats t WHERE t.n_vertices > 0 AND "
        "(t.n_edges * s.n_vertices > s.n_edges * t.n_vertices OR "
        "(t.n_edges * s.n_vertices = s.n_edges * t.n_vertices "
        "AND t.peel_round < s.peel_round))) THEN 1 ELSE 0 END AS BIGINT) "
        "AS is_best FROM stats s"
    )


def queries():
    return {
        "graph_edges": q_graph_edges,
        "graph_update_events": q_graph_update_events,
        "pagerank_updated_k4": q_pagerank_updated_k4,
        "out_degrees": q_out_degrees,
        "pagerank_k4": q_pagerank_k4,
        "rank_sum_k4": q_rank_sum_k4,
        "top10_pagerank_k4": q_top10_pagerank_k4,
        "in_degrees": q_in_degrees,
        "pagerank_weighted_k4": q_pagerank_weighted_k4,
        "ppr_k4": q_ppr_k4,
        "ppr_sweep_cut": q_ppr_sweep_cut,
        "kcore": q_kcore,
        "coreness": q_coreness,
        "hits_k4": q_hits_k4,
        "connected_components": q_cc_labels,
        "component_sizes": q_component_sizes,
        "sssp_from0": q_sssp_from0,
        "harmonic_closeness": q_harmonic_closeness,
        "landmark_distances": q_landmark_distances,
        "sssp_weighted_from0": q_sssp_weighted_from0,
        "chinese_whispers_k1": q_chinese_whispers_k1,
        "seeded_labelprop_k3": q_seeded_labelprop_k3,
        "absorption_k4": q_absorption_k4,
        "triangle_total": q_triangle_total,
        "rectangle_count": q_rectangle_count,
        "dag_layers": q_dag_layers,
        "sequence_packing": q_sequence_packing,
        "sssp_tree": q_sssp_tree,
        "source_vocab_overlap": q_source_vocab_overlap,
        "triangle_list": q_triangle_list,
        "large_orders": q_large_orders,
        "promo_revenue": q_promo_revenue,
        "returned_revenue_top20": q_returned_revenue_top20,
        "warc_roundtrip": q_warc_roundtrip,
        "doc_metrics_melted": q_doc_metrics_melted,
        "spearman_indeg_pagerank": q_spearman_indeg_pagerank,
        "rrf_fused_top20": q_rrf_fused_top20,
        "hourly_event_zscores": q_hourly_event_zscores,
        "knn_label_consistency": q_knn_label_consistency,
        "partition_skew": q_partition_skew,
        "dedup_threshold_curve": q_dedup_threshold_curve,
        "event_association_rules": q_event_association_rules,
        "temperature_mixture": q_temperature_mixture,
        "silhouette_scores": q_silhouette_scores,
        "hll_registers": q_hll_registers,
        "rmat_edges_oracle": q_rmat_edges_oracle,
        "hll_estimates": q_hll_estimates,
        "hll_set_ops": q_hll_set_ops,
        "triangles_per_vertex": q_triangles_per_vertex,
        "clustering_coefficient": q_clustering_coefficient,
        "largest_components": q_largest_components,
        "doc_token_counts": q_doc_token_counts,
        "doc_dedup_exact": q_doc_dedup_exact,
        "cross_source_dups": q_cross_source_dups,
        "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
        "event_sessions": q_event_sessions,
        "event_windows": q_event_windows,
        "click_attribution": q_click_attribution,
        "doc_sample_10pct": q_doc_sample_10pct,
        "knn_vec0_top5": q_knn_vec0_top5,
        "pagerank_k20": q_pagerank_k20,
        "lang_id_counts": q_lang_id_counts,
        "quality_scores": q_quality_scores,
        "pii_scrub": q_pii_scrub,
        "doc_repetition": q_doc_repetition,
        "doc_chunks": q_doc_chunks,
        "doc_entropy": q_doc_entropy,
        "zipf_slope": q_zipf_slope,
        "doc_logprob": q_doc_logprob,
        "classifier_scores": q_classifier_scores,
        "top_bigrams": q_top_bigrams,
        "corpus_curation": q_corpus_curation,
        "top_docs_per_lang": q_top_docs_per_lang,
        "tfidf_top_terms": q_tfidf_top_terms,
        "doc_length_quantiles": q_doc_length_quantiles,
        "lang_length_quantiles": q_lang_length_quantiles,
        "stratified_sample": q_stratified_sample,
        "class_balanced_sample": q_class_balanced_sample,
        "weighted_sample": q_weighted_sample,
        "quality_percentiles": q_quality_percentiles,
        "cocitation_top20": q_cocitation_top20,
        "adamic_adar_top20": q_adamic_adar_top20,
        "simrank_top20": q_simrank_top20,
        "jaccard_top20": q_jaccard_top20,
        "salsa_k4": q_salsa_k4,
        "coupling_top20": q_coupling_top20,
        "degree_assortativity": q_degree_assortativity,
        "event_outliers": q_event_outliers,
        "event_type_pivot": q_event_type_pivot,
        "event_rollup": q_event_rollup,
        "event_cube": q_event_cube,
        "rfm_segments": q_rfm_segments,
        "user_first_purchase": q_user_first_purchase,
        "bm25_top_docs": q_bm25_top_docs,
        "benchmark_contamination": q_benchmark_contamination,
        "mst_forest": q_mst_forest,
        "doc_pareto": q_doc_pareto,
        "lang_pareto": q_lang_pareto,
        "node2vec_walks": q_node2vec_walks,
        "user_top_event": q_user_top_event,
        "event_value_winsorized": q_event_value_winsorized,
        "semdedup_drops": q_semdedup_drops,
        "shipping_priority": q_shipping_priority,
        "lineitem_corr": q_lineitem_corr,
        "top_pmi_bigrams": q_top_pmi_bigrams,
        "weekly_trend": q_weekly_trend,
        "user_last_state": q_user_last_state,
        "event_seq_num": q_event_seq_num,
        "vocab_stats": q_vocab_stats,
        "cc_updated": q_cc_updated,
        "value_quantiles_cont": q_value_quantiles_cont,
        "partition_edge_cut": q_partition_edge_cut,
        "diameter_bound": q_diameter_bound,
        "mixture_weights": q_mixture_weights,
        "degree_corr": q_degree_corr,
        "vocab_cover": q_vocab_cover,
        "entity_resolution": q_entity_resolution,
        "hub_robustness": q_hub_robustness,
        "top_event_types": q_top_event_types,
        "funnel_counts": q_funnel_counts,
        "scc_labels": q_scc_labels,
        "mis_validity": q_mis_validity,
        "matching_validity": q_matching_validity,
        "matching_planted": q_matching_planted,
        "ktruss5": q_ktruss5,
        "edge_reciprocity": q_edge_reciprocity,
        "orders_by_nation": q_orders_by_nation,
        "pricing_summary": q_pricing_summary,
        "order_priority_lines": q_order_priority_lines,
        "customers_without_orders": q_customers_without_orders,
        "distinct_users_per_event": q_distinct_users_per_event,
        "label_centroids": q_label_centroids,
        "event_sliding_windows": q_event_sliding_windows,
        "click_sessions": q_click_sessions,
        "user_running_totals": q_user_running_totals,
        "inter_event_gaps": q_inter_event_gaps,
        "cohort_retention": q_cohort_retention,
        "event_pair_cooccurrence": q_event_pair_cooccurrence,
        "dup_ngram_fraction": q_dup_ngram_fraction,
        "paragraph_dedup": q_paragraph_dedup,
        "boilerplate_chunks": q_boilerplate_chunks,
        "event_freq_cm": q_event_freq_cm,
        "trustrank_k4": q_trustrank_k4,
        "katz_k4": q_katz_k4,
        "eigenvector_k4": q_eigenvector_k4,
        "rich_club": q_rich_club,
        "bowtie_structure": q_bowtie_structure,
        "community_conductance": q_community_conductance,
        "bipartite_components": q_bipartite_components,
        "event_transitions": q_event_transitions,
        "lang_source_matrix": q_lang_source_matrix,
        "lang_confusion": q_lang_confusion,
        "centroid_distances": q_centroid_distances,
        "source_dup_rates": q_source_dup_rates,
        "random_robustness": q_random_robustness,
        "regional_revenue": q_regional_revenue,
        "nation_trade_volume": q_nation_trade_volume,
        "market_share": q_market_share,
        "part_revenue_share": q_part_revenue_share,
        "top_supplier": q_top_supplier,
        "trending_event_types": q_trending_event_types,
        "dangling_mass": q_dangling_mass,
        "lang_token_rates": q_lang_token_rates,
        "session_length_histogram": q_session_length_histogram,
        "wl_refinement": q_wl_refinement,
        "daily_moving_avg": q_daily_moving_avg,
        "pagerank_movers": q_pagerank_movers,
        "embedding_quantization": q_embedding_quantization,
        "clicks_near_errors": q_clicks_near_errors,
        "props_k_stats": q_props_k_stats,
        "percolation_sweep": q_percolation_sweep,
        "cross_label_nn": q_cross_label_nn,
        "third_highest_value_per_type": q_third_highest_value_per_type,
        "sliding_distinct_users": q_sliding_distinct_users,
        "quality_percent_rank": q_quality_percent_rank,
        "triangle_estimate_sampled": q_triangle_estimate_sampled,
        "khop_counts": q_khop_counts,
        "ab_split_conversion": q_ab_split_conversion,
        "community_rank_mass": q_community_rank_mass,
        "mutual_nn_pairs": q_mutual_nn_pairs,
        "doc_lang_mix": q_doc_lang_mix,
        "vocab_coverage_curve": q_vocab_coverage_curve,
        "pagerank_topk_stability": q_pagerank_topk_stability,
        "training_shards": q_training_shards,
        "curation_shards": q_curation_shards,
        "dup_cluster_sizes": q_dup_cluster_sizes,
        "pca_projection": q_pca_projection,
        "kmeans_clusters": q_kmeans_clusters,
        "bigram_logprob": q_bigram_logprob,
        "events_profile": q_events_profile,
        "decayed_engagement": q_decayed_engagement,
        "degree_histogram": q_degree_histogram,
        "louvain_communities": q_louvain_communities,
        "host_communities": q_host_communities,
        "avg_neighbor_degree": q_avg_neighbor_degree,
        "sorted_neighborhood": q_sorted_neighborhood,
        "fd_checks": q_fd_checks,
        "value_quantiles_approx": q_value_quantiles_approx,
        "value_buckets": q_value_buckets,
        "intra_cluster_stats": q_intra_cluster_stats,
        "host_modularity": q_host_modularity,
        "pagerank_gini": q_pagerank_gini,
        "degree_theil": q_degree_theil,
        "doc_fingerprints": q_doc_fingerprints,
        "embedding_dedup_pairs": q_embedding_dedup_pairs,
        "dedup_minhash_survivors": q_dedup_minhash_survivors,
        "game_of_life_k8": q_game_of_life_k8,
        "schelling_k8": q_schelling_k8,
        "token_diffusion_k4": q_token_diffusion_k4,
        "embedding_dedup_survivors": q_embedding_dedup_survivors,
        "path_query_star": q_path_query,
        "random_walks": q_random_walks,
        "hamiltonian_best": q_hamiltonian_best,
        "host_pagerank_k4": q_host_pagerank_k4,
        "vertex_coloring": q_vertex_coloring,
        "embedding_dedup_pairs_lsh": q_embedding_dedup_pairs_lsh,
        "media_features": q_media_features,
        "media_real_decode": q_media_real_decode,
        "approx_distinct_users": q_approx_distinct_users,
        "neighborhood_function": q_neighborhood_function,
        "minhash_dedup_pairs_planted": q_minhash_dedup_pairs_planted,
        "simhash_md5_signatures": q_simhash_md5_signatures,
        "simhash_dedup_pairs_md5": q_simhash_dedup_pairs_md5,
        # rows-only checks (not SQL-expressible)
        "knn_lsh_vec0_top5": q_knn_lsh_vec0_top5,
        "pagerank_converged": q_pagerank_converged,
        "minhash_dedup_pairs": q_minhash_dedup_pairs,
        "simhash_signatures": q_simhash_signatures,
        "simhash_dedup_pairs": q_simhash_dedup_pairs,
        "knn_ivf_vec0_top5": q_knn_ivf_vec0_top5,
        "pagerank_async": q_pagerank_async,
        "betweenness_sampled": q_betweenness,
        "mst_planted": q_mst_planted,
        "redirect_chains_planted": q_redirect_chains_planted,
        "betweenness_planted": q_betweenness_planted,
        "louvain_planted": q_louvain_planted,
        "kmeans_planted": q_kmeans_planted,
        "pca_planted": q_pca_planted,
        "node2vec_planted": q_node2vec_planted,
        "semdedup_planted": q_semdedup_planted,
        "dbscan_planted": q_dbscan_planted,
        "dbscan_clusters": q_dbscan_clusters,
        "knn_ivf_planted": q_knn_ivf_planted,
        "knn_lsh_planted": q_knn_lsh_planted,
        "scc_planted": q_scc_planted,
        "priority_returned_orders": q_priority_returned_orders,
        "customer_order_distribution": q_customer_order_distribution,
        "small_quantity_revenue": q_small_quantity_revenue,
        "waiting_suppliers": q_waiting_suppliers,
        "idle_rich_customers": q_idle_rich_customers,
        "forecast_revenue": q_forecast_revenue,
        "disjunctive_revenue": q_disjunctive_revenue,
        "nation_profit": q_nation_profit,
        "min_cost_supplier": q_min_cost_supplier,
        "part_supplier_counts": q_part_supplier_counts,
        "excess_suppliers": q_excess_suppliers,
        "linestatus_priority": q_linestatus_priority,
        "late_events": q_late_events,
        "four_cliques": q_four_cliques,
        "local_bridges": q_local_bridges,
        "nation_order_median": q_nation_order_median,
        "tfidf_pair_dot": q_tfidf_pair_dot,
        "trigram_backoff": q_trigram_backoff,
        "cc_incremental": q_cc_incremental,
        "sssp_incremental": q_sssp_incremental,
        "crawl_schedule": q_crawl_schedule,
        "host_edge_lift": q_host_edge_lift,
        "ngram_containment_pairs": q_ngram_containment_pairs,
        "nearest_seed": q_nearest_seed,
        "event_pattern_matches": q_event_pattern_matches,
        "event_path_trigrams": q_event_path_trigrams,
        "dangling_pagerank_k4": q_dangling_pagerank_k4,
        "source_quality_calibration": q_source_quality_calibration,
        "event_ohlc": q_event_ohlc,
        "pagerank_global_stop": q_pagerank_global_stop,
        "triad_motifs": q_triad_motifs,
        "diamond_count": q_diamond_count,
        "longest_dup_span": q_longest_dup_span,
        "densest_subgraph": q_densest_subgraph,
        "textrank_summary": q_textrank_summary,
        "spam_mass_k4": q_spam_mass_k4,
        "markov_stationary": q_markov_stationary,
        "sp_counts_from0": q_sp_counts_from0,
        "temporal_reachability": q_temporal_reachability,
        "betweenness_pivots": q_betweenness_pivots,
        "latest_departure": q_latest_departure,
        "edge_betweenness_top20": q_edge_betweenness_top20,
        "dedup_keep_best": q_dedup_keep_best,
        "page_revisit_rate": q_page_revisit_rate,
        "user_burstiness": q_user_burstiness,
        "mixture_allocation": q_mixture_allocation,
        "page_ctr_wilson": q_page_ctr_wilson,
        "covisitation_top20": q_covisitation_top20,
        "widest_path_from0": q_widest_path_from0,
        "conversion_latency": q_conversion_latency,
        "degree_powerlaw_alpha": q_degree_powerlaw_alpha,
        "bpe_merges": q_bpe_merges,
        "hitting_time_k8": q_hitting_time_k8,
        "rake_keywords": q_rake_keywords,
        "k_anonymity_risk": q_k_anonymity_risk,
        "ridge_price_model": q_ridge_price_model,
        "event_value_mad": q_event_value_mad,
        "damping_sensitivity": q_damping_sensitivity,
        "rank_per_inlink": q_rank_per_inlink,
        "cusum_changepoints": q_cusum_changepoints,
        "holt_forecast": q_holt_forecast,
        "log2_quantile_sketch": q_log2_quantile_sketch,
        "langid_f1": q_langid_f1,
        "page_bounce_rate": q_page_bounce_rate,
        "hapax_ratio": q_hapax_ratio,
        "heaps_law": q_heaps_law,
        "morans_i_degree": q_morans_i_degree,
        "stump_split": q_stump_split,
        "sequential_lift": q_sequential_lift,
        "quality_trend_per_source": q_quality_trend_per_source,
        "bradley_terry_sources": q_bradley_terry_sources,
        "kaplan_meier": q_kaplan_meier,
        "nelson_aalen": q_nelson_aalen,
        "weekday_seasonality": q_weekday_seasonality,
        "daily_acf": q_daily_acf,
        "churn_labels": q_churn_labels,
        "readability": q_readability,
        "logrank_chi2": q_logrank_chi2,
        "sign_test": q_sign_test,
        "runs_test": q_runs_test,
        "mann_kendall": q_mann_kendall,
        "user_type_entropy": q_user_type_entropy,
        "corpus_datasheet": q_corpus_datasheet,
        "weekly_novel_ngrams": q_weekly_novel_ngrams,
        "value_emd": q_value_emd,
        "value_ks": q_value_ks,
        "benford_deviation": q_benford_deviation,
        "bootstrap_mean_ci": q_bootstrap_mean_ci,
        "capture_recapture": q_capture_recapture,
        "permutation_pvalue": q_permutation_pvalue,
        "embedding_auc": q_embedding_auc,
        "fresh_pagerank_k4": q_fresh_pagerank_k4,
    }


def oracle_sql():
    return {
        "graph_edges": _E_SQL,
        "mst_planted": _MST_PLANTED_SQL,
        "redirect_chains_planted": _REDIRECT_PLANTED_SQL,
        "betweenness_planted": _BET_PLANTED_SQL,
        "louvain_planted": _LOUVAIN_PLANTED_SQL,
        "kmeans_planted": _KMEANS_PLANTED_SQL,
        "pca_planted": _PCA_PLANTED_SQL,
        "node2vec_planted": _N2V_PLANTED_SQL,
        "semdedup_planted": _SEMDEDUP_PLANTED_SQL,
        "dbscan_planted": _DBSCAN_PLANTED_SQL,
        "knn_ivf_planted": _KNN_PLANTED_SQL,
        "knn_lsh_planted": _KNN_PLANTED_SQL,
        "scc_planted": _SCC_PLANTED_SQL,
        "graph_update_events": _E_UPD_SQL,
        "pagerank_updated_k4": _pr_sql(4, edges_sql=_E_UPD_SQL),
        "out_degrees": (
            f"WITH e AS ({_E_SQL}) "
            "SELECT src AS vid, COUNT(*) AS out_degree FROM e GROUP BY src"
        ),
        "pagerank_k4": _pr_sql(4),
        "hits_k4": _hits_sql(4),
        "rank_sum_k4": (
            _pr_sql(4).replace(
                "SELECT vid, ROUND(r, 6) AS rank FROM r4",
                "SELECT ROUND(SUM(r), 4) AS rank_sum FROM r4",
            )
        ),
        "top10_pagerank_k4": (
            _pr_sql(4).replace(
                "SELECT vid, ROUND(r, 6) AS rank FROM r4",
                "SELECT vid, ROUND(r, 6) AS rank FROM r4 "
                "ORDER BY r DESC, vid ASC LIMIT 10",
            )
        ),
        "in_degrees": (
            f"WITH e AS ({_E_SQL}) "
            "SELECT dst AS vid, COUNT(*) AS in_degree FROM e GROUP BY dst"
        ),
        "pagerank_weighted_k4": _prw_sql(4),
        "ppr_k4": _ppr_sql(4),
        "ppr_sweep_cut": _sweep_cut_sql(),
        "kcore": _kcore_sql(),
        "coreness": _coreness_sql(_CORENESS_ROUNDS),
        "connected_components": _cc_sql(_CC_K),
        "component_sizes": (
            f"WITH cc AS ({_cc_sql(_CC_K)}) "
            "SELECT label, CAST(COUNT(*) AS BIGINT) AS n_vertices "
            "FROM cc GROUP BY label"
        ),
        "sssp_from0": _sssp_sql(_BFS_K),
        "harmonic_closeness": _harmonic_sql(),
        "landmark_distances": _landmark_sql(),
        "sssp_weighted_from0": _ssspw_sql(12),
        "chinese_whispers_k1": _CW1_SQL,
        "seeded_labelprop_k3": _slp_sql(3),
        "absorption_k4": _absorb_sql(4),
        "triangle_total": _TRI_SQL_BASE
        + "SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles FROM tri",
        "rectangle_count": _RECT_SQL,
        "dag_layers": _dag_sql(8),
        "sequence_packing": _PACK_SQL,
        "sssp_tree": _sssp_tree_sql(_BFS_K),
        "source_vocab_overlap": _SRC_VOCAB_SQL,
        "triangle_list": _TRI_SQL_BASE
        + "SELECT u AS a, v AS b, w AS c FROM tri",
        "large_orders": _Q18_SQL,
        "promo_revenue": _PROMO_REVENUE_SQL,
        "returned_revenue_top20": _Q10_SQL,
        "warc_roundtrip": "SELECT doc_id, COALESCE(text, '') AS text FROM documents",
        "doc_metrics_melted": _MELT_SQL,
        "spearman_indeg_pagerank": _SPEARMAN_SQL,
        "rrf_fused_top20": _RRF_SQL,
        "hourly_event_zscores": _HOURLY_Z_SQL,
        "knn_label_consistency": _KNN_LABEL_SQL,
        "partition_skew": _SKEW_SQL,
        "dedup_threshold_curve": _curve_sql(),
        "event_association_rules": _EVENT_RULES_SQL,
        "temperature_mixture": _TEMP_MIX_SQL,
        "silhouette_scores": _SILHOUETTE_SQL,
        "hll_registers": _HLL_REG_SQL,
        "rmat_edges_oracle": _rmat_sql(),
        "hll_estimates": _HLL_EST_SQL,
        "hll_set_ops": _HLL_SETOPS_SQL,
        "triangles_per_vertex": _TRI_SQL_BASE
        + (
            "SELECT vid, CAST(COUNT(*) AS BIGINT) AS triangles FROM "
            "(SELECT u AS vid FROM tri UNION ALL SELECT v FROM tri "
            "UNION ALL SELECT w FROM tri) GROUP BY vid"
        ),
        "clustering_coefficient": _TRI_SQL_BASE
        + (
            ", deg AS (SELECT v AS vid, COUNT(*) AS deg FROM "
            "(SELECT a AS v FROM u UNION ALL SELECT b FROM u) GROUP BY v), "
            "tc AS (SELECT vid, COUNT(*) AS t FROM "
            "(SELECT u AS vid FROM tri UNION ALL SELECT v FROM tri "
            "UNION ALL SELECT w FROM tri) GROUP BY vid) "
            "SELECT deg.vid, ROUND(CASE WHEN deg.deg > 1 THEN "
            "2.0 * COALESCE(tc.t, 0) / (deg.deg * (deg.deg - 1.0)) "
            "ELSE 0.0 END, 6) AS coefficient "
            "FROM deg LEFT JOIN tc ON tc.vid = deg.vid"
        ),
        "largest_components": (
            f"WITH cc AS ({_cc_sql(_CC_K)}) "
            "SELECT label, CAST(COUNT(*) AS BIGINT) AS n_vertices FROM cc "
            "GROUP BY label ORDER BY n_vertices DESC, label LIMIT 5"
        ),
        "doc_token_counts": (
            "SELECT doc_id, CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) "
            "AS n_words FROM documents"
        ),
        "doc_dedup_exact": (
            "SELECT MIN(doc_id) AS doc_id FROM documents "
            "GROUP BY trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))"
        ),
        "cross_source_dups": _CROSS_SOURCE_DUPS_SQL,
        "knn_vec0_top5": (
            "WITH q AS (SELECT embedding FROM embeddings ORDER BY vec_id LIMIT 1) "
            "SELECT e.vec_id AS id, "
            "ROUND(CAST(list_cosine_similarity(e.embedding, q.embedding) AS DOUBLE), 4) AS score "
            "FROM embeddings e, q "
            "ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id "
            "LIMIT 5"
        ),
        "pagerank_k20": _pr_sql(20),
        "lang_id_counts": _lang_sql(),
        "pii_scrub": _pii_sql(),
        "doc_repetition": _REPETITION_SQL,
        "doc_chunks": _CHUNKS_SQL,
        "doc_entropy": _ENTROPY_SQL,
        "zipf_slope": _ZIPF_SQL,
        "doc_logprob": _LOGPROB_SQL,
        "classifier_scores": _CLASSIFIER_SQL,
        "top_bigrams": _TOP_BIGRAMS_SQL,
        "corpus_curation": _curation_sql(),
        "top_docs_per_lang": _top_docs_sql(),
        "tfidf_top_terms": _tfidf_sql(),
        "doc_length_quantiles": _quantiles_sql(),
        "lang_length_quantiles": _lang_quantiles_sql(),
        "stratified_sample": _stratified_sql(),
        "class_balanced_sample": _CLASS_BALANCED_SQL,
        "weighted_sample": _weighted_sample_sql(),
        "quality_percentiles": _quality_pct_sql(),
        "cocitation_top20": _cocitation_sql(),
        "adamic_adar_top20": _adamic_adar_sql(),
        "simrank_top20": _simrank_sql(),
        "jaccard_top20": _jaccard_sql(),
        "salsa_k4": _salsa_sql(4),
        "coupling_top20": _coupling_sql(),
        "degree_assortativity": _assortativity_sql(),
        "event_outliers": _OUTLIERS_SQL,
        "event_type_pivot": _PIVOT_SQL,
        "event_rollup": _EVENT_ROLLUP_SQL,
        "event_cube": _EVENT_CUBE_SQL,
        "rfm_segments": _RFM_SQL,
        "user_first_purchase": _FIRST_PURCHASE_SQL,
        "bm25_top_docs": _BM25_SQL,
        "benchmark_contamination": _CONTAMINATION_SQL,
        "doc_pareto": _DOC_PARETO_SQL,
        "lang_pareto": _LANG_PARETO_SQL,
        "user_top_event": _USER_TOP_EVENT_SQL,
        "event_value_winsorized": _WINSORIZED_SQL,
        "shipping_priority": _SHIPPING_PRIORITY_SQL,
        "lineitem_corr": _LINEITEM_CORR_SQL,
        "top_pmi_bigrams": _TOP_PMI_SQL,
        "weekly_trend": _WEEKLY_TREND_SQL,
        "user_last_state": _USER_LAST_STATE_SQL,
        "event_seq_num": _EVENT_SEQ_SQL,
        "vocab_stats": _VOCAB_STATS_SQL,
        "cc_updated": _cc_sql(_CC_K, _E_UPD_SQL),
        "value_quantiles_cont": _VALUE_QUANTILES_CONT_SQL,
        "partition_edge_cut": _EDGE_CUT_SQL,
        "diameter_bound": _diameter_sql(_BFS_K),
        "mixture_weights": _MIXTURE_SQL.format(inner=_QUALITY_SQL_INNER),
        "degree_corr": _DEGREE_CORR_SQL,
        "vocab_cover": _greedy_cover_sql(4),
        "entity_resolution": _entity_sql(8),
        "hub_robustness": _hub_robust_sql(_CC_K),
        "top_event_types": _TOP_EVENT_TYPES_SQL,
        "funnel_counts": _funnel_sql(),
        "scc_labels": _SCC_SQL,
        "mis_validity": _MIS_SQL,
        "matching_validity": _MATCHING_SQL,
        "matching_planted": _MATCHING_PLANTED_SQL,
        "ktruss5": _ktruss_sql(),
        "edge_reciprocity": _RECIPROCITY_SQL,
        "orders_by_nation": _ORDERS_BY_NATION_SQL,
        "pricing_summary": _PRICING_SQL,
        "order_priority_lines": _ORDER_PRIORITY_SQL,
        "customers_without_orders": _CUST_NO_ORDERS_SQL,
        "distinct_users_per_event": _DISTINCT_USERS_SQL,
        "label_centroids": _LABEL_CENTROIDS_SQL,
        "event_sliding_windows": _sliding_sql(),
        "click_sessions": _click_sessions_sql(),
        "user_running_totals": _RUNNING_TOTALS_SQL,
        "inter_event_gaps": _INTER_EVENT_GAPS_SQL,
        "cohort_retention": _COHORT_RETENTION_SQL,
        "event_pair_cooccurrence": _EVENT_PAIR_COOCCURRENCE_SQL,
        "dup_ngram_fraction": _DUP_NGRAM_SQL,
        "paragraph_dedup": _PARA_DEDUP_SQL,
        "boilerplate_chunks": _BOILERPLATE_SQL,
        "trustrank_k4": _twpr_sql(4),
        "katz_k4": _katz_sql(4),
        "eigenvector_k4": _eig_sql(4),
        "rich_club": _RICH_CLUB_SQL,
        "bowtie_structure": _BOWTIE_SQL,
        "community_conductance": _CONDUCTANCE_SQL,
        "bipartite_components": _bipartite_sql(),
        "event_transitions": _EVENT_TRANSITIONS_SQL,
        "lang_source_matrix": _LANG_SOURCE_SQL,
        "lang_confusion": _lang_confusion_sql(),
        "centroid_distances": _CENTROID_DIST_SQL,
        "source_dup_rates": _SOURCE_DUP_SQL,
        "random_robustness": _random_robust_sql(_CC_K),
        "regional_revenue": _REGIONAL_REVENUE_SQL,
        "nation_trade_volume": _NATION_TRADE_SQL,
        "market_share": _MARKET_SHARE_SQL,
        "part_revenue_share": _PART_REVENUE_SHARE_SQL,
        "top_supplier": _TOP_SUPPLIER_SQL,
        "priority_returned_orders": _PRIORITY_RETURNED_SQL,
        "customer_order_distribution": _CUST_ORDER_DIST_SQL,
        "small_quantity_revenue": _SMALL_QTY_REV_SQL,
        "waiting_suppliers": _WAITING_SUPPLIERS_SQL,
        "idle_rich_customers": _IDLE_RICH_SQL,
        "trending_event_types": _TRENDING_SQL,
        "dangling_mass": _dangling_sql(),
        "lang_token_rates": _LANG_TOKEN_RATES_SQL,
        "session_length_histogram": _SESSION_HIST_SQL,
        "wl_refinement": _wl_sql(_WL_K),
        "daily_moving_avg": _DAILY_MA_SQL,
        "pagerank_movers": _pr_movers_sql(),
        "embedding_quantization": _EMB_QUANT_SQL,
        "clicks_near_errors": _CLICKS_NEAR_ERRORS_SQL,
        "props_k_stats": _PROPS_K_SQL,
        "percolation_sweep": _percolation_sql(_CC_K),
        "cross_label_nn": _CROSS_NN_SQL,
        "third_highest_value_per_type": _THIRD_VALUE_SQL,
        "sliding_distinct_users": _SLIDING_DISTINCT_SQL,
        "quality_percent_rank": _quality_pct_rank_sql(),
        "triangle_estimate_sampled": _TRI_SAMPLED_SQL,
        "khop_counts": _khop_sql(),
        "ab_split_conversion": _AB_SPLIT_SQL,
        "community_rank_mass": _community_rank_sql(),
        "mutual_nn_pairs": _MUTUAL_NN_SQL,
        "doc_lang_mix": _doc_lang_mix_sql(),
        "vocab_coverage_curve": _vocab_coverage_sql(),
        "pagerank_topk_stability": _pr_topk_stability_sql(),
        "training_shards": _TRAINING_SHARDS_SQL,
        "curation_shards": _CURATION_SHARDS_SQL.format(
            curation=_curation_sql()
        ),
        "dup_cluster_sizes": _DUP_CLUSTER_SQL,
        "event_freq_cm": _EVENT_FREQ_CM_SQL,
        "bigram_logprob": _BIGRAM_LP_SQL,
        "events_profile": _profile_sql(),
        "decayed_engagement": _DECAYED_SQL,
        "degree_histogram": _DEGREE_HIST_SQL,
        "avg_neighbor_degree": _AVG_NBR_DEG_SQL,
        "sorted_neighborhood": _SORTED_NEIGHBORHOOD_SQL,
        "fd_checks": _FD_SQL,
        "value_quantiles_approx": _aq_sql(),
        "value_buckets": _value_buckets_sql(),
        "intra_cluster_stats": _INTRA_CLUSTER_SQL,
        "host_modularity": _HOST_MODULARITY_SQL.format(H=_HOST_MOD),
        "pagerank_gini": _pr_gini_sql(),
        "degree_theil": _DEGREE_THEIL_SQL,
        "quality_scores": _QUALITY_SQL,
        "doc_fingerprints": _FINGERPRINT_SQL,
        "embedding_dedup_pairs": _EMB_PAIRS_SQL,
        "dedup_minhash_survivors": _survivors_sql(16, 0.8),
        "minhash_dedup_pairs": _ngram_pairs_sql(0.5),
        "ngram_jaccard_pairs": _ngram_pairs_sql(0.8),
        "event_sessions": (
            "WITH o AS (SELECT user_id, ts, value, CASE WHEN "
            "epoch(ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)) "
            "> 14400 THEN 1 ELSE 0 END AS brk FROM events), "
            "s AS (SELECT user_id, ts, value, SUM(brk) OVER "
            "(PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) "
            "AS session FROM o) "
            "SELECT user_id, session, COUNT(*) AS n_events, "
            "epoch_us(MIN(ts)) AS start_us, epoch_us(MAX(ts)) AS end_us, "
            # exact integer cents (inputs are 2-dp): both sides divide
            # the identical integer by 100.0 → bit-identical doubles
            "SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) / 100.0 "
            "AS sum_value FROM s GROUP BY user_id, session"
        ),
        "event_windows": (
            "SELECT epoch_us(time_bucket(INTERVAL 1 HOUR, ts)) AS window_us, "
            "event_type, COUNT(*) AS n_events, "
            "SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) / 100.0 "
            "AS sum_value FROM events GROUP BY 1, 2"
        ),
        "doc_sample_10pct": (
            # floor() matches hash_sample's truncating int(rate * 2^32)
            # exactly — a plain CAST would round-to-nearest and disagree
            # on rows whose 32-bit md5 prefix equals the boundary value
            "SELECT doc_id FROM documents WHERE "
            "CAST(('0x' || substr(md5('42:' || CAST(doc_id AS VARCHAR)), 1, 8)) "
            "AS UBIGINT) < CAST(floor(0.1 * 4294967296) AS UBIGINT)"
        ),
        "click_attribution": (
            "WITH c AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us "
            "FROM events WHERE event_type = 'click'), "
            "v AS (SELECT user_id, epoch_us(ts) AS ts_us, value "
            "FROM events WHERE event_type = 'view') "
            "SELECT c.event_id, c.user_id, c.ts_us, v.value AS value_asof "
            "FROM c ASOF LEFT JOIN v "
            "ON c.user_id = v.user_id AND v.ts_us <= c.ts_us"
        ),
        "game_of_life_k8": _cellular_sql("gol", 8),
        "schelling_k8": _cellular_sql("schelling", 8),
        "token_diffusion_k4": _token_sql(4),
        "embedding_dedup_survivors": _closure_survivors_sql(
            _EMB_DUP_PAIRS_SQL, "embeddings", "vec_id", 16
        ),
        "path_query_star": _pq_sql(),
        "random_walks": _walks_sql(),
        "hamiltonian_best": _ham_sql(),
        "host_pagerank_k4": _host_pr_sql(4),
        "vertex_coloring": _COLORING_SQL,
        "embedding_dedup_pairs_lsh": _EMB_LSH_SQL,
        "media_features": _media_sql(),
        "media_real_decode": _media_real_sql(),
        "minhash_dedup_pairs_planted": _ngram_pairs_sql(
            0.999, docs_src=_DOCS_PLANTED_SQL
        ),
        # identical register+estimate math as hll_estimates; only the
        # output column name differs (approx_distinct_by_key contract)
        "approx_distinct_users": _HLL_EST_SQL.replace(
            "AS estimate", "AS approx_n"
        ),
        "neighborhood_function": _hyperball_sql(_HB_SQL_ROUNDS),
        "simhash_md5_signatures": _simhash_md5_sig_sql(),
        "simhash_dedup_pairs": _SIMHASH_MD5_RAW_PAIRS_SQL,
        "simhash_dedup_pairs_md5": _SIMHASH_MD5_PAIRS_SQL,
        "forecast_revenue": _Q6_SQL,
        "disjunctive_revenue": _Q19_SQL,
        "nation_profit": _Q9_SQL,
        "min_cost_supplier": _Q2_SQL,
        "part_supplier_counts": _Q16_SQL,
        "excess_suppliers": _Q20_SQL,
        "linestatus_priority": _Q12_SQL,
        "late_events": _LATE_SQL,
        "four_cliques": _FOUR_CLIQUE_SQL,
        "local_bridges": _LOCAL_BRIDGE_SQL,
        "nation_order_median": _NATION_MEDIAN_SQL,
        "tfidf_pair_dot": _TFIDF_PAIR_SQL,
        "trigram_backoff": _TRIGRAM_BACKOFF_SQL,
        "cc_incremental": _cc_sql(_CC_K, edges_sql=_E_INCR_SQL),
        "sssp_incremental": _sssp_sql(_BFS_K, edges_sql=_E_INCR_SQL),
        "crawl_schedule": _CRAWL_SQL.replace("{PR}", _pr_sql(4)),
        "host_edge_lift": _HOST_LIFT_SQL,
        "ngram_containment_pairs": _CONTAINMENT_SQL,
        "nearest_seed": _msbfs_sql(_BFS_K, _SEED_SET),
        "event_pattern_matches": _CEP_SQL,
        "event_path_trigrams": _PATH3_SQL,
        "dangling_pagerank_k4": _dangling_pr_sql(4),
        "source_quality_calibration": _CALIB_SQL,
        "event_ohlc": _OHLC_SQL,
        "pagerank_global_stop": _pr_global_stop_sql(
            _GSTOP_THRESHOLD, _GSTOP_KMAX
        ),
        "triad_motifs": _TRIAD_SQL,
        "diamond_count": _DIAMOND_SQL,
        "longest_dup_span": _DUP_SPAN_SQL,
        "densest_subgraph": _densest_sql(_DENSEST_ROUNDS),
        "textrank_summary": _textrank_sql(10, 4),
        "spam_mass_k4": _spam_mass_sql(4),
        "markov_stationary": _stationary_sql(_STATIONARY_ITERS),
        "sp_counts_from0": _spcount_sql(_BFS_K, 0),
        "temporal_reachability": _temporal_sql(_TEMPORAL_K, 0),
        "betweenness_pivots": _betweenness_pivots_sql(_BTW_PIVOTS, _BTW_K),
        "latest_departure": _latest_departure_sql(
            _TEMPORAL_K, _LD_TARGET, _LD_DEADLINE
        ),
        "edge_betweenness_top20": _edge_betweenness_sql(_BTW_PIVOTS, _BTW_K),
        "dedup_keep_best": _DEDUP_BEST_SQL,
        "page_revisit_rate": _REVISIT_SQL,
        "user_burstiness": _BURSTINESS_SQL,
        "mixture_allocation": _MIX_ALLOC_SQL,
        "page_ctr_wilson": _CTR_WILSON_SQL,
        "covisitation_top20": _COVISIT_SQL,
        "widest_path_from0": _widest_sql(_BFS_K, 0),
        "conversion_latency": _CONVERSION_SQL,
        "degree_powerlaw_alpha": _POWERLAW_SQL,
        "bpe_merges": _bpe_sql(_BPE_K, _BPE_SUBS),
        "hitting_time_k8": _hitting_sql(_HIT_K),
        "rake_keywords": _RAKE_SQL,
        "k_anonymity_risk": _KANON_SQL,
        "ridge_price_model": _RIDGE_SQL,
        "event_value_mad": _MAD_SQL,
        "damping_sensitivity": _damp_sens_sql(4),
        "rank_per_inlink": _rank_per_inlink_sql(4),
        "cusum_changepoints": _CUSUM_SQL,
        "holt_forecast": _holt_sql(30, _HOLT_HORIZON),
        "log2_quantile_sketch": _L2Q_SQL,
        "langid_f1": _langid_f1_sql(),
        "page_bounce_rate": _BOUNCE_SQL,
        "hapax_ratio": _HAPAX_SQL,
        "heaps_law": _heaps_sql(),
        "morans_i_degree": _MORANS_SQL,
        "stump_split": _STUMP_SQL.format(QUALITY=_QUALITY_SQL),
        "sequential_lift": _SEQ_LIFT_SQL,
        "quality_trend_per_source": _QTREND_SQL.format(QUALITY=_QUALITY_SQL),
        "bradley_terry_sources": _bt_sql(_BT_ITERS).format(
            QUALITY=_QUALITY_SQL
        ),
        "kaplan_meier": _KM_SQL,
        "nelson_aalen": _NELSON_AALEN_SQL,
        "weekday_seasonality": _WEEKDAY_SEASONALITY_SQL,
        "daily_acf": _DAILY_ACF_SQL,
        "churn_labels": _CHURN_SQL,
        "readability": _READABILITY_SQL,
        "logrank_chi2": _LOGRANK_SQL,
        "sign_test": _sign_test_sql(),
        "runs_test": _RUNS_SQL,
        "mann_kendall": _MK_SQL,
        "user_type_entropy": _USER_ENTROPY_SQL,
        "corpus_datasheet": _DATASHEET_SQL.format(QUALITY=_QUALITY_SQL),
        "weekly_novel_ngrams": _NOVEL_SQL,
        "value_emd": _EMD_SQL,
        "value_ks": _KS_SQL,
        "benford_deviation": _BENFORD_SQL,
        "bootstrap_mean_ci": _bootstrap_sql(),
        "capture_recapture": _CAPTURE_SQL,
        "permutation_pvalue": _permutation_sql(),
        "embedding_auc": _AUC_SQL,
        "fresh_pagerank_k4": _fresh_pr_sql(4),
    }
