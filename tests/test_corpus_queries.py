"""sf0.001 oracle parity for the round-3 additions (katz, eigenvector,
rich_club, training_shards, dup_cluster_sizes) — the same row/schema/
value comparison the driver's CORRECTNESS gate runs, in-suite."""

import importlib.util
import os

import duckdb
import pytest

_SF = "/root/testdata/sf0.001"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_chk = _load(
    os.path.join(os.path.dirname(__file__), "..", "scripts", "check_oracles.py"),
    "_check_oracles",
)

NEW_QUERIES = [
    "katz_k4",
    "eigenvector_k4",
    "rich_club",
    "training_shards",
    "dup_cluster_sizes",
    "bowtie_structure",
    "community_conductance",
    "bipartite_components",
    "event_transitions",
    "lang_source_matrix",
    "lang_confusion",
    "centroid_distances",
    "source_dup_rates",
    "random_robustness",
    "regional_revenue",
    "trending_event_types",
    "dangling_mass",
    "lang_token_rates",
    "session_length_histogram",
    "wl_refinement",
    "daily_moving_avg",
    "pagerank_movers",
    "embedding_quantization",
    "clicks_near_errors",
    "props_k_stats",
    "percolation_sweep",
    "cross_label_nn",
    "third_highest_value_per_type",
    "sliding_distinct_users",
    "quality_percent_rank",
    "triangle_estimate_sampled",
    "khop_counts",
    "ab_split_conversion",
    "community_rank_mass",
    "mutual_nn_pairs",
    "doc_lang_mix",
    "vocab_coverage_curve",
    "pagerank_topk_stability",
    "seeded_labelprop_k3",
    "absorption_k4",
    "hll_set_ops",
    "redirect_chains_planted",
    "zipf_slope",
    "nation_trade_volume",
    "market_share",
    "part_revenue_share",
    "top_supplier",
    "forecast_revenue",
    "disjunctive_revenue",
    "nation_profit",
    "min_cost_supplier",
    "part_supplier_counts",
    "excess_suppliers",
    "linestatus_priority",
    "late_events",
    "four_cliques",
    "local_bridges",
    "nation_order_median",
    "tfidf_pair_dot",
    "trigram_backoff",
    "cc_incremental",
    "sssp_incremental",
    "crawl_schedule",
    "host_edge_lift",
    "ngram_containment_pairs",
    "nearest_seed",
    "event_pattern_matches",
    "event_path_trigrams",
    "dangling_pagerank_k4",
    "source_quality_calibration",
    "event_ohlc",
    "pagerank_global_stop",
    "triad_motifs",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in _chk.TABLES:
        p = os.path.join(_SF, f"{t}.parquet")
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    return c


@pytest.mark.parametrize("name", NEW_QUERIES)
def test_oracle_parity_sf0001(name, con):
    from signal_collect_ray.pipelines import queries as Q

    got = _chk.to_pandas(Q.queries()[name](_SF))
    want = con.execute(Q.oracle_sql()[name]).df()
    problems = _chk.compare(name, got, want)
    assert not problems, problems
    assert len(got) > 0


def test_rich_club_monotone_thresholds(con):
    """Sanity on semantics: N_k and E_k are non-increasing in k."""
    from signal_collect_ray.pipelines import queries as Q

    df = _chk.to_pandas(Q.queries()["rich_club"](_SF)).sort_values("k")
    assert list(df["n_nodes"]) == sorted(df["n_nodes"], reverse=True)
    assert list(df["n_edges"]) == sorted(df["n_edges"], reverse=True)


def test_training_shards_complete_and_balanced(con):
    from signal_collect_ray.pipelines import queries as Q

    df = _chk.to_pandas(Q.queries()["training_shards"](_SF))
    assert sorted(df["shard"]) == list(range(16))
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert df["n_docs"].sum() == n_docs
    # Knuth hash should spread docs: no empty shard, no shard > 4x mean
    assert df["n_docs"].min() > 0
    assert df["n_docs"].max() < 4 * df["n_docs"].mean()


def test_wl_colors_are_min_vid_representatives(con):
    """Every WL color class is labeled by its minimum member vid, and
    the representative belongs to its own class."""
    from signal_collect_ray.pipelines import queries as Q

    df = _chk.to_pandas(Q.queries()["wl_refinement"](_SF))
    by_color = df.groupby("color")["vid"].min()
    assert (by_color.index == by_color.values).all()
    # refinement is non-trivial on the derived graph: >1 class
    assert df["color"].nunique() > 1


def test_round_half_away_matches_duckdb():
    """_round_half_away mirrors DuckDB ROUND (half away from zero)
    including exact .5 boundaries and negatives — np.round would
    disagree on every odd boundary."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from signal_collect_ray.pipelines.queries import _round_half_away

    con = duckdb.connect()

    # deterministic boundary cases first
    xs = np.array(
        [0.0000005, -0.0000005, 1.0000015, -1.0000015, 2.5e-6, -2.5e-6]
    )
    want = np.array(
        [
            con.execute("SELECT ROUND(?, 6)", [float(x)]).fetchone()[0]
            for x in xs
        ]
    )
    np.testing.assert_array_equal(_round_half_away(xs), want)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        )
    )
    def inner(x):
        got = float(_round_half_away(np.array([x]))[0])
        want = con.execute("SELECT ROUND(?, 6)", [x]).fetchone()[0]
        assert got == want, (x, got, want)

    inner()


def test_minhash_dedup_pairs_rounds_like_duckdb():
    """65/128 = 0.5078125 sits exactly on a 6-digit boundary: np.round
    gives 0.507812 (half to even), the oracle's ROUND 0.507813."""
    import pyarrow as pa

    from signal_collect_ray.pipelines.queries import _round_jaccard

    j = 65 / 128
    want = duckdb.connect().execute("SELECT ROUND(?, 6)", [j]).fetchone()[0]
    assert want == 0.507813
    tbl = pa.table({"id_a": [1], "id_b": [2], "jaccard": [j]})
    assert _round_jaccard(tbl).column("jaccard").to_pylist() == [want]


def test_bpe_merges_tiny_corpus():
    """First merges on a hand-computable corpus: 'low low lower' has
    'l o' (3 occurrences) as the top pair, ties broken lexicographically."""
    import pyarrow as pa
    import ray.data as rd

    from signal_collect_ray.functions.text import bpe_merges

    ds = rd.from_arrow(
        pa.table(
            {"text": pa.array(["low low lower", "lowest low"], pa.string())}
        )
    )
    t = bpe_merges(ds, k=3)
    got = [
        (r["merge_rank"], r["left"], r["right"], r["n"])
        for r in t.to_pylist()
    ]
    # 'low' x3, 'lower' x1, 'lowest' x1 → pairs: (l,o)=5, (o,w)=5 →
    # tie breaks to (l,o); then (lo,w)=5; then (low,e)=2
    assert got[0] == (1, "l", "o", 5)
    assert got[1] == (2, "lo", "w", 5)
    assert got[2] == (3, "low", "e", 2)


def test_holt_recurrence_brute():
    """q_holt_forecast's dyadic recurrence equals a literal Holt
    implementation on the sf0.001 daily series."""
    import duckdb

    from signal_collect_ray.pipelines.queries import q_holt_forecast

    t = q_holt_forecast("/root/testdata/sf0.001")
    con = duckdb.connect()
    xs = [
        int(n)
        for _, n in con.execute(
            "SELECT epoch_us(ts) // 86400000000 AS d, COUNT(*) FROM "
            "read_parquet('/root/testdata/sf0.001/events.parquet') "
            "GROUP BY d ORDER BY d"
        ).fetchall()
    ]
    l, b = float(xs[0]), float(xs[1] - xs[0])
    for x in xs[1:]:
        prev = l
        l = 0.5 * x + 0.5 * (l + b)
        b = 0.5 * (l - prev) + 0.5 * b
    for i, r in enumerate(t.to_pylist(), start=1):
        want = l + i * b
        f = 10.0 ** 6
        import numpy as _np

        want_r = float(_np.sign(want) * _np.floor(abs(want) * f + 0.5) / f)
        assert r["forecast"] == want_r


def test_log2_sketch_within_2x_of_exact():
    """The relative-error guarantee: each sketch estimate is within a
    factor of 2 of the exact quantile."""
    import duckdb
    import numpy as _np

    from signal_collect_ray.pipelines.queries import q_log2_quantile_sketch

    t = q_log2_quantile_sketch("/root/testdata/sf0.001")
    con = duckdb.connect()
    vals = _np.sort(
        con.execute(
            "SELECT GREATEST(ROUND(value * 100), 1) AS cents FROM "
            "read_parquet('/root/testdata/sf0.001/events.parquet')"
        ).fetchnumpy()["cents"]
    )
    for r in t.to_pylist():
        q = r["quantile_pct"]
        k = max(int(_np.ceil(q / 100.0 * len(vals))) - 1, 0)
        exact = vals[k] / 100.0
        assert exact / 2 <= r["estimate"] <= exact * 2, (q, exact, r)


def test_bounce_rate_brute():
    """page_bounce_rate equals a per-user brute sessionization."""
    import collections

    import duckdb

    from signal_collect_ray.pipelines.queries import (
        _BOUNCE_GAP_US,
        V_GRAPH,
        q_page_bounce_rate,
    )

    t = q_page_bounce_rate("/root/testdata/sf0.001")
    con = duckdb.connect()
    rows = con.execute(
        "SELECT user_id, event_id, epoch_us(ts) FROM "
        "read_parquet('/root/testdata/sf0.001/events.parquet') "
        "ORDER BY user_id, epoch_us(ts), event_id"
    ).fetchall()
    per_page = collections.defaultdict(lambda: [0, 0])  # total, bounces
    cur_user, last_t, sess = None, None, []
    sessions = []
    for u, e, ts in rows:
        if u != cur_user or (last_t is not None and ts - last_t > _BOUNCE_GAP_US):
            if sess:
                sessions.append(sess)
            sess = []
            cur_user = u
        sess.append(e)
        last_t = ts
    if sess:
        sessions.append(sess)
    for sess in sessions:
        page = (sess[0] * 7) % V_GRAPH
        per_page[page][0] += 1
        per_page[page][1] += 1 if len(sess) == 1 else 0
    got = {
        r["page"]: (r["sessions"], r["bounces"]) for r in t.to_pylist()
    }
    want = {p: (c[0], c[1]) for p, c in per_page.items()}
    assert got == want
