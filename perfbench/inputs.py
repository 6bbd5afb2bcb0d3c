"""Seeded input generation and the expected results the checks compare to.

Run as a child process during set-up (``python3 inputs.py <workload>
<seed> <out_dir> full|tiny``), so that the benchmark process's peak RSS
reflects the program, not the generator. Writes the workload's Parquet input under
``<out_dir>/input`` and the expected results to ``<out_dir>/expected.npz``.

Nothing here imports the program: the vertex ids are recomputed from the
documented url hash (blake2b, 8-byte digest, big endian, top bit
cleared), and every expected result comes from numpy or DuckDB.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Input sizes, fixed so that one round of each workload takes a few
# seconds in a 1-CPU Ray session. "tiny" serves the self-test.
SIZES = {
    "full": {
        "crawl_pages": 8_000,
        "checkpoint_vertices": 20_000,
        "checkpoint_k": 4,  # supersteps before the resume; the resume runs to 2k
        "hub_scale": 13,  # R-MAT over 2^scale vertex slots, 8 edges per slot
        "hub_paths": (400, 250, 120),  # separate paths: CC needs max(len) supersteps
    },
    "tiny": {
        "crawl_pages": 300,
        "checkpoint_vertices": 200,
        "checkpoint_k": 2,
        "hub_scale": 7,
        "hub_paths": (30, 12),
    },
}
CRAWL_MEAN_LINKS = 16
CRAWL_EXTERNAL = 0.05  # share of links that leave the crawl (dangling targets)
CHECKPOINT_MEAN_DEGREE = 8
HUB_EDGES_PER_SLOT = 8

DAMPING = 0.85

_WORDS = (
    "crawl index anchor page link graph rank vertex edge signal collect "
    "superstep frontier hub shard café über naïve résumé "
    "harbor summit willow quartz ember lagoon prairie"
).split()


def url_vid(url: str) -> int:
    """The documented vertex id of a url: blake2b-8, big endian, top bit clear."""
    d = hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(d, "big") & 0x7FFFFFFFFFFFFFFF


def _injective_vids(urls: list[str]) -> np.ndarray:
    vids = np.fromiter((url_vid(u) for u in urls), np.int64, count=len(urls))
    if len(np.unique(vids)) != len(urls):
        raise ValueError("url hash is not injective on this input; pick another seed")
    return vids


# -- crawl_pagerank ---------------------------------------------------------


def make_pages(rng: np.random.Generator, n_pages: int):
    """Common-Crawl-style pages (url, warc_ts, html, text, lang).

    Link targets follow a Zipf law over a random page order (heavy-tailed
    in-degree); about 5 % of links leave the crawl. Pages repeat some
    links, a few link to themselves, about 2 % have no links, anchors
    mix single and double quotes and extra attributes, and decoy tags
    (``<a name=...>``, ``<link href=...>``) must not count as links.

    Returns (table, src_url_index, dst_url_index, urls) where the link
    arrays index ``urls`` (pages first, then external targets).
    """
    n_sites = max(1, n_pages // 50)
    urls = [
        f"http://site{int(s)}.example/p{i}.html"
        for i, s in enumerate(rng.integers(0, n_sites, n_pages))
    ]
    n_ext = max(1, n_pages // 4)
    urls += [f"https://ext{j % 97}.example/r{j}?ref=crawl&n={j}" for j in range(n_ext)]

    by_rank = rng.permutation(n_pages)  # by_rank[r] is the page of popularity rank r
    rank = np.empty(n_pages, np.int64)
    rank[by_rank] = np.arange(n_pages)
    weights = 1.0 / (rank + 1.0) ** 0.9
    weights /= weights.sum()
    n_links = rng.poisson(CRAWL_MEAN_LINKS - 1, n_pages) + 1
    n_links[rng.random(n_pages) < 0.02] = 0
    # The hubs' own links decide how much rank circulates among them, and
    # so how many supersteps PageRank needs. Fixing them by rank keeps
    # that count, and the run's cost, the same on every seed.
    n_hubs = max(1, n_pages // 100)
    hubs = by_rank[:n_hubs]
    n_links[hubs] = CRAWL_MEAN_LINKS
    total = int(n_links.sum())
    src = np.repeat(np.arange(n_pages), n_links)
    dst = rng.choice(n_pages, size=total, p=weights)
    external = rng.random(total) < CRAWL_EXTERNAL
    dst[external] = n_pages + rng.integers(0, n_ext, int(external.sum()))
    # explicit repeats of the previous link and self-links
    repeat = np.flatnonzero(rng.random(total) < 0.04)
    repeat = repeat[(repeat > 0) & (src[repeat] == src[repeat - 1])]
    dst[repeat] = dst[repeat - 1]
    selfl = np.flatnonzero(rng.random(total) < 0.01)
    dst[selfl] = src[selfl]
    starts = np.concatenate([[0], np.cumsum(n_links)])
    for r, page in enumerate(hubs):
        # hub r links to the next ranks below the hubs, 16 per hub
        first = n_hubs + r * CRAWL_MEAN_LINKS
        dst[starts[page]:starts[page + 1]] = by_rank[
            (first + np.arange(CRAWL_MEAN_LINKS)) % n_pages
        ]

    quote = rng.random(total) < 0.5
    extra_attr = rng.random(total) < 0.3
    wide_gap = rng.random(total) < 0.1
    words = np.array(_WORDS, dtype=object)
    word_idx = rng.integers(0, len(words), size=(total, 2))
    filler_idx = rng.integers(0, len(words), size=(n_pages, 12))
    base_us = 1_700_000_000_000_000
    ts = base_us + np.sort(rng.integers(0, 86_400_000_000 * 30, n_pages))
    langs = np.where(rng.random(n_pages) < 0.1, "de", "en")

    htmls, texts = [], []
    for i in range(n_pages):
        filler = " ".join(words[filler_idx[i]])
        lines = [
            f"<html><head><title>page {i}</title>",
            '<link href="/style.css" rel="stylesheet"></head><body>',
            f"<p>{filler}</p>",
            '<a name="top">top</a>',
        ]
        text = [f"page {i}", filler, "top"]
        for e in range(starts[i], starts[i + 1]):
            target = urls[dst[e]]
            href = f'"{target}"' if quote[e] else f"'{target}'"
            gap = " \t " if wide_gap[e] else " "
            attr = ' class="out"' if extra_attr[e] else ""
            anchor = f"{words[word_idx[e, 0]]} {words[word_idx[e, 1]]}"
            lines.append(f"<a{gap}href={href}{attr}>{anchor}</a>")
            text.append(anchor)
        lines.append("</body></html>")
        htmls.append("\n".join(lines).encode("iso-8859-1"))
        texts.append(" ".join(text))
    table = pa.table(
        {
            "url": pa.array(urls[:n_pages], pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs.tolist(), pa.string()),
        }
    )
    return table, src, dst, urls


def _pagerank_map(src: np.ndarray, dst: np.ndarray, n: int):
    """x ↦ 0.15 + 0.85·Aᵀ(x/outdeg): the unnormalised PageRank update.

    No dangling redistribution; duplicate edges count with multiplicity.
    """
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    inv = np.divide(1.0, outdeg, out=np.zeros(n), where=outdeg > 0)
    return lambda x: (1.0 - DAMPING) + DAMPING * np.bincount(
        dst, weights=(x * inv)[src], minlength=n
    )


def pagerank_fixpoint(src: np.ndarray, dst: np.ndarray, n: int, tol: float = 1e-13):
    """Power iteration of the update from x₀ = 0.15 until no value moves by ``tol``."""
    step = _pagerank_map(src, dst, n)
    x = np.full(n, 1.0 - DAMPING)
    for _ in range(10_000):
        nxt = step(x)
        if np.abs(nxt - x).max() < tol:
            return nxt
        x = nxt
    raise RuntimeError("power iteration did not converge")


def jacobi(src: np.ndarray, dst: np.ndarray, n: int, steps: int) -> np.ndarray:
    """``steps`` synchronous PageRank updates from x₀ = 0.15."""
    step = _pagerank_map(src, dst, n)
    x = np.full(n, 1.0 - DAMPING)
    for _ in range(steps):
        x = step(x)
    return x


def crawl_inputs(rng, out_dir: str, sizes: dict) -> dict:
    n_pages = sizes["crawl_pages"]
    table, src, dst, urls = make_pages(rng, n_pages)
    vids = _injective_vids(urls)
    # the graph holds every url that is a page or a link target
    used = np.zeros(len(urls), bool)
    used[src] = True
    used[dst] = True
    order = np.argsort(vids[used])
    present = np.flatnonzero(used)[order]
    remap = np.full(len(urls), -1, np.int64)
    remap[present] = np.arange(len(present))
    s, d = remap[src], remap[dst]
    n = len(present)
    _write_parts(table, os.path.join(out_dir, "input"), 4)
    return {
        "vid": vids[present],
        "pagerank": pagerank_fixpoint(s, d, n),
        "out_degree": np.bincount(s, minlength=n),
        "pages": np.int64(n_pages),
        "links": np.int64(len(src)),
        "html_bytes": np.int64(sum(len(h) for h in table.column("html").to_pylist())),
    }


# -- checkpoint_resume ------------------------------------------------------


def _random_vids(rng, n: int) -> np.ndarray:
    vids = np.unique(rng.integers(0, 2**62, size=n + n // 8, dtype=np.int64))
    return rng.permutation(vids)[:n]


def checkpoint_inputs(rng, out_dir: str, sizes: dict) -> dict:
    """Edges with Zipf-skewed in-degree; every vertex has an out-edge."""
    n, k = sizes["checkpoint_vertices"], sizes["checkpoint_k"]
    vids = np.sort(_random_vids(rng, n))
    m = n * CHECKPOINT_MEAN_DEGREE
    popularity = rng.permutation(n)
    p = 1.0 / (popularity + 1.0) ** 0.7
    src = np.concatenate([rng.integers(0, n, m), np.arange(n)])
    dst = np.concatenate([rng.choice(n, size=m, p=p / p.sum()), rng.integers(0, n, n)])
    table = pa.table({"src": pa.array(vids[src]), "dst": pa.array(vids[dst])})
    _write_parts(table, os.path.join(out_dir, "input"), 2)
    return {
        "vid": vids,
        "k": np.int64(k),
        "state_k": jacobi(src, dst, n, k),
        "state_2k": jacobi(src, dst, n, 2 * k),
    }


# -- hub_components ---------------------------------------------------------


def rmat(rng, scale: int, m: int, probs=(0.57, 0.19, 0.19, 0.05)):
    """R-MAT edge slots: recursive quadrant choice with the given probabilities."""
    src = np.zeros(m, np.int64)
    dst = np.zeros(m, np.int64)
    cum = np.cumsum(probs)
    for bit in range(scale):
        q = np.searchsorted(cum, rng.random(m), side="right")
        src |= ((q >= 2).astype(np.int64)) << bit
        dst |= ((q % 2).astype(np.int64)) << bit
    return src, dst


def union_find_min(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Component of each index as its smallest member (hook-and-compress
    union-find on arrays: the larger root is hooked below the smaller)."""
    parent = np.arange(n)
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return parent
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def triangles_duckdb(edge_dir: str) -> tuple[int, int]:
    """(undirected edges, triangles) of the undirected simple graph, counted in SQL."""
    import duckdb

    con = duckdb.connect()
    try:
        con.execute("SET threads = 1")
        con.execute(
            f"""
            CREATE TABLE e AS
            SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
            FROM read_parquet('{edge_dir}/*.parquet') WHERE src <> dst
            """
        )
        edges = con.execute("SELECT count(*) FROM e").fetchone()[0]
        triangles = con.execute(
            """
            SELECT count(*) FROM e e1
            JOIN e e2 ON e2.a = e1.b
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            """
        ).fetchone()[0]
        return int(edges), int(triangles)
    finally:
        con.close()


def hub_inputs(rng, out_dir: str, sizes: dict) -> dict:
    scale = sizes["hub_scale"]
    s, d = rmat(rng, scale, HUB_EDGES_PER_SLOT << scale)
    slots = np.unique(np.concatenate([s, d]))
    core_vids = _random_vids(rng, len(slots))
    slot_vid = np.zeros(1 << scale, np.int64)
    slot_vid[slots] = core_vids
    src_parts, dst_parts = [slot_vid[s]], [slot_vid[d]]
    for length in sizes["hub_paths"]:
        # vids ascend along the path, so the component minimum sits at one
        # end and min-label CC needs `length` supersteps to reach the other
        path = np.sort(_random_vids(rng, length + 1))
        forward = rng.random(length) < 0.5
        src_parts.append(np.where(forward, path[:-1], path[1:]))
        dst_parts.append(np.where(forward, path[1:], path[:-1]))
    src, dst = np.concatenate(src_parts), np.concatenate(dst_parts)
    edge_dir = os.path.join(out_dir, "input")
    _write_parts(pa.table({"src": pa.array(src), "dst": pa.array(dst)}), edge_dir, 2)

    vids, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    u, v = inv[: len(src)], inv[len(src):]
    comp = union_find_min(u, v, len(vids))
    undirected, triangles = triangles_duckdb(edge_dir)
    return {
        "vid": vids,
        "cc": vids[comp],
        "undirected_edges": np.int64(undirected),
        "triangles": np.int64(triangles),
    }


def _write_parts(table: pa.Table, out: str, parts: int) -> None:
    os.makedirs(out, exist_ok=True)
    step = -(-len(table) // parts)
    for p in range(parts):
        pq.write_table(table.slice(p * step, step), os.path.join(out, f"part-{p}.parquet"))


MAKERS = {
    "crawl_pagerank": crawl_inputs,
    "checkpoint_resume": checkpoint_inputs,
    "hub_components": hub_inputs,
}


def main(argv: list[str]) -> None:
    workload, seed, out_dir, size = argv[1], int(argv[2]), argv[3], argv[4]
    rng = np.random.default_rng(seed)
    expected = MAKERS[workload](rng, out_dir, SIZES[size])
    np.savez(os.path.join(out_dir, "expected.npz"), **expected)


if __name__ == "__main__":
    main(sys.argv)
