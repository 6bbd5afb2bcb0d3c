"""Deterministic Common-Crawl-style pages synthesizer.

Produces the input table from BASELINE.json's input_hint:
``(url:string, warc_ts:timestamp, html:binary, text:string, lang:string)``.

Every byte is a pure function of ``(seed, page index)`` — independent of
batch boundaries, partition count, and execution order — so the same
table is reproducible at any scale and the link topology has a closed
form (``page_links``) usable as an analytic oracle (including in SQL).

The embedded anchors match the reference crawler's regex semantics
(``/root/reference/src/main/scala/com/signalcollect/examples/WebCrawler.scala:28``):
double- and single-quoted hrefs, optional extra attributes, anchor text,
closing ``</a>``. Link targets follow a power-law-ish in-degree
(u^3 concentration) so hub-skew handling is actually exercised.
"""

from __future__ import annotations

import numpy as np

# 64-entry fixed wordlist for filler / anchor text (deterministic).
WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform victor "
    "whiskey xray yankee zulu amber basalt cedar dune ember fjord garnet "
    "harbor inlet jasper krill lagoon mesa nectar onyx prairie quartz reef "
    "summit tundra vale willow zenith anchor beacon cairn ebb flume "
    "grove heath isle knoll ledge marsh notch outcrop pond quay"
).split()
assert len(WORDS) == 64

_BASE_TS_US = 1_700_000_000_000_000  # 2023-11-14T22:13:20Z, microseconds


def _mix(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64/murmur3 finalizer — public-domain integer mixer."""
    with np.errstate(over="ignore"):
        x = np.uint64(x) if np.isscalar(x) else x.astype(np.uint64, copy=False)
        x = x ^ (x >> np.uint64(33))
        x = x * np.uint64(0xFF51AFD7ED558CCD)
        x = x ^ (x >> np.uint64(33))
        x = x * np.uint64(0xC4CEB9FE1A85EC53)
        x = x ^ (x >> np.uint64(33))
        return x


def _h(seed: int, salt: int, i) -> np.ndarray | int:
    with np.errstate(over="ignore"):
        return _mix(
            np.uint64(i) * np.uint64(0x9E3779B97F4A7C15)
            + np.uint64(seed) * np.uint64(0x2545F4914F6CDD1D)
            + np.uint64(salt)
        )


def page_url(i: int, n_pages: int) -> str:
    n_sites = max(1, n_pages // 100)
    return f"https://site{i % n_sites}.test/p{i}"


def _link_counts(idx: np.ndarray, n_pages: int, avg_links: int, seed: int):
    return 1 + (_h(seed, 1, idx) % np.uint64(2 * avg_links - 1)).astype(np.int64)


def page_links(
    idx: np.ndarray, n_pages: int, avg_links: int = 8, seed: int = 42
):
    """Closed-form link topology: (src_idx, dst_idx) int64 arrays.

    For page i the j-th of k_i links targets
    ``floor(n * u^3)`` where u = hash(seed, i, j) / 2^64 — power-law-ish
    hub concentration toward low indices. Self-links are shifted by one.
    ``k_i = 1 + h % (2*avg_links-1)`` (mean = avg_links).
    """
    idx = np.asarray(idx, dtype=np.int64)
    counts = _link_counts(idx, n_pages, avg_links, seed)
    total = int(counts.sum())
    offs = np.repeat(counts.cumsum() - counts, counts)
    j = np.arange(total, dtype=np.int64) - offs
    src = np.repeat(idx, counts)
    u = _h(seed, 2, src * np.int64(1_000_003) + j).astype(np.float64) / 2.0**64
    dst = np.floor(n_pages * u**3).astype(np.int64)
    dst = np.minimum(dst, n_pages - 1)
    dst = np.where(dst == src, (dst + 1) % n_pages, dst)
    return src, dst


_WORDS_ARR = np.array(WORDS, dtype=object)


def _render_pages_batch(idx: np.ndarray, n_pages: int, avg_links: int, seed: int):
    """Render a whole BATCH of pages: list of (url, ts_us, html_bytes,
    text, lang) rows.

    ``text`` is built independently from the word sequence (not by
    stripping the html), so the extractor invariant
    ``extract_text(html) == text`` is a genuine cross-check.

    All hash/index math (link topology, word choices, anchor words,
    styles, langs) is computed ONCE as flat batch arrays — the per-page
    loop only does C-speed string joins. Byte-identical to rendering
    each page alone (``_render_page`` delegates here; pinned by the
    extractor-invariant tests)."""
    idx = np.asarray(idx, dtype=np.int64)
    counts = _link_counts(idx, n_pages, avg_links, seed)
    _, dst_all = page_links(idx, n_pages, avg_links, seed)
    link_off = np.concatenate([[0], np.cumsum(counts)[:-1]])
    nw = np.maximum(
        20 + (_h(seed, 4, idx) % np.uint64(30)).astype(np.int64), 2 * counts
    )
    word_off = np.concatenate([[0], np.cumsum(nw)[:-1]])
    total_w = int(nw.sum())
    rep_i = np.repeat(idx, nw)
    jw = np.arange(total_w, dtype=np.int64) - np.repeat(word_off, nw)
    widx = (
        _h(seed, 5, rep_i * np.int64(131) + jw) & np.uint64(63)
    ).astype(np.int64)
    all_words = _WORDS_ARR[widx]
    total_l = int(counts.sum())
    il = np.repeat(idx, counts)
    tl = np.arange(total_l, dtype=np.int64) - np.repeat(link_off, counts)
    base7 = (il * np.int64(1009) + tl) * np.int64(131)
    aw0 = (_h(seed, 7, base7) & np.uint64(63)).astype(np.int64)
    aw1 = (_h(seed, 7, base7 + np.int64(1)) & np.uint64(63)).astype(np.int64)
    styles_all = (
        _h(seed, 8, il * np.int64(1013) + tl) % np.uint64(16)
    ).astype(np.int64)
    langs_de = (_h(seed, 9, idx) % np.uint64(17)).astype(np.int64) == 0

    rows = []
    for b in range(len(idx)):
        i = int(idx[b])
        k = int(counts[b])
        n_words = int(nw[b])
        w0, l0 = int(word_off[b]), int(link_off[b])
        words = all_words[w0 : w0 + n_words].tolist()
        title = f"Page {i}"
        parts = [
            f"<html><head><title>{title}</title></head><body><h1>{title}</h1><p>"
        ]
        text_parts = [title, title]
        # interleave anchors between filler words at deterministic,
        # collision-free positions (k ≤ 2*avg_links-1 < n_words); loop
        # over the k anchors with C-speed word-slice joins between them.
        anchor_pos = {(t * n_words) // max(k, 1): t for t in range(k)}
        prev = 0
        for pos in sorted(anchor_pos):
            t = anchor_pos[pos]
            seg = words[prev : pos + 1]
            if seg:
                parts.append(" ".join(seg) + " ")
                text_parts.extend(seg)
            prev = pos + 1
            href = page_url(int(dst_all[l0 + t]), n_pages)
            a_words = [WORDS[aw0[l0 + t]], WORDS[aw1[l0 + t]]]
            a_text = " ".join(a_words)
            style = int(styles_all[l0 + t])
            if style == 0:
                parts.append(f"<a href='{href}'>{a_text}</a> ")
            elif style in (1, 2, 3):
                parts.append(f'<a href="{href}" class="ext">{a_text}</a> ')
            else:
                parts.append(f'<a href="{href}">{a_text}</a> ')
            text_parts.extend(a_words)
        tail = words[prev:]
        if tail:
            parts.append(" ".join(tail) + " ")
            text_parts.extend(tail)
        parts.append("</p></body></html>")
        lang = "de" if langs_de[b] else "en"
        rows.append(
            (
                page_url(i, n_pages),
                _BASE_TS_US + i * 1_000_000,
                "".join(parts).encode("iso-8859-1"),
                " ".join(text_parts),
                lang,
            )
        )
    return rows


def _render_page(i: int, n_pages: int, avg_links: int, seed: int):
    """Render one page (single-element batch)."""
    return _render_pages_batch(
        np.array([i], dtype=np.int64), n_pages, avg_links, seed
    )[0]


class _PageBatchGen:
    """map_batches callable: page indices → pages rows (actor-pool-safe)."""

    def __init__(self, n_pages: int, avg_links: int, seed: int):
        self.n_pages, self.avg_links, self.seed = n_pages, avg_links, seed

    def __call__(self, batch):
        import pyarrow as pa

        idx = batch["id"]
        rows = _render_pages_batch(
            np.asarray(idx, dtype=np.int64), self.n_pages, self.avg_links,
            self.seed,
        )
        urls, tss, htmls, texts, langs = zip(*rows) if rows else ((),) * 5
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(list(tss), pa.timestamp("us")),
                "html": pa.array(list(htmls), pa.binary()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        )


def synthesize_pages_dataset(
    n_pages: int,
    avg_links: int = 8,
    seed: int = 42,
    override_num_blocks: int | None = None,
):
    """Deterministic pages table as a Ray Dataset (lazy, parallel)."""
    import ray.data as rd

    ds = rd.range(n_pages, override_num_blocks=override_num_blocks)
    return ds.map_batches(
        _PageBatchGen(n_pages, avg_links, seed),
        batch_format="numpy",
        batch_size=4096,
    )


class _DocPageGen:
    """map_batches callable: documents rows → pages rows, embedding the
    closed-form link topology (page_links) as anchors around the doc text."""

    def __init__(self, n_docs: int, avg_links: int, seed: int):
        self.n_docs, self.avg_links, self.seed = n_docs, avg_links, seed

    def __call__(self, tbl):
        import pyarrow as pa

        ids = tbl.column("doc_id").to_pylist()
        texts = tbl.column("text").to_pylist()
        urls, tss, htmls, outs, langs = [], [], [], [], []
        for i, text in zip(ids, texts):
            i = int(i)
            _, dst = page_links(
                np.array([i], dtype=np.int64), self.n_docs, self.avg_links, self.seed
            )
            body = " ".join((text or "").split())
            parts = [f"<html><body><p>{body} "]
            tparts = [body] if body else []
            for t, d in enumerate(dst):
                href = page_url(int(d), self.n_docs)
                parts.append(f'<a href="{href}">link {t}</a> ')
                tparts.extend(["link", str(t)])
            parts.append("</p></body></html>")
            urls.append(page_url(i, self.n_docs))
            tss.append(_BASE_TS_US + i * 1_000_000)
            htmls.append("".join(parts).encode("iso-8859-1"))
            outs.append(" ".join(tparts))
            langs.append("en")
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us")),
                "html": pa.array(htmls, pa.binary()),
                "text": pa.array(outs, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        )


def pages_from_documents(docs_ds, n_docs: int, avg_links: int = 6, seed: int = 42):
    """Wrap a documents table (doc_id, text) into Common-Crawl-style pages
    whose link graph is the deterministic ``page_links`` topology."""
    return docs_ds.map_batches(
        _DocPageGen(n_docs, avg_links, seed), batch_format="pyarrow", batch_size=1024
    )
