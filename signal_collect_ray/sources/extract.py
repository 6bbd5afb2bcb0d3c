"""Link + text extraction from Common-Crawl-style pages.

Link semantics mirror the reference crawler's regex
(``/root/reference/src/main/scala/com/signalcollect/examples/WebCrawler.scala:28``):

    <a\\s+href=(?:"([^"]+)"|'([^']+)').*?</a>

applied with Scala-default flags (no DOTALL — anchors must not span
newlines), matches in document order. The reference maps ``_.group(1)``
(null for single-quoted hrefs); we take group 1 or group 2 so
single-quoted links are kept — a documented, deliberate divergence from
a reference bug.

The html byte column is decoded as ISO-8859-1, matching the reference's
``io.Source.fromURL(id, "ISO-8859-1")`` (``WebCrawler.scala:57``).

Per-row invariant (BASELINE.json input_hint): ``extract_text(html)`` must
be byte-identical to the page's ``text`` column — enforced in pytest.
"""

from __future__ import annotations

import re

import numpy as np

HYPERLINK_RE = re.compile(r"""<a\s+href=(?:"([^"]+)"|'([^']+)').*?</a>""")
_TAG_RE = re.compile(r"<[^>]*>")
_WS_RE = re.compile(r"\s+")


def extract_links(html: str) -> list[str]:
    """All hrefs in document order (group 1, else group 2)."""
    return [m.group(1) or m.group(2) for m in HYPERLINK_RE.finditer(html)]


def extract_text(html: str) -> str:
    """Tag-stripped, whitespace-collapsed page text."""
    return _WS_RE.sub(" ", _TAG_RE.sub(" ", html)).strip()


def _decode(html) -> str:
    return html.decode("iso-8859-1") if isinstance(html, (bytes, bytearray)) else html


class LinkExtractor:
    """Stateful map_batches stage: pages → (src_url, dst_url) edge rows.

    Regexes compile once per actor (``__init__``), per-batch work is a
    finditer over each page body (pages are the natural coarse unit; the
    regex scan itself runs in C).
    """

    def __init__(self, dedup_within_page: bool = False):
        self.link_re = HYPERLINK_RE
        self.dedup = dedup_within_page

    def __call__(self, batch):
        import pyarrow as pa

        srcs: list[str] = []
        dsts: list[str] = []
        for url, html in zip(
            batch["url"].to_pylist(), batch["html"].to_pylist()
        ):
            links = extract_links(_decode(html))
            if self.dedup:
                seen = set()
                links = [x for x in links if not (x in seen or seen.add(x))]
            srcs.extend([url] * len(links))
            dsts.extend(links)
        return pa.table(
            {"src_url": pa.array(srcs, pa.string()), "dst_url": pa.array(dsts, pa.string())}
        )


class TextExtractor:
    """Stateful map_batches stage: pages → (url, extracted_text)."""

    def __init__(self):
        self.tag_re = _TAG_RE
        self.ws_re = _WS_RE

    def __call__(self, batch):
        import pyarrow as pa

        texts = [extract_text(_decode(h)) for h in batch["html"].to_pylist()]
        return pa.table(
            {
                "url": batch["url"],
                "extracted_text": pa.array(texts, pa.string()),
            }
        )


class _UrlEdgeToVid:
    """(src_url, dst_url) → (src:int64, dst:int64, weight) via 63-bit url
    hash. A batch repeats its urls (one src per page, popular targets),
    so both columns are dictionary-encoded together and each distinct
    url is hashed once; the vids are taken by dictionary index."""

    def __call__(self, batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        from signal_collect_ray.util import urls_to_vids

        n = len(batch)
        urls = pa.concat_arrays(
            [batch["src_url"].combine_chunks(), batch["dst_url"].combine_chunks()]
        )
        enc = pc.dictionary_encode(urls)
        vids = urls_to_vids(enc.dictionary.to_pylist())[
            enc.indices.to_numpy(zero_copy_only=False)
        ]
        src, dst = vids[:n], vids[n:]
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "weight": pa.array(np.ones(len(src)), pa.float64()),
            }
        )


def pages_to_edges(pages_ds, keep_urls: bool = False, concurrency=None):
    """pages Dataset → edge Dataset (src:int64, dst:int64, weight:float64).

    Projects away ``html`` immediately after extraction (SURVEY §7.4.6 —
    wide binary columns must not flow past the extract stage). Vertex
    ids are deterministic 63-bit url hashes (``util.url_to_vid``), so no
    global dictionary shuffle is needed — fully parallel at any scale.

    ``concurrency``: None → stateless tasks; an int/tuple → a map_batches
    actor pool (regexes compiled once per actor).
    """
    kwargs = dict(batch_format="pyarrow", batch_size=512)
    projected = pages_ds.select_columns(["url", "html"])
    if concurrency is None:
        link_rows = projected.map_batches(LinkExtractor(), **kwargs)
    else:
        link_rows = projected.map_batches(
            LinkExtractor, concurrency=concurrency, **kwargs
        )
    if keep_urls:
        return link_rows
    return link_rows.map_batches(_UrlEdgeToVid(), batch_format="pyarrow")
