"""Link/text extraction conformance (reference WebCrawler.scala:28,57).

Includes the per-row invariant from BASELINE.json input_hint: extracted
text must be byte-identical per url, checked against an independently
coded oracle extractor here (not the library implementation).
"""

import re

import numpy as np
import pytest

from signal_collect_ray.sources import (
    extract_links,
    extract_text,
    synthesize_pages_dataset,
    page_links,
    page_url,
    pages_to_edges,
)
from signal_collect_ray.util import url_to_vid


def test_reference_regex_semantics():
    html = (
        '<p><a href="http://a.test/x">one</a> filler '
        "<a href='http://b.test/y'>two</a> "
        '<a href="http://c.test/z" class="ext" id=3>three</a> '
        "<a name=anchor>no href</a> "
        '<a href="http://d.test/w">anchor text\nspans lines</a></p>'
    )
    links = extract_links(html)
    # double-quoted, single-quoted (divergence: reference group(1) would be
    # null), attribute-bearing — and NOT the one whose anchor body spans a
    # newline (Scala default regex: '.' does not match newline, so the
    # `.*?</a>` tail cannot cross lines).
    assert links == ["http://a.test/x", "http://b.test/y", "http://c.test/z"]


def test_text_extraction_collapses():
    html = "<html><body><h1>T</h1><p>a  b\n c <b>d</b></p></body></html>"
    assert extract_text(html) == "T a b c d"


def _oracle_links(html: str):
    # independently coded reference-regex oracle
    out = []
    for m in re.finditer(r"""<a\s+href=(?:"([^"]+)"|'([^']+)').*?</a>""", html):
        out.append(m.group(1) if m.group(1) is not None else m.group(2))
    return out


def _oracle_text(html: str):
    return re.sub(r"\s+", " ", re.sub(r"<[^>]*>", " ", html)).strip()


def test_pages_text_invariant_byte_identical():
    ds = synthesize_pages_dataset(60, avg_links=5, seed=42)
    rows = ds.take_all()
    assert len(rows) == 60
    for r in rows:
        html = r["html"].decode("iso-8859-1")
        assert extract_text(html) == r["text"], r["url"]
        assert _oracle_text(html) == r["text"], r["url"]


def test_pages_links_match_closed_form():
    n = 50
    ds = synthesize_pages_dataset(n, avg_links=4, seed=7)
    rows = {r["url"]: r for r in ds.take_all()}
    src, dst = page_links(np.arange(n), n, avg_links=4, seed=7)
    expected: dict = {}
    for s, d in zip(src, dst):
        expected.setdefault(page_url(int(s), n), []).append(page_url(int(d), n))
    for url, r in rows.items():
        html = r["html"].decode("iso-8859-1")
        links = _oracle_links(html)
        assert sorted(links) == sorted(expected.get(url, [])), url


def test_pages_deterministic_across_block_sizes():
    a = sorted(
        (r["url"], r["html"], r["text"])
        for r in synthesize_pages_dataset(40, seed=42, override_num_blocks=1).take_all()
    )
    b = sorted(
        (r["url"], r["html"], r["text"])
        for r in synthesize_pages_dataset(40, seed=42, override_num_blocks=7).take_all()
    )
    assert a == b


def test_pages_to_edges_roundtrip():
    n = 30
    ds = synthesize_pages_dataset(n, avg_links=3, seed=11)
    edges = pages_to_edges(ds).take_all()
    src, dst = page_links(np.arange(n), n, avg_links=3, seed=11)
    expected = sorted(
        (url_to_vid(page_url(int(s), n)), url_to_vid(page_url(int(d), n)))
        for s, d in zip(src, dst)
    )
    got = sorted((r["src"], r["dst"]) for r in edges)
    assert got == expected


def test_url_edge_to_vid_matches_url_to_vid_per_link():
    # each distinct url is hashed once per batch; every link must still
    # get exactly url_to_vid of its own url
    import pyarrow as pa

    from signal_collect_ray.sources.extract import _UrlEdgeToVid

    src = ["http://a.test/", "http://a.test/", "", "http://ü.test/naïve", "http://a.test/"]
    dst = ["http://b.test/x", "", "http://a.test/", "http://a.test/", "http://ü.test/naïve"]
    batch = pa.table(
        {
            "src_url": pa.chunked_array([src[:2], src[2:4], src[4:]], pa.string()),
            "dst_url": pa.chunked_array([dst[:3], dst[3:]], pa.string()),
        }
    )
    out = _UrlEdgeToVid()(batch)
    assert out["src"].to_pylist() == [url_to_vid(u) for u in src]
    assert out["dst"].to_pylist() == [url_to_vid(u) for u in dst]
    assert out["weight"].to_pylist() == [1.0] * len(src)
    empty = _UrlEdgeToVid()(batch.slice(0, 0))
    assert len(empty) == 0 and empty.schema.names == ["src", "dst", "weight"]
