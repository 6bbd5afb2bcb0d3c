"""Deduplication family for training-data pipelines.

Every variant follows the scale pattern from the Ray Data guide: a
vectorized per-batch fingerprint/sketch stage, a groupby on the
fingerprint (the only shuffle), and per-group winner selection. Keys are
content hashes, so hub skew is bounded by true duplicate multiplicity.

* exact: normalized-text hash → hash-partition → keep min doc_id
* minhash_lsh: shingle → minhash → band buckets → candidate pairs →
  Jaccard verify (classic MinHash+LSH; Broder 1997 / MMDS ch.3)
* simhash: 64-bit simhash (Charikar 2002), duplicates = identical keys
  on rotated prefixes (hamming-adjacent buckets)
* ngram_jaccard: exact n-gram Jaccard verification for candidate pairs
* embedding cosine near-dup: see functions/similarity.py
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np
import pyarrow as pa

from signal_collect_ray.util import isin_sorted, mix64, pin_schema, segment_starts

_MERSENNE = (1 << 61) - 1
_POLY_BASE = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd constant


def _norm(t: str) -> str:
    return " ".join((t or "").lower().split())


def _hash64(s: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big"
    ) & 0x7FFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

class _ExactKey:
    __name__ = "_ExactKey"

    def __call__(self, tbl: pa.Table) -> pa.Table:
        keys = [
            _hash64(_norm(t)) for t in tbl.column("text").to_pylist()
        ]
        return tbl.append_column("content_hash", pa.array(keys, pa.int64()))


class _KeepMinId:
    __name__ = "_KeepMinId"

    def __init__(self, id_col: str):
        self.id_col = id_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        ids = tbl.column(self.id_col).to_numpy(zero_copy_only=False)
        return tbl.take(pa.array([int(np.argmin(ids))], pa.int64()))


def dedup_exact(docs_ds, id_col: str = "doc_id"):
    """Exact dedup on normalized text; keeps the min-id representative.

    hash → groupby(content_hash) → first (min id). One shuffle whose key
    cardinality ≈ distinct documents."""
    keyed = docs_ds.map_batches(_ExactKey(), batch_format="pyarrow")
    return (
        keyed.groupby("content_hash")
        .map_groups(_KeepMinId(id_col), batch_format="pyarrow")
        .drop_columns(["content_hash"])
    )


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------

def _word_hashes(words: list) -> np.ndarray:
    """64-bit hash per word (C-level blake2b per word)."""
    return np.fromiter(
        (_hash64(w) for w in words), dtype=np.uint64, count=len(words)
    )


def _poly_windows(wh: np.ndarray, k: int) -> np.ndarray:
    """Sliding k-window polynomial fold + splitmix64 finalizer over a
    word-hash array: window values are independent per row, so the fold
    runs as k strided adds over the WHOLE array — no per-window loop."""
    n = len(wh) - k + 1
    with np.errstate(over="ignore"):
        acc = np.zeros(n, dtype=np.uint64)
        for j in range(k):
            acc = acc * _POLY_BASE + wh[j : j + n]
    return mix64(acc)


def _shingles(text: str, k: int = 5) -> np.ndarray:
    """Word k-shingle 64-bit hashes of one normalized text. Injective up
    to hash collisions (~n²/2^64), so set-Jaccard over these hashes
    equals string-shingle Jaccard for all practical corpus sizes."""
    words = _norm(text).split()
    if len(words) < k:
        return np.array([_hash64(" ".join(words))], dtype=np.uint64)
    return _poly_windows(_word_hashes(words), k)


def _batch_shingles(texts: list, k: int):
    """Shingle hashes for a WHOLE batch as one flat array + per-doc
    counts (doc order preserved; values identical to ``_shingles``).

    The per-doc numpy fixed costs vanish: all long docs' word hashes
    form one flat array, the k-window polynomial fold runs once over it,
    and windows that straddle a document boundary are masked out. Word
    hashing is memoized per batch — on Zipfian text the vocabulary is
    far smaller than the token stream."""
    word_lists = [_norm(t).split() for t in texts]
    lens = np.array([len(w) for w in word_lists], dtype=np.int64)
    short = lens < k
    counts = np.where(short, 1, lens - k + 1)
    out = np.empty(int(counts.sum()), dtype=np.uint64)
    out_off = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # short docs: single whole-text shingle each
    for i in np.flatnonzero(short):
        out[out_off[i]] = _hash64(" ".join(word_lists[i]))
    long_ids = np.flatnonzero(~short)
    if len(long_ids):
        memo: dict = {}
        flat_words = []
        for i in long_ids:
            flat_words.extend(word_lists[i])

        def hashes():
            get = memo.get
            for w in flat_words:
                v = get(w)
                if v is None:
                    v = _hash64(w)
                    memo[w] = v
                yield v

        wh = np.fromiter(hashes(), dtype=np.uint64, count=len(flat_words))
        llens = lens[long_ids]
        acc = _poly_windows(wh, k) if len(wh) >= k else wh[:0]
        # window start positions valid iff the window stays in one doc
        doc_of = np.repeat(np.arange(len(long_ids)), llens)
        n = len(wh) - k + 1
        valid = doc_of[:n] == doc_of[k - 1 :]
        sh_long = acc[valid]
        pos = 0
        for j, i in enumerate(long_ids):
            c = int(llens[j] - k + 1)
            out[out_off[i] : out_off[i] + c] = sh_long[pos : pos + c]
            pos += c
    return out, counts


class MinHasher:
    """Per-batch minhash signatures: ``num_perm`` universal-hash permutations
    h_i(x) = (a_i x + b_i) mod p over shingle hashes (vectorized)."""

    __name__ = "MinHasher"

    def __init__(self, num_perm: int = 64, shingle_k: int = 5, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(
            np.uint64
        )
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(
            np.uint64
        )
        self.num_perm = num_perm
        self.k = shingle_k

    def signature(self, text: str) -> np.ndarray:
        sh = _shingles(text, self.k)
        with np.errstate(over="ignore"):
            # (num_perm, n_shingles) permuted values; min over shingles
            vals = (self.a[:, None] * sh[None, :] + self.b[:, None]) % np.uint64(
                _MERSENNE
            )
        return vals.min(axis=1)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        texts = tbl.column("text").to_pylist()
        if not texts:
            col = pa.ListArray.from_arrays(
                pa.array([0], pa.int32()), pa.array([], pa.int64())
            )
            return tbl.append_column("minhash", col)
        # batch path: one flat shingle array + num_perm reduceat passes —
        # bit-identical to per-doc signature() (equality pinned in tests)
        flat, counts = _batch_shingles(texts, self.k)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        sigs = np.empty((len(texts), self.num_perm), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for i in range(self.num_perm):
                v = (self.a[i] * flat + self.b[i]) % np.uint64(_MERSENNE)
                sigs[:, i] = np.minimum.reduceat(v, offsets)
        sigs = sigs.astype(np.int64)
        off = np.arange(0, (len(tbl) + 1) * self.num_perm, self.num_perm, dtype=np.int32)
        col = pa.ListArray.from_arrays(
            pa.array(off), pa.array(sigs.reshape(-1), pa.int64())
        )
        return tbl.append_column("minhash", col)


class _BandEmit:
    """signature → one (band_id, band_hash, id) row per band."""

    __name__ = "_BandEmit"

    def __init__(self, num_bands: int, id_col: str):
        self.num_bands = num_bands
        self.id_col = id_col

    def __call__(self, tbl: pa.Table) -> pa.Table:
        mh = tbl.column("minhash").combine_chunks()
        sig = mh.values.to_numpy(zero_copy_only=False).reshape(len(tbl), -1)
        rows_per = sig.shape[1] // self.num_bands
        ids = tbl.column(self.id_col).to_numpy(zero_copy_only=False)
        band_ids, band_hashes, out_ids = [], [], []
        for b in range(self.num_bands):
            chunk = sig[:, b * rows_per : (b + 1) * rows_per].astype(np.uint64)
            # vectorized polynomial fold over the band's rows + finalizer
            with np.errstate(over="ignore"):
                acc = np.full(len(chunk), np.uint64(b + 1), dtype=np.uint64)
                for j in range(rows_per):
                    acc = acc * _POLY_BASE + chunk[:, j]
            hashes = (mix64(acc) >> np.uint64(1)).astype(np.int64)
            band_ids.append(np.full(len(chunk), b, dtype=np.int32))
            band_hashes.append(hashes)
            out_ids.append(ids)
        return pa.table(
            {
                "band_id": pa.array(np.concatenate(band_ids), pa.int32()),
                "band_hash": pa.array(np.concatenate(band_hashes), pa.int64()),
                "id": pa.array(np.concatenate(out_ids), pa.int64()),
            }
        )


class _BucketPairs:
    """bucket group → candidate pairs (smaller id first, deduped).

    Small buckets (≤ ``all_pairs_cap`` members) emit ALL pairs — a true
    near-dup bucket is small, and all-pairs maximizes verified-link
    recall for the transitive-closure step. Oversized buckets (hash
    skew, boilerplate shingles) fall back to min-linking every member to
    the bucket minimum: O(n) pairs, still links the whole bucket."""

    __name__ = "_BucketPairs"

    def __init__(self, all_pairs_cap: int = 64):
        self.cap = all_pairs_cap

    def __call__(self, tbl: pa.Table) -> pa.Table:
        ids = np.unique(tbl.column("id").to_numpy(zero_copy_only=False))
        if len(ids) < 2:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        if len(ids) <= self.cap:
            ia, ib = np.triu_indices(len(ids), k=1)
            a, b = ids[ia], ids[ib]
        else:
            a = np.full(len(ids) - 1, ids[0], dtype=np.int64)
            b = ids[1:]
        return pa.table(
            {"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64())}
        )


def minhash_lsh_candidates(
    docs_ds, id_col: str = "doc_id", num_perm: int = 64, num_bands: int = 16,
    shingle_k: int = 5, seed: int = 42,
):
    """documents → candidate near-duplicate pairs (id_a < id_b, distinct).

    shingle→minhash per batch (vectorized), band→bucket groupby (the
    shuffle), min-link pairs per bucket, global pair dedup."""
    sigs = docs_ds.select_columns([id_col, "text"]).map_batches(
        MinHasher(num_perm, shingle_k, seed), batch_format="pyarrow"
    )
    bands = sigs.map_batches(_BandEmit(num_bands, id_col), batch_format="pyarrow")
    pairs = bands.groupby(["band_id", "band_hash"]).map_groups(
        _BucketPairs(), batch_format="pyarrow"
    )
    deduped = pairs.groupby(["id_a", "id_b"]).map_groups(
        lambda t: t.take(pa.array([0], pa.int64())), batch_format="pyarrow"
    )
    # zero groups ⇒ zero blocks ⇒ schema would be None; keep it declared
    return pin_schema(
        deduped, pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    )


# Above this many candidate pairs the verify joins texts via two
# co-partitioned attach shuffles; below it the involved texts (≤ 2·pairs)
# are broadcast once through the object store.
BROADCAST_PAIR_LIMIT = 500_000
# ... and regardless of pair count, the broadcast text map may not
# exceed this many bytes on the driver — past it the join path streams
# texts with no driver materialization.
BROADCAST_TEXT_BYTES_LIMIT = 1 << 30


def _verify_batch(tbl: pa.Table, lookup, shingle_k: int, threshold: float) -> pa.Table:
    ta = lookup(tbl, "a")
    tb = lookup(tbl, "b")
    jac = np.empty(len(ta))
    for i, (x, y) in enumerate(zip(ta, tb)):
        sa, sb = set(_shingles(x, shingle_k)), set(_shingles(y, shingle_k))
        inter = len(sa & sb)
        jac[i] = inter / max(len(sa | sb), 1)
    out = tbl.select(["id_a", "id_b"]).append_column(
        "jaccard", pa.array(jac, pa.float64())
    )
    keep = np.flatnonzero(jac >= threshold)
    return out.take(pa.array(keep, pa.int64()))


def jaccard_verify(
    docs_ds, pairs_ds, id_col: str = "doc_id", shingle_k: int = 5,
    threshold: float = 0.8,
):
    """Exact n-gram Jaccard over candidate pairs.

    Small candidate sets (≤ BROADCAST_PAIR_LIMIT, the common case after
    LSH): one semi-join filter pass over the corpus gathers the involved
    texts (≤ 2·pairs rows), ``ray.put`` once, verify in a stateless
    map over the pairs. Large candidate sets fall back to two explicit
    co-partitioned attach shuffles — no driver materialization."""
    texts = docs_ds.select_columns([id_col, "text"])
    pairs_small = pairs_ds.materialize()
    n_pairs = pairs_small.count()

    if n_pairs <= BROADCAST_PAIR_LIMIT:
        import ray

        pair_tbl = pa.concat_tables(
            list(pairs_small.iter_batches(batch_format="pyarrow", batch_size=None))
        ) if n_pairs else pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
        need = np.unique(
            np.concatenate(
                [
                    pair_tbl.column("id_a").to_numpy(zero_copy_only=False),
                    pair_tbl.column("id_b").to_numpy(zero_copy_only=False),
                ]
            )
        ) if n_pairs else np.empty(0, np.int64)
        need_ref = ray.put(need)

        def semi(tbl: pa.Table) -> pa.Table:
            ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
            hit, _ = isin_sorted(ray.get(need_ref), ids)
            return tbl.take(pa.array(np.flatnonzero(hit), pa.int64()))

        involved = texts.map_batches(semi, batch_format="pyarrow")
        tmap = {}
        total_bytes = 0
        for b in involved.iter_batches(batch_format="pyarrow", batch_size=None):
            # UTF-8 byte accounting (len() counts code points, which can
            # undercount the driver-memory cost 4x on non-ASCII corpora)
            total_bytes += b.column("text").combine_chunks().nbytes
            for i, t in zip(b.column(id_col).to_pylist(), b.column("text").to_pylist()):
                tmap[i] = t
            if total_bytes > BROADCAST_TEXT_BYTES_LIMIT:
                # the candidates are few but their texts are huge —
                # don't hold them on the driver; stream via the joins.
                tmap = None
                break
        if tmap is not None:
            tmap_ref = ray.put(tmap)

            def verify(tbl: pa.Table) -> pa.Table:
                tm = ray.get(tmap_ref)

                def lookup(t, side):
                    return [tm.get(i, "") for i in t.column(f"id_{side}").to_pylist()]

                return _verify_batch(tbl, lookup, shingle_k, threshold)

            return pairs_small.map_batches(verify, batch_format="pyarrow")

    # join fallback: pair rows routed with both texts via attach passes
    from signal_collect_ray.functions.joins import _attach

    a_side = _attach(
        pairs_small, "id_a",
        texts.rename_columns({"text": "text_a", id_col: "aid"}), "aid", ["text_a"],
    )
    b_side = _attach(
        a_side, "id_b",
        texts.rename_columns({"text": "text_b", id_col: "bid"}), "bid", ["text_b"],
    )

    def verify_joined(tbl: pa.Table) -> pa.Table:
        def lookup(t, side):
            return t.column(f"text_{side}").to_pylist()

        return _verify_batch(tbl, lookup, shingle_k, threshold)

    return b_side.map_batches(verify_joined, batch_format="pyarrow")


# Broadcast cap for the duplicate-id array (int64): 32M ids = 256 MiB
# through the object store. Past it, the drop falls back to a
# co-partitioned anti-join — no driver/object-store blowup.
BROADCAST_DUPE_IDS_LIMIT = 32_000_000


def _pair_graph_parallelism(n_pairs: int) -> tuple[int, int]:
    """(num_partitions, num_workers) for the pair-graph CC, derived from
    the verified-pair count: ~250k symmetric edges per partition (the
    pair graph carries 2 edges per pair), partitions a power-of-2-ish
    multiple of workers. On a boilerplate-heavy corpus the pair graph is
    itself billions of edges — a fixed parallelism would cap it."""
    sym_edges = 2 * n_pairs
    P = int(min(512, max(4, sym_edges // 250_000 + 1)))
    W = max(2, min(P // 2, 32))
    return P, W


# min-label CC needs O(diameter) supersteps; the engine stops at
# quiescence, so this cap is a runaway guard, NOT an expected bound —
# a 64-cap silently under-converged on >64-hop duplicate chains,
# leaving extra representatives per chain (same defect class as the
# MST under-contraction fixed by pointer doubling)
_PAIR_CC_MAX_SUPERSTEPS = 4096


def pair_cc_labels(pairs_mat, workdir: str):
    """(id_a, id_b) pair table → the full (id, label) mapping with
    label = each connected component's MIN id, via the engine's own
    ConnectedComponents over the symmetrized pair graph. CC parallelism
    scales with the pair count (``_pair_graph_parallelism``); the
    superstep cap is a generous runaway guard (the engine stops at
    quiescence after O(log diameter) rounds, CC's shortcut). Shared by
    the dedup closures
    and entity resolution."""
    from signal_collect_ray import EngineConfig, Graph
    from signal_collect_ray.algorithms import ConnectedComponents
    from signal_collect_ray.engine_resident import ResidentEngine

    n_pairs = pairs_mat.count()
    P, W = _pair_graph_parallelism(n_pairs)

    def to_sym_edges(tbl: pa.Table) -> pa.Table:
        a = tbl.column("id_a").to_numpy(zero_copy_only=False)
        b = tbl.column("id_b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    g = Graph.build(
        pairs_mat.map_batches(to_sym_edges, batch_format="pyarrow"),
        f"{workdir}/pair_graph",
        num_partitions=P,
        dedup=True,
    )
    eng = ResidentEngine(
        EngineConfig(
            num_partitions=P, eps=1e-9,
            max_supersteps=_PAIR_CC_MAX_SUPERSTEPS,
        ),
        num_workers=W,
    )
    info = eng.run(
        g, ConnectedComponents(), run_dir=f"{workdir}/pair_cc", resume=False,
        checkpoint_interval=_PAIR_CC_MAX_SUPERSTEPS + 1,
    )

    def shape(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": tbl.column("vid"),
                "label": tbl.column("state").cast(pa.int64()),
            }
        )

    return info.final_state_ds().map_batches(shape, batch_format="pyarrow")


def duplicate_ids_from_pairs(pairs_ds, workdir: str):
    """Verified near-duplicate pairs → ids to DROP, with transitive
    closure: connected components over the pair graph
    (``pair_cc_labels``), keep each cluster's min id. A~B, B~C
    therefore keeps exactly {A}, not {A, C}.

    Returns a Dataset with one ``id`` column (the non-representative
    cluster members)."""
    import ray.data as rd

    pairs_mat = pairs_ds.select_columns(["id_a", "id_b"]).materialize()
    if pairs_mat.count() == 0:
        return rd.from_arrow(pa.table({"id": pa.array([], pa.int64())}))

    def non_min(tbl: pa.Table) -> pa.Table:
        vid = tbl.column("id").to_numpy(zero_copy_only=False)
        lab = tbl.column("label").to_numpy(zero_copy_only=False)
        keep = np.flatnonzero(vid != lab)
        return pa.table({"id": pa.array(vid[keep], pa.int64())})

    return pair_cc_labels(pairs_mat, workdir).map_batches(
        non_min, batch_format="pyarrow"
    )


def drop_ids(ds, dupes_ds, id_col: str = "doc_id"):
    """Anti-join: remove rows of ``ds`` whose id appears in ``dupes_ds``.

    Small dupe sets (≤ BROADCAST_DUPE_IDS_LIMIT) broadcast ONE sorted
    int64 array via ``ray.put`` and filter per batch with searchsorted.
    Larger sets fall back to a co-partitioned anti-join (both sides
    hashed on the id — one exchange, no driver materialization)."""
    import ray

    from signal_collect_ray.util import part_of

    dupes_mat = dupes_ds.materialize()
    n_dupes = dupes_mat.count()
    if n_dupes == 0:
        return ds

    if n_dupes <= BROADCAST_DUPE_IDS_LIMIT:
        arrs = [
            b.column("id").to_numpy(zero_copy_only=False)
            for b in dupes_mat.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        dupe_arr = np.unique(np.concatenate(arrs))
        ref = ray.put(dupe_arr)

        def drop(tbl: pa.Table) -> pa.Table:
            d = ray.get(ref)
            ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
            hit, _ = isin_sorted(d, ids)
            return tbl.take(pa.array(np.flatnonzero(~hit), pa.int64()))

        return ds.map_batches(drop, batch_format="pyarrow")

    # co-partitioned anti-join fallback (the _attach tagged-union
    # pattern, inverted to KEEP non-matches): marker rows are padded
    # with NULLs to the doc schema so the union is well-typed, both
    # sides hash to the same partition, and each group drops its own
    # matches — one exchange, no driver materialization.
    n_parts = 64
    schema = ds.schema()
    names = list(schema.names)
    types = {n: schema.types[i] for i, n in enumerate(names)}

    def tag_docs(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        return tbl.select(names).append_column(
            "__apart", pa.array(part_of(ids, n_parts), pa.int32())
        ).append_column(
            "__isdupe", pa.array(np.zeros(len(tbl), np.int8), pa.int8())
        )

    def tag_dupes(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("id").to_numpy(zero_copy_only=False)
        cols = {
            n: (pa.array(ids, pa.int64()) if n == id_col else pa.nulls(len(ids), types[n]))
            for n in names
        }
        out = pa.table(cols)
        return out.append_column(
            "__apart", pa.array(part_of(ids, n_parts), pa.int32())
        ).append_column(
            "__isdupe", pa.array(np.ones(len(ids), np.int8), pa.int8())
        )

    def anti(tbl: pa.Table) -> pa.Table:
        isd = tbl.column("__isdupe").to_numpy(zero_copy_only=False)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        bad = np.unique(ids[isd == 1])
        hit, _ = isin_sorted(bad, ids)
        keep = (isd == 0) & ~hit
        return tbl.take(pa.array(np.flatnonzero(keep), pa.int64())).drop_columns(
            ["__apart", "__isdupe"]
        )

    docs_tagged = ds.map_batches(tag_docs, batch_format="pyarrow")
    dupes_tagged = dupes_mat.map_batches(tag_dupes, batch_format="pyarrow")
    return docs_tagged.union(dupes_tagged).groupby("__apart").map_groups(
        anti, batch_format="pyarrow"
    )


def dedup_minhash(
    docs_ds, id_col: str = "doc_id", threshold: float = 0.8,
    workdir: str | None = None, **kw,
):
    """Near-dup dedup end-to-end: LSH candidates → exact Jaccard verify →
    transitive closure over verified pairs (ConnectedComponents) → keep
    each cluster's min id. The dupe-id set is broadcast byte-capped with
    a co-partitioned anti-join fallback — no unbounded driver state.

    ``workdir`` defaults to a fresh unique directory per call — a fixed
    shared path would let concurrent runs clobber each other's pair
    graph."""
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="scray_dedup_minhash_")
    pairs = minhash_lsh_candidates(docs_ds, id_col, **kw)
    verified = jaccard_verify(docs_ds, pairs, id_col, threshold=threshold)
    dupes = duplicate_ids_from_pairs(verified, workdir)
    return drop_ids(docs_ds, dupes, id_col)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (inverted-index co-occurrence, no candidate stage)
# ---------------------------------------------------------------------------

# A single shingle shared by this many documents aborts the exact
# pipeline: emitting its co-occurrence pairs is inherently O(n²) and the
# result would be dominated by boilerplate, not duplication — the same
# explicit contract as similarity.embedding_dedup_pairs (exact ops are
# the oracle baseline; the scale path is dedup_minhash).
NGRAM_GROUP_LIMIT = 10_000
# Broadcasting the per-doc shingle-set sizes costs ~16 B/doc; past this
# the exact pipeline refuses rather than silently materializing.
NGRAM_SIZES_BYTES_LIMIT = 1 << 30


def _distinct_shingle_rows(tbl: pa.Table, id_col: str, k: int):
    """Shared kernel for the inverted-index stages: batch → per-doc
    DISTINCT shingles as (shingle values, local doc indices, doc ids).
    Batch-flat vectorized hashing (`_batch_shingles`), one lexsort, one
    boundary mask — no Python loop. Both the postings and the set-size
    stages MUST use this same sequence or the Jaccard denominators
    silently diverge from the numerators."""
    ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
    sh, counts = _batch_shingles(tbl.column("text").to_pylist(), k)
    doc_of = np.repeat(np.arange(len(ids)), counts)
    order = np.lexsort((sh, doc_of))
    sh_s, doc_s = sh[order], doc_of[order]
    first = np.ones(len(sh_s), dtype=bool)
    first[1:] = (sh_s[1:] != sh_s[:-1]) | (doc_s[1:] != doc_s[:-1])
    return sh_s[first], doc_s[first], ids


class _DistinctShingles:
    __name__ = "_DistinctShingles"

    """batch → one row per DISTINCT (shingle, doc): the map-side unit of
    the inverted index."""

    def __init__(self, id_col: str, shingle_k: int):
        self.id_col = id_col
        self.k = shingle_k

    def __call__(self, tbl: pa.Table) -> pa.Table:
        sh, doc_idx, ids = _distinct_shingle_rows(tbl, self.id_col, self.k)
        return pa.table(
            {
                # int64 view: groupby keys hash identically, zero-copy
                "gram": pa.array(sh.view(np.int64)),
                "doc": pa.array(ids[doc_idx].astype(np.int64), pa.int64()),
            }
        )


class _ShingleSetSizes:
    __name__ = "_ShingleSetSizes"

    """batch → (doc, n_distinct_shingles). A second map-only pass over
    the corpus: recomputing shingles is embarrassingly parallel, while
    counting sizes from the (gram, doc) table would re-shuffle the whole
    token stream a second time."""

    def __init__(self, id_col: str, shingle_k: int):
        self.id_col = id_col
        self.k = shingle_k

    def __call__(self, tbl: pa.Table) -> pa.Table:
        _, doc_idx, ids = _distinct_shingle_rows(tbl, self.id_col, self.k)
        n = np.bincount(doc_idx, minlength=len(ids))
        return pa.table(
            {
                "doc": pa.array(ids.astype(np.int64), pa.int64()),
                "n_shingles": pa.array(n, pa.int64()),
            }
        )


class _GramPairs:
    __name__ = "_GramPairs"

    """One inverted-index posting list → all co-occurring (id_a < id_b)
    pairs. Exactness requires EVERY pair (the downstream count per pair
    IS the intersection size), so an oversized posting list aborts with
    direction to the sketch path instead of min-linking."""

    def __init__(self, limit: int | None = None):
        # read the module global at CALL time so it stays tunable
        self.limit = NGRAM_GROUP_LIMIT if limit is None else limit

    def __call__(self, tbl: pa.Table) -> pa.Table:
        docs = np.sort(tbl.column("doc").to_numpy())
        n = len(docs)
        if n > self.limit:
            raise RuntimeError(
                f"a single {n}-document shingle posting list exceeds "
                f"NGRAM_GROUP_LIMIT={self.limit}: exact n-gram Jaccard "
                "is O(n²) on shared boilerplate — use dedup_minhash / "
                "minhash_lsh_candidates for this corpus"
            )
        if n < 2:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                }
            )
        ia, ib = np.triu_indices(n, 1)
        return pa.table(
            {
                "id_a": pa.array(docs[ia], pa.int64()),
                "id_b": pa.array(docs[ib], pa.int64()),
            }
        )


def ngram_jaccard_pairs(
    docs_ds, id_col: str = "doc_id", shingle_k: int = 5,
    threshold: float = 0.8,
):
    """EXACT word-n-gram Jaccard similar pairs over the whole corpus —
    no candidate/sketch stage, so it needs no recall argument: for every
    pair sharing at least one shingle the true Jaccard is computed, and
    pairs sharing none have J = 0 < threshold by definition.

    Shape: distinct (shingle, doc) postings per batch (map) → groupby
    shingle → co-occurrence pairs per posting list → groupby pair COUNT
    = |A ∩ B| → J = inter / (|A| + |B| − inter) with set sizes from a
    broadcast map-only pass. ONE wide exchange over the posting table
    plus one over the pair table; skew is bounded by NGRAM_GROUP_LIMIT
    (shared-boilerplate corpora must use the MinHash path).

    Set-Jaccard over 64-bit shingle hashes equals string-shingle Jaccard
    up to hash collisions (~n²/2⁶⁴) — the DuckDB oracle computes the
    string version and matches exactly at test scale."""
    import ray
    from ray.data.aggregate import Count

    texts = docs_ds.select_columns([id_col, "text"])
    postings = texts.map_batches(
        _DistinctShingles(id_col, shingle_k), batch_format="pyarrow"
    )
    pairs = postings.groupby("gram").map_groups(
        _GramPairs(), batch_format="pyarrow"
    )
    inter = pairs.groupby(["id_a", "id_b"]).aggregate(Count(alias_name="inter"))

    sizes_mat = texts.map_batches(
        _ShingleSetSizes(id_col, shingle_k), batch_format="pyarrow"
    ).materialize()
    n_docs = sizes_mat.count()
    if n_docs * 16 > NGRAM_SIZES_BYTES_LIMIT:
        raise RuntimeError(
            f"{n_docs} docs exceed the exact pipeline's size-map "
            "broadcast budget — use dedup_minhash"
        )
    st = pa.concat_tables(ray.get(sizes_mat.to_arrow_refs()))
    doc_ids = st.column("doc").to_numpy(zero_copy_only=False)
    n_sh = st.column("n_shingles").to_numpy(zero_copy_only=False)
    order = np.argsort(doc_ids)
    # broadcast ONCE: two flat int64 arrays, 16 B/doc, searchsorted lookup
    sizes_ref = ray.put((doc_ids[order], n_sh[order].astype(np.float64)))

    def jaccard(tbl: pa.Table) -> pa.Table:
        keys, vals = ray.get(sizes_ref)
        ia = tbl.column("id_a").to_numpy(zero_copy_only=False)
        ib = tbl.column("id_b").to_numpy(zero_copy_only=False)
        c = tbl.column("inter").to_numpy(zero_copy_only=False).astype(np.float64)
        na = vals[np.searchsorted(keys, ia)]
        nb = vals[np.searchsorted(keys, ib)]
        j = c / np.maximum(na + nb - c, 1.0)
        keep = np.flatnonzero(j >= threshold)
        out = pa.table(
            {
                "id_a": pa.array(ia, pa.int64()),
                "id_b": pa.array(ib, pa.int64()),
                "jaccard": pa.array(np.round(j, 6), pa.float64()),
            }
        )
        return out.take(pa.array(keep, pa.int64()))

    out = inter.map_batches(jaccard, batch_format="pyarrow")
    return pin_schema(
        out,
        pa.schema(
            [
                ("id_a", pa.int64()),
                ("id_b", pa.int64()),
                ("jaccard", pa.float64()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

# per-byte popcount lookup table (for vectorized hamming distance)
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1
).astype(np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a uint64 array (byte-LUT sum)."""
    return _POP8[np.ascontiguousarray(x).view(np.uint8).reshape(len(x), 8)].sum(
        axis=1
    ).astype(np.int64)


class SimHasher:
    """64-bit simhash over word-shingle hashes (Charikar 2002) —
    batch-vectorized without the (n_shingles × 64) bit matrix: one flat
    shingle array for the whole batch, then 64 contiguous reduceat
    passes using Σ(2·bit−1) = 2·Σbit − n (no ±1 contribution array, no
    axis-0 strided reduction — ~17x faster than the matrix form on
    short-document batches, measured)."""

    __name__ = "SimHasher"

    def __init__(self, shingle_k: int = 3):
        self.k = shingle_k

    def __call__(self, tbl: pa.Table) -> pa.Table:
        texts = tbl.column("text").to_pylist()
        if not texts:
            return tbl.append_column("simhash", pa.array([], pa.int64()))
        flat, counts = _batch_shingles(texts, self.k)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        out = np.zeros(len(texts), dtype=np.uint64)
        for b in range(64):
            bit = ((flat >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
            v = 2 * np.add.reduceat(bit, offsets) - counts
            out |= (v > 0).astype(np.uint64) << np.uint64(b)
        out = (out & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        return tbl.append_column("simhash", pa.array(out, pa.int64()))


def _md5_hash64(s: str) -> int:
    """First 8 bytes of md5 as a big-endian uint64 — chosen because
    DuckDB mirrors it exactly: CAST(concat('0x', substr(md5(s), 1, 16))
    AS UBIGINT)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


class SimHasherMd5:
    """SimHash whose shingle hash is md5 over the word-k-shingle STRING
    (windows kept with multiplicity, like SimHasher) — a hair slower
    than the polynomial-fold blake2b path but every step is exactly
    SQL-expressible, which puts the whole signature computation under
    the DuckDB oracle gate. Bits 0..62 only (matching SimHasher's
    int64-positivity mask), so the vote loop runs 63 passes."""

    __name__ = "SimHasherMd5"

    def __init__(self, shingle_k: int = 3):
        self.k = shingle_k

    def __call__(self, tbl: pa.Table) -> pa.Table:
        texts = tbl.column("text").to_pylist()
        if not texts:
            return tbl.append_column("simhash", pa.array([], pa.int64()))
        k, memo = self.k, {}
        flat_list: list = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            words = _norm(t).split()
            if len(words) < k:
                strs = [" ".join(words)]
            else:
                strs = [
                    " ".join(words[j : j + k])
                    for j in range(len(words) - k + 1)
                ]
            counts[i] = len(strs)
            get = memo.get
            for s in strs:
                v = get(s)
                if v is None:
                    v = _md5_hash64(s)
                    memo[s] = v
                flat_list.append(v)
        flat = np.array(flat_list, dtype=np.uint64)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        out = np.zeros(len(texts), dtype=np.uint64)
        for b in range(63):
            bit = ((flat >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
            v = 2 * np.add.reduceat(bit, offsets) - counts
            out |= (v > 0).astype(np.uint64) << np.uint64(b)
        return tbl.append_column(
            "simhash", pa.array(out.astype(np.int64), pa.int64())
        )


_SIMHASHERS = {"blake2b": SimHasher, "md5": SimHasherMd5}


def simhash_signatures(docs_ds, shingle_k: int = 3, hasher: str = "blake2b"):
    return docs_ds.map_batches(
        _SIMHASHERS[hasher](shingle_k), batch_format="pyarrow"
    )


class _BlockEmit:
    """simhash → one (block_id, block_key, id, simhash) row per block.

    Splitting the 64-bit signature into ``n_blocks`` contiguous blocks
    guarantees (pigeonhole) that any pair within hamming distance
    ``n_blocks - 1`` agrees EXACTLY on at least one block — so bucketing
    on each block key has recall 1 for that radius (Manku, Jain & Das
    Sarma, WWW 2007 — the rotated-prefix / block-permutation scheme)."""

    __name__ = "_BlockEmit"

    def __init__(self, n_blocks: int, id_col: str):
        self.n_blocks = n_blocks
        self.id_col = id_col
        base = 64 // n_blocks
        widths = np.full(n_blocks, base, dtype=np.uint64)
        widths[: 64 - base * n_blocks] += 1  # distribute remainder bits
        self.shifts = np.concatenate([[0], np.cumsum(widths)[:-1]]).astype(np.uint64)
        self.masks = ((np.uint64(1) << widths) - np.uint64(1)).astype(np.uint64)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        h = tbl.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = tbl.column(self.id_col).to_numpy(zero_copy_only=False)
        blk, keys, out_ids, out_h = [], [], [], []
        for b in range(self.n_blocks):
            key = (h >> self.shifts[b]) & self.masks[b]
            blk.append(np.full(len(h), b, dtype=np.int32))
            keys.append(key.astype(np.int64))
            out_ids.append(ids)
            out_h.append(h.astype(np.int64))
        return pa.table(
            {
                "block_id": pa.array(np.concatenate(blk), pa.int32()),
                "block_key": pa.array(np.concatenate(keys), pa.int64()),
                "id": pa.array(np.concatenate(out_ids), pa.int64()),
                "simhash": pa.array(np.concatenate(out_h), pa.int64()),
            }
        )


class _HammingBucketPairs:
    """bucket group → exact-hamming-verified pairs (id_a < id_b).

    Buckets ≤ ``all_pairs_cap``: all-pairs popcount verify. Oversized
    buckets (boilerplate-dominated signatures): min-link every member
    against the bucket minimum — O(n) verifies, still links the bucket
    for transitive-closure dedup (documented recall trade at the cap)."""

    __name__ = "_HammingBucketPairs"

    def __init__(self, max_hamming: int, all_pairs_cap: int = 1024):
        self.d = max_hamming
        self.cap = all_pairs_cap

    def __call__(self, tbl: pa.Table) -> pa.Table:
        ids = tbl.column("id").to_numpy(zero_copy_only=False)
        h = tbl.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        uniq, first_idx = np.unique(ids, return_index=True)
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        )
        if len(uniq) < 2:
            return empty
        hu = h[first_idx]
        if len(uniq) <= self.cap:
            ia, ib = np.triu_indices(len(uniq), k=1)
            dist = _popcount64(hu[ia] ^ hu[ib])
        else:
            ia = np.zeros(len(uniq) - 1, dtype=np.int64)
            ib = np.arange(1, len(uniq), dtype=np.int64)
            dist = _popcount64(hu[ia] ^ hu[ib])
        keep = dist <= self.d
        return pa.table(
            {
                "id_a": pa.array(uniq[ia[keep]], pa.int64()),
                "id_b": pa.array(uniq[ib[keep]], pa.int64()),
                "hamming": pa.array(dist[keep], pa.int64()),
            }
        )


def simhash_dedup_pairs(
    docs_ds, id_col: str = "doc_id", max_hamming: int = 3, shingle_k: int = 3,
    all_pairs_cap: int = 1024, hasher: str = "blake2b",
):
    """Near-duplicate pairs by simhash hamming distance ≤ ``max_hamming``.

    signature → block-key buckets (n_blocks = max_hamming + 1, the only
    shuffle) → exact popcount verify per bucket → global pair dedup.
    Recall is EXACT for the given radius up to the oversized-bucket
    min-link fallback (``all_pairs_cap``)."""
    n_blocks = max_hamming + 1
    sigs = docs_ds.select_columns([id_col, "text"]).map_batches(
        _SIMHASHERS[hasher](shingle_k), batch_format="pyarrow"
    )
    blocks = sigs.map_batches(_BlockEmit(n_blocks, id_col), batch_format="pyarrow")
    pairs = blocks.groupby(["block_id", "block_key"]).map_groups(
        _HammingBucketPairs(max_hamming, all_pairs_cap), batch_format="pyarrow"
    )
    deduped = pairs.groupby(["id_a", "id_b"]).map_groups(
        lambda t: t.take(pa.array([0], pa.int64())), batch_format="pyarrow"
    )
    return pin_schema(
        deduped,
        pa.schema(
            [("id_a", pa.int64()), ("id_b", pa.int64()), ("hamming", pa.int64())]
        ),
    )


class _NgramExplode:
    """documents → one row per DISTINCT (doc_id, word n-gram). Words are
    the whitespace split of the lowered text (the same tokenization the
    tfidf / repetition mirrors use, SQL-expressible via
    ``regexp_extract_all(lower(text), '\\S+')``)."""

    __name__ = "_NgramExplode"

    def __init__(self, n: int, num_partitions: int):
        self.n = n
        self.num_partitions = num_partitions

    def __call__(self, tbl: pa.Table) -> pa.Table:
        from zlib import crc32

        texts = tbl.column("text").to_pylist()
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        out_id, out_ng, out_part = [], [], []
        n, P = self.n, self.num_partitions
        for i, t in enumerate(texts):
            ws = (t or "").lower().split()
            if len(ws) < n:
                continue
            grams = {
                " ".join(ws[j : j + n]) for j in range(len(ws) - n + 1)
            }
            out_id.extend([int(ids[i])] * len(grams))
            out_ng.extend(grams)
            # crc32 only ROUTES grams (a collision merely co-locates two
            # grams); the string stays the exact group key in the kernel
            out_part.extend(crc32(g.encode("utf-8")) % P for g in grams)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "ng": pa.array(out_ng, pa.string()),
                "part": pa.array(out_part, pa.int32()),
            }
        )


class _PartitionSharedFlag:
    """One hash partition (MANY n-grams, each wholly co-located) →
    (doc_id, shared) rows. Arrow C++ group_by + hash join inside the
    kernel — no per-group Python dispatch."""

    __name__ = "_PartitionSharedFlag"

    def __call__(self, tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tbl = tbl.drop_columns(["part"]).combine_chunks()
        counts = tbl.group_by("ng").aggregate([("doc_id", "count")])
        j = tbl.join(counts, keys="ng")
        return pa.table(
            {
                "doc_id": j.column("doc_id"),
                "shared": pc.greater(
                    j.column("doc_id_count"), 1
                ).cast(pa.int64()),
            }
        )


def duplicated_ngram_fraction(docs_ds, n: int = 5, num_partitions: int = 32):
    """Per-document duplicated-n-gram fraction — the training-data
    curation signal from Lee et al. 2022 ("Deduplicating Training Data
    Makes Language Models Better"): the share of a document's DISTINCT
    word n-grams that also occur in at least one other document. Docs
    shorter than ``n`` words have no n-grams and are omitted (the SQL
    mirror's join drops them identically).

    Two exchanges, both bounded: a crc32-routed groupby(part)
    co-locates each n-gram's postings (one kernel per PARTITION — the
    per-gram work is Arrow C++ group_by + join, not per-group Python;
    boilerplate skew is the same as tfidf's stopword note, cap or
    pre-drop hot shingles at extreme corpus size), then groupby(doc_id)
    carries exactly one partial row per (block, doc). At 100 TB the
    ``ng`` key would be a 64-bit content hash instead of the string;
    strings keep the oracle exact here and change nothing structural."""
    from ray.data.aggregate import Count, Sum

    grams = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _NgramExplode(n, num_partitions),
        batch_format="pyarrow",
        batch_size=2048,
    )
    flagged = grams.groupby("part").map_groups(
        _PartitionSharedFlag(), batch_format="pyarrow"
    )
    agg = flagged.groupby("doc_id").aggregate(
        Sum("shared", alias_name="n_shared"),
        Count(alias_name="n_grams"),
    )

    def frac(tbl: pa.Table) -> pa.Table:
        s = tbl.column("n_shared").to_numpy(zero_copy_only=False)
        c = tbl.column("n_grams").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "dup_frac": pa.array(
                    np.round(s / c, 6), pa.float64()
                ),
            }
        )

    return agg.map_batches(frac, batch_format="pyarrow")


class _ChunkExplode:
    """documents → one row per (doc_id, chunk_idx, chunk) where a chunk
    is ``w`` consecutive lowered whitespace words (the last chunk may be
    shorter). The corpus-order key ``ord = doc_id * 1_000_000 +
    chunk_idx`` makes keep-first deterministic and SQL-mirrorable."""

    __name__ = "_ChunkExplode"

    def __init__(self, w: int, num_partitions: int):
        self.w = w
        self.num_partitions = num_partitions

    def __call__(self, tbl: pa.Table) -> pa.Table:
        from zlib import crc32

        texts = tbl.column("text").to_pylist()
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        out_id, out_ci, out_ch, out_part = [], [], [], []
        w, P = self.w, self.num_partitions
        for i, t in enumerate(texts):
            ws = (t or "").lower().split()
            for ci in range(0, (len(ws) + w - 1) // w):
                ch = " ".join(ws[ci * w : (ci + 1) * w])
                out_id.append(int(ids[i]))
                out_ci.append(ci + 1)
                out_ch.append(ch)
                out_part.append(crc32(ch.encode("utf-8")) % P)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "cidx": pa.array(out_ci, pa.int64()),
                "chunk": pa.array(out_ch, pa.string()),
                "part": pa.array(out_part, pa.int32()),
            }
        )


class _KeepFirstFlag:
    """One chunk-hash partition → the same rows plus ``kept``: an
    instance survives iff its corpus-order key is the global minimum
    for its chunk text (each chunk's postings are wholly co-located by
    the crc32 route, so the partition-local min IS the global min)."""

    __name__ = "_KeepFirstFlag"

    def __call__(self, tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tbl = tbl.drop_columns(["part"]).combine_chunks()
        ordv = pc.add(
            pc.multiply(tbl.column("doc_id"), pa.scalar(1_000_000, pa.int64())),
            tbl.column("cidx"),
        )
        tbl = tbl.append_column("ord", ordv)
        mins = tbl.group_by("chunk").aggregate([("ord", "min")])
        j = tbl.join(mins, keys="chunk")
        return pa.table(
            {
                "doc_id": j.column("doc_id"),
                "cidx": j.column("cidx"),
                "chunk": j.column("chunk"),
                "kept": pc.equal(j.column("ord"), j.column("ord_min")),
            }
        )


class _ReassembleDocs:
    """One doc_id-hash partition of flagged chunks → one row per doc:
    surviving chunks rejoined in order, plus kept/dropped counts."""

    __name__ = "_ReassembleDocs"

    def __call__(self, tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        ci = tbl.column("cidx").to_numpy(zero_copy_only=False)
        kept = tbl.column("kept").to_numpy(zero_copy_only=False)
        chunks = tbl.column("chunk").to_pylist()
        order = np.lexsort((ci, ids))
        out_id, out_text, out_k, out_d = [], [], [], []
        i = 0
        while i < len(order):
            j = i
            did = ids[order[i]]
            parts = []
            nk = nd = 0
            while j < len(order) and ids[order[j]] == did:
                o = order[j]
                if kept[o]:
                    parts.append(chunks[o])
                    nk += 1
                else:
                    nd += 1
                j += 1
            out_id.append(int(did))
            out_text.append(" ".join(parts))
            out_k.append(nk)
            out_d.append(nd)
            i = j
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "clean_text": pa.array(out_text, pa.string()),
                "n_kept": pa.array(out_k, pa.int64()),
                "n_dropped": pa.array(out_d, pa.int64()),
            }
        )


def dedup_paragraphs(docs_ds, chunk_words: int = 10, num_partitions: int = 32):
    """Corpus-wide paragraph-level exact dedup, CCNet-style (Wenzek et
    al. 2020, public): split every document into consecutive
    ``chunk_words``-word chunks, keep only the FIRST occurrence of each
    distinct chunk across the whole corpus (corpus order = (doc_id,
    chunk_idx)), and reassemble documents from their surviving chunks.
    Docs whose every chunk appeared earlier come back with
    ``clean_text = ''`` — exactly what boilerplate removal does to a
    fully-duplicated page.

    Scale shape: two bounded exchanges — a crc32 route co-locates each
    chunk's postings (keep-first decided by an Arrow group_by min +
    join per PARTITION, not per chunk), then a doc_id-hash route
    reassembles (string join per doc inside one kernel per partition).
    Hot boilerplate chunks skew only their posting list, which the
    min-fold reduces without materializing pairs."""
    from signal_collect_ray.util import part_of

    chunks = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _ChunkExplode(chunk_words, num_partitions),
        batch_format="pyarrow",
        batch_size=2048,
    )
    flagged = chunks.groupby("part").map_groups(
        _KeepFirstFlag(), batch_format="pyarrow"
    )

    def reroute(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "dpart", pa.array(part_of(ids, num_partitions), pa.int32())
        )

    return (
        flagged.map_batches(reroute, batch_format="pyarrow")
        .groupby("dpart")
        .map_groups(_ReassembleDocs(), batch_format="pyarrow")
    )


class _SnKeyed:
    """documents → (doc_id, bk) rows: the 16-bit blocking key is the
    first 4 hex chars of the Fingerprint md5 (whitespace-normalized
    text) — SQL-mirrorable and with a FIXED key space (65,536), so the
    counting histogram below stays tiny at any corpus size."""

    __name__ = "_SnKeyed"

    def __call__(self, tbl: pa.Table) -> pa.Table:
        import hashlib

        bk = [
            int(
                hashlib.md5(
                    " ".join((t or "").split()).encode("utf-8")
                ).hexdigest()[:4],
                16,
            )
            for t in tbl.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "bk": pa.array(bk, pa.int64()),
            }
        )


class _SnWindowPairs:
    """One rank-chunk (plus the ``w`` boundary rows duplicated from the
    previous chunk) → candidate pairs with rank distance ≤ w. Pairs
    are emitted only when the LEFT row is chunk-owned (not a boundary
    copy), so duplicated rows never double-emit."""

    __name__ = "_SnWindowPairs"

    def __init__(self, w: int):
        self.w = w

    def __call__(self, tbl: pa.Table) -> pa.Table:
        rn = tbl.column("rn").to_numpy(zero_copy_only=False)
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        own = tbl.column("own").to_numpy(zero_copy_only=False)
        order = np.argsort(rn)
        rn, ids, own = rn[order], ids[order], own[order]
        out_a, out_b = [], []
        for off in range(1, self.w + 1):
            if off >= len(rn):
                break
            a, b = ids[:-off], ids[off:]
            keep = own[off:] & (rn[off:] - rn[:-off] <= self.w)
            out_a.append(a[keep])
            out_b.append(b[keep])
        if not out_a:
            return pa.table(
                {"id_a": pa.array([], pa.int64()),
                 "id_b": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a), pa.int64()),
                "id_b": pa.array(np.concatenate(out_b), pa.int64()),
            }
        )


def sorted_neighborhood_pairs(
    docs_ds, window: int = 3, chunk: int = 4096, num_partitions: int = 32
):
    """Sorted-neighborhood blocking (Hernández & Stolfo 1995, public
    literature): order all documents by a compact blocking key (16-bit
    md5-prefix here; ties broken by doc_id) and emit every pair within
    ``window`` positions — the classic entity-resolution candidate
    generator that trades the O(n²) all-pairs scan for O(n·w) ordered
    comparisons.

    Distributed WITHOUT a global sort: the 65,536-bucket counting
    histogram (one tiny aggregate, broadcast as two cumsum arrays)
    turns the blocking key into an exact global rank — per-bucket
    intra-rank comes from a per-bucket-partition ordinal pass — and
    rows are routed to rank-chunks with the last ``window`` rows of
    each chunk DUPLICATED into the next chunk, so every ≤window pair
    is co-located exactly once. Emission is left-row-owned, preventing
    boundary double counts.

    Returns a Dataset (id_a, id_b) with rank(id_a) < rank(id_b)."""
    import ray
    from signal_collect_ray.util import part_of

    keyed = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        _SnKeyed(), batch_format="pyarrow", batch_size=2048
    ).materialize()

    # bucket histogram → global rank base per blocking key
    def hist(tbl: pa.Table) -> pa.Table:
        u, c = np.unique(
            tbl.column("bk").to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table({"bk": pa.array(u, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    agg: dict = {}
    for b in keyed.map_batches(hist, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for k, c in zip(b.column("bk").to_pylist(), b.column("c").to_pylist()):
            agg[k] = agg.get(k, 0) + c
    bks = np.array(sorted(agg), dtype=np.int64)
    counts = np.array([agg[k] for k in bks], dtype=np.int64)
    base = np.concatenate([[0], np.cumsum(counts)])[:-1]
    ref = ray.put((bks, base))

    # intra-bucket ordinal by doc_id: co-locate each bucket, then rank
    def route_bk(tbl: pa.Table) -> pa.Table:
        bk = tbl.column("bk").to_numpy(zero_copy_only=False)
        return tbl.append_column(
            "part", pa.array(part_of(bk, num_partitions), pa.int32())
        )

    class _BucketRank:
        __name__ = "_BucketRank"

        def __call__(self, tbl: pa.Table) -> pa.Table:
            b_, base_ = ray.get(ref)
            bk = tbl.column("bk").to_numpy(zero_copy_only=False)
            ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
            order = np.lexsort((ids, bk))
            bk_s, ids_s = bk[order], ids[order]
            # ordinal within each bucket run
            starts = np.ones(len(bk_s), dtype=bool)
            starts[1:] = bk_s[1:] != bk_s[:-1]
            run_id = np.cumsum(starts) - 1
            run_start = np.flatnonzero(starts)
            ordinal = np.arange(len(bk_s)) - run_start[run_id]
            rn = base_[np.searchsorted(b_, bk_s)] + ordinal
            return pa.table(
                {
                    "doc_id": pa.array(ids_s, pa.int64()),
                    "rn": pa.array(rn, pa.int64()),
                }
            )

    ranked = (
        keyed.map_batches(route_bk, batch_format="pyarrow")
        .groupby("part")
        .map_groups(_BucketRank(), batch_format="pyarrow")
    )

    # rank-chunk routing with window-row duplication into the next chunk
    def route_chunk(tbl: pa.Table) -> pa.Table:
        rn = tbl.column("rn").to_numpy(zero_copy_only=False)
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        ck = rn // chunk
        dup = (rn % chunk) >= chunk - window  # boundary rows → next chunk
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([ids, ids[dup]]), pa.int64()),
                "rn": pa.array(np.concatenate([rn, rn[dup]]), pa.int64()),
                "own": pa.array(
                    np.concatenate(
                        [np.ones(len(rn), bool), np.zeros(int(dup.sum()), bool)]
                    ),
                    pa.bool_(),
                ),
                "ck": pa.array(
                    np.concatenate([ck, ck[dup] + 1]), pa.int64()
                ),
            }
        )

    return (
        ranked.map_batches(route_chunk, batch_format="pyarrow")
        .groupby("ck")
        .map_groups(_SnWindowPairs(window), batch_format="pyarrow")
    )


def boilerplate_chunks(
    docs_ds, chunk_words: int = 10, min_docs: int = 2, num_partitions: int = 32
):
    """Boilerplate mining — the dual view of ``dedup_paragraphs``: the
    ``chunk_words``-word chunks that appear in at least ``min_docs``
    DISTINCT documents, with their document frequencies. The report a
    curation team reads before deciding what the keep-first dedup will
    strip (navigation bars, license footers, template headers).

    Same two-stage shape as every postings operator here: per-block
    distinct (doc, chunk) rows crc32-routed so each chunk's postings
    co-locate, then one Arrow group-by per PARTITION counts distinct
    docs; only chunks passing ``min_docs`` leave the kernel."""
    import pyarrow.compute as pc

    class _DistinctChunks:
        __name__ = "_DistinctChunks"

        def __init__(self, w: int, P: int):
            self.w = w
            self.P = P

        def __call__(self, tbl: pa.Table) -> pa.Table:
            from zlib import crc32

            texts = tbl.column("text").to_pylist()
            ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
            out_id, out_ch, out_part = [], [], []
            for i, t in enumerate(texts):
                ws = (t or "").lower().split()
                chunks = {
                    " ".join(ws[ci * self.w : (ci + 1) * self.w])
                    for ci in range(0, (len(ws) + self.w - 1) // self.w)
                }
                out_id.extend([int(ids[i])] * len(chunks))
                out_ch.extend(chunks)
                out_part.extend(
                    crc32(c.encode("utf-8")) % self.P for c in chunks
                )
            return pa.table(
                {
                    "doc_id": pa.array(out_id, pa.int64()),
                    "chunk": pa.array(out_ch, pa.string()),
                    "part": pa.array(out_part, pa.int32()),
                }
            )

    class _FreqFilter:
        __name__ = "_FreqFilter"

        def __init__(self, min_docs: int):
            self.min_docs = min_docs

        def __call__(self, tbl: pa.Table) -> pa.Table:
            t = tbl.drop_columns(["part"]).combine_chunks()
            counts = t.group_by("chunk").aggregate([("doc_id", "count_distinct")])
            keep = pc.greater_equal(
                counts.column("doc_id_count_distinct"), self.min_docs
            )
            f = counts.filter(keep)
            return pa.table(
                {
                    "chunk": f.column("chunk"),
                    "n_docs": f.column("doc_id_count_distinct").cast(pa.int64()),
                }
            )

    return (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(
            _DistinctChunks(chunk_words, num_partitions),
            batch_format="pyarrow",
            batch_size=2048,
        )
        .groupby("part")
        .map_groups(_FreqFilter(min_docs), batch_format="pyarrow")
    )


def levenshtein_distance(a: str, b: str) -> int:
    """Levenshtein edit distance with the vectorized-row DP: each row
    is O(1) numpy kernels (the sequential insertion chain folds into a
    ``minimum.accumulate`` over cand[k]−k — a standard trick), so cost
    is O(len(a)) vector ops instead of O(len(a)·len(b)) Python steps."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    bv = np.array(list(b))
    idx = np.arange(lb + 1)
    prev = idx.copy()
    for i, ca in enumerate(a):
        sub = prev[:-1] + (bv != ca)
        cand = np.minimum(prev[1:] + 1, sub)
        row = np.concatenate(([i + 1], cand))
        prev = np.minimum.accumulate(row - idx) + idx
    return int(prev[-1])


def entity_resolve(
    docs_ds,
    workdir: str,
    prefix_len: int = 12,
    tau: float = 0.05,
    all_pairs_cap: int = 256,
):
    """End-to-end entity resolution over documents: standard PREFIX
    blocking (equal first-``prefix_len`` chars of the whitespace-
    normalized text — near-identical records share prefixes; a hash
    key like sorted_neighborhood's cannot co-locate near-dups), exact
    normalized-Levenshtein verification INSIDE the block (texts are
    already co-located by the groupby — no broadcast, no second
    exchange), transitive closure via the engine's own CC over the
    match graph, and a canonical ``entity_id`` = each cluster's min
    doc_id (docs with no match keep their own id).

    Match rule: levenshtein(a, b) ≤ tau · max(len(a), len(b), 1).
    Blocks above ``all_pairs_cap`` distinct members min-link to the
    block minimum (the same degenerate-block guard as every other
    bucket verifier here). Returns a Dataset (doc_id, entity_id)."""
    import ray.data as rd

    from signal_collect_ray.functions.joins import broadcast_join
    from signal_collect_ray.util import pin_schema

    def keyed(tbl: pa.Table) -> pa.Table:
        texts = tbl.column("text").to_pylist()
        norm = [" ".join((t or "").split()) for t in texts]
        return pa.table(
            {
                "bk": pa.array([s[:prefix_len] for s in norm], pa.string()),
                "doc_id": tbl.column("doc_id"),
                "nt": pa.array(norm, pa.string()),
            }
        )

    def verify_block(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        nts = tbl.column("nt").to_pylist()
        order = np.argsort(ids)
        ids = ids[order]
        nts = [nts[i] for i in order]
        n = len(ids)
        out_a, out_b = [], []
        if n > all_pairs_cap:
            pairs = ((0, j) for j in range(1, n))
        else:
            pairs = (
                (i, j) for i in range(n - 1) for j in range(i + 1, n)
            )
        for i, j in pairs:
            la, lb_ = len(nts[i]), len(nts[j])
            lim = tau * max(la, lb_, 1)
            if abs(la - lb_) > lim:  # cheap length prefilter
                continue
            if levenshtein_distance(nts[i], nts[j]) <= lim:
                out_a.append(int(ids[i]))
                out_b.append(int(ids[j]))
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
            }
        )

    pairs = (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(keyed, batch_format="pyarrow", batch_size=2048)
        .groupby("bk")
        .map_groups(verify_block, batch_format="pyarrow")
    )
    pairs = pin_schema(
        pairs, pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    ).materialize()

    # closure + canonical label via the engine's CC over the match graph
    if pairs.count() == 0:
        def identity(tbl: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": tbl.column("doc_id"),
                    "entity_id": tbl.column("doc_id"),
                }
            )

        return docs_ds.select_columns(["doc_id"]).map_batches(
            identity, batch_format="pyarrow"
        )

    mapping = pair_cc_labels(pairs, workdir).map_batches(
        lambda t: pa.table(
            {"doc_id": t.column("id"), "_ent": t.column("label")}
        ),
        batch_format="pyarrow",
    )

    joined = broadcast_join(
        docs_ds.select_columns(["doc_id"]), mapping, on="doc_id", how="left"
    )

    def finish(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        did = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        entc = tbl.column("_ent")
        # null-mask via Arrow, NOT a float-NaN round trip: casting int64
        # ids through float64 silently corrupts ids ≥ 2^53
        miss = pc.is_null(entc).to_numpy(zero_copy_only=False)
        ent = pc.fill_null(entc, 0).to_numpy(zero_copy_only=False)
        e = np.where(miss, did, ent.astype(np.int64))
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "entity_id": pa.array(e.astype(np.int64), pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def ngram_containment_pairs(
    docs_ds, id_col: str = "doc_id", shingle_k: int = 5,
    threshold_num: int = 9, threshold_den: int = 10,
):
    """ASYMMETRIC shingle containment pairs: C(A→B) = |A∩B| / |A|
    (Broder's containment — catches quotation/subset duplication that
    symmetric Jaccard misses: a doc fully embedded in a 10× longer one
    has J ≈ 0.1 but C = 1.0). Same inverted-index shape as
    ``ngram_jaccard_pairs`` (one exchange over postings, one over
    pairs, sizes broadcast); the survivor filter is INTEGER —
    inter·den ≥ num·|side| — so the threshold can't float-flake, and
    the reported containments are single divisions rounded half-away
    (bit-identical to the oracle's ROUND)."""
    import ray
    from ray.data.aggregate import Count

    texts = docs_ds.select_columns([id_col, "text"])
    postings = texts.map_batches(
        _DistinctShingles(id_col, shingle_k), batch_format="pyarrow"
    )
    pairs = postings.groupby("gram").map_groups(
        _GramPairs(), batch_format="pyarrow"
    )
    inter = pairs.groupby(["id_a", "id_b"]).aggregate(Count(alias_name="inter"))

    sizes_mat = texts.map_batches(
        _ShingleSetSizes(id_col, shingle_k), batch_format="pyarrow"
    ).materialize()
    n_docs = sizes_mat.count()
    if n_docs * 16 > NGRAM_SIZES_BYTES_LIMIT:
        raise RuntimeError(
            f"{n_docs} docs exceed the exact pipeline's size-map "
            "broadcast budget — use dedup_minhash"
        )
    st = pa.concat_tables(ray.get(sizes_mat.to_arrow_refs()))
    doc_ids = st.column("doc").to_numpy(zero_copy_only=False)
    n_sh = st.column("n_shingles").to_numpy(zero_copy_only=False)
    order = np.argsort(doc_ids)
    sizes_ref = ray.put((doc_ids[order], n_sh[order].astype(np.int64)))
    num, den = threshold_num, threshold_den

    def containment(tbl: pa.Table) -> pa.Table:
        keys, vals = ray.get(sizes_ref)
        ia = tbl.column("id_a").to_numpy(zero_copy_only=False)
        ib = tbl.column("id_b").to_numpy(zero_copy_only=False)
        c = tbl.column("inter").to_numpy(zero_copy_only=False)
        na = vals[np.searchsorted(keys, ia)]
        nb = vals[np.searchsorted(keys, ib)]
        keep = np.flatnonzero((c * den >= num * na) | (c * den >= num * nb))
        ca = c[keep] / np.maximum(na[keep], 1)
        cb = c[keep] / np.maximum(nb[keep], 1)
        # positive-range half-away rounding (DuckDB ROUND)
        r6 = lambda x: np.floor(x * 1e6 + 0.5) / 1e6  # noqa: E731
        return pa.table(
            {
                "id_a": pa.array(ia[keep], pa.int64()),
                "id_b": pa.array(ib[keep], pa.int64()),
                "cont_a": pa.array(r6(ca), pa.float64()),
                "cont_b": pa.array(r6(cb), pa.float64()),
            }
        )

    out = inter.map_batches(containment, batch_format="pyarrow")
    return pin_schema(
        out,
        pa.schema(
            [
                ("id_a", pa.int64()),
                ("id_b", pa.int64()),
                ("cont_a", pa.float64()),
                ("cont_b", pa.float64()),
            ]
        ),
    )


# ---------------------------------------------------------------------------
# longest duplicated n-gram span (exact substring dedup, Lee et al. 2022
# "Deduplicating Training Data Makes Language Models Better" — the
# duplicate-span primitive, here at word granularity)
# ---------------------------------------------------------------------------

import re as _re

# RE2-exact \S+ (ASCII whitespace only) so the DuckDB oracle's
# regexp_extract_all(lower(text), '\S+') tokenizes identically
_RE2_TOKEN = _re.compile(r"[^ \t\n\f\r]+")


class _GramHashRows:
    """Per-batch: all length-L word-gram rolling hashes per document,
    deduped within the document (each doc is one input row, so the
    emitted (h, doc) pairs are globally unique)."""

    __name__ = "_GramHashRows"

    def __init__(self, length: int, num_partitions: int):
        self.length = int(length)
        self.num_partitions = num_partitions

    def __call__(self, tbl: pa.Table) -> pa.Table:
        L = self.length
        hs, ds = [], []
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        for i, t in enumerate(tbl.column("text").to_pylist()):
            words = _RE2_TOKEN.findall((t or "").lower())
            if len(words) < L:
                continue
            h = np.unique(_poly_windows(_word_hashes(words), L))
            hs.append(h)
            ds.append(np.full(len(h), ids[i], dtype=np.int64))
        if not hs:
            h = np.array([], dtype=np.uint64)
            d = np.array([], dtype=np.int64)
        else:
            h, d = np.concatenate(hs), np.concatenate(ds)
        return pa.table(
            {
                "gpart": pa.array(
                    (h % np.uint64(self.num_partitions)).astype(np.int32),
                    pa.int32(),
                ),
                "h": pa.array(h.view(np.int64), pa.int64()),
                "doc_id": pa.array(d, pa.int64()),
            }
        )


def _any_dup_gram(docs_ds, length: int, num_partitions: int) -> bool:
    """True iff some length-L gram hash occurs in ≥2 distinct docs."""
    from ray.data.aggregate import Sum

    def dups(tbl: pa.Table) -> pa.Table:
        h = tbl.column("h").to_numpy(zero_copy_only=False)
        n = 0
        if len(h):
            hs = np.sort(h)
            starts = segment_starts(hs)
            n = int((np.diff(np.append(starts, len(hs))) >= 2).sum())
        return pa.table({"n": pa.array([n], pa.int64())})

    part = (
        docs_ds.map_batches(
            _GramHashRows(length, num_partitions), batch_format="pyarrow"
        )
        .groupby("gpart")
        .map_groups(dups, batch_format="pyarrow")
    )
    row = part.aggregate(Sum("n", alias_name="n"))
    return bool(row and row["n"])


class _GramStringRows:
    """Per-batch: the actual length-L gram STRINGS per document (dedup
    within doc) — only run once, at the final confirmed length."""

    __name__ = "_GramStringRows"

    def __init__(self, length: int, num_partitions: int):
        self.length = int(length)
        self.num_partitions = num_partitions

    def __call__(self, tbl: pa.Table) -> pa.Table:
        L = self.length
        grams, docs = [], []
        ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        for i, t in enumerate(tbl.column("text").to_pylist()):
            words = _RE2_TOKEN.findall((t or "").lower())
            if len(words) < L:
                continue
            seen = {
                " ".join(words[j : j + L]) for j in range(len(words) - L + 1)
            }
            grams.extend(seen)
            docs.extend([int(ids[i])] * len(seen))
        parts = np.array(
            [_hash64(g) % self.num_partitions for g in grams], dtype=np.int32
        )
        return pa.table(
            {
                "gpart": pa.array(parts, pa.int32()),
                "ngram": pa.array(grams, pa.string()),
                "doc_id": pa.array(docs, pa.int64()),
            }
        )


def longest_duplicated_ngram(
    docs_ds, cap: int = 128, num_partitions: int = 64
) -> pa.Table:
    """The longest word n-gram (ASCII-whitespace tokens of lowercased
    text) shared by ≥2 distinct documents: rows (length, ngram, n_docs)
    for EVERY maximal-length duplicated gram, sorted by ngram.

    Search is doubling + binary search on the span length (O(log cap)
    full passes, each O(total words) rolling-hash work — never the
    O(words × cap) all-lengths blowup the small-scale SQL oracle runs);
    the final length is CONFIRMED with actual gram strings (one more
    pass), so a rolling-hash collision can inflate a probe but never
    the result — on a false positive the confirm pass comes back empty
    and the search resumes downward. Duplicate-span detection at word
    granularity after Lee et al. 2022 (arXiv:2107.06499)."""
    docs_ds = docs_ds.materialize()

    def confirmed(length: int) -> pa.Table:
        def fold(tbl: pa.Table) -> pa.Table:
            order = pa.compute.sort_indices(tbl.column("ngram"))
            g = tbl.column("ngram").take(order).to_pylist()
            uniq, counts = [], []
            prev, c = None, 0
            for s in g:
                if s == prev:
                    c += 1
                else:
                    if prev is not None and c >= 2:
                        uniq.append(prev)
                        counts.append(c)
                    prev, c = s, 1
            if prev is not None and c >= 2:
                uniq.append(prev)
                counts.append(c)
            return pa.table(
                {
                    "length": pa.array(
                        np.full(len(uniq), length, dtype=np.int64), pa.int64()
                    ),
                    "ngram": pa.array(uniq, pa.string()),
                    "n_docs": pa.array(np.array(counts, dtype=np.int64), pa.int64()),
                }
            )

        out = (
            docs_ds.map_batches(
                _GramStringRows(length, num_partitions), batch_format="pyarrow"
            )
            .groupby("gpart")
            .map_groups(fold, batch_format="pyarrow")
        )
        batches = list(out.iter_batches(batch_format="pyarrow", batch_size=None))
        t = pa.concat_tables(batches) if batches else _EMPTY_SPAN
        if not t.num_rows:
            return _EMPTY_SPAN
        return t.sort_by("ngram")

    # doubling phase
    if not _any_dup_gram(docs_ds, 1, num_partitions):
        return _EMPTY_SPAN
    lo = 1
    hi = None
    L = 2
    while L <= cap:
        if _any_dup_gram(docs_ds, L, num_partitions):
            lo = L
            L *= 2
        else:
            hi = L
            break
    if hi is None:
        hi = cap + 1
    # binary search on (lo, hi): lo always dup-positive, hi negative
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _any_dup_gram(docs_ds, mid, num_partitions):
            lo = mid
        else:
            hi = mid
    # string confirmation (collision guard): the hash search's lo may be
    # inflated by a rolling-hash false positive. String confirmation is
    # monotone in length (a true dup span of length L contains dup spans
    # of every shorter length), so on an empty confirm resume a BINARY
    # search over confirmed() — O(log lo) full-corpus string passes, not
    # the O(lo) cost of walking down one length at a time.
    t = confirmed(lo)
    if t.num_rows:
        return t
    conf_hi = lo  # string-confirmed negative
    conf_lo = 0  # largest string-confirmed positive (0 = none yet)
    best = _EMPTY_SPAN
    while conf_hi - conf_lo > 1:
        mid = (conf_lo + conf_hi) // 2
        t = confirmed(mid)
        if t.num_rows:
            conf_lo = mid
            best = t
        else:
            conf_hi = mid
    return best


_EMPTY_SPAN = pa.table(
    {
        "length": pa.array([], pa.int64()),
        "ngram": pa.array([], pa.string()),
        "n_docs": pa.array([], pa.int64()),
    }
)
