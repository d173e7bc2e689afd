"""Deduplication family for training-data pipelines.

- exact dedup: content-hash groupby (keep min doc_id) — the scale path
  groups on a 64-bit content hash so the shuffle moves keys, not text.
- MinHash + LSH near-dup: char-shingle → minhash signatures (vectorized
  numpy over flat byte buffers, segment-min via ufunc.reduceat) →
  banded LSH buckets → candidate pairs → signature-estimated Jaccard.
- SimHash: token-hash bit-majority 64-bit fingerprints; near-dups =
  pairs at small Hamming distance found via 16-bit chunk bucketing.

All randomness is seeded & derived from fixed constants — outputs are
pure functions of the input table, reproducible across parallelism.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .masking import WHITESPACE_RULE
from .textstats import _flat_bytes

logger = logging.getLogger(__name__)

MERSENNE = np.uint64((1 << 61) - 1)

# Expansion bound per (bucket, signature-group) pairing. A group of m
# docs sharing one MinHash signature implies m(m-1)/2 est=1.0 pairs;
# beyond this bound the group is emitted as a STAR (min doc_id paired
# with every other member) instead of all-pairs — same connected
# component for downstream keep-one dedup, linear output. Never silent:
# the reducer logs each capped group.
MAX_PAIRS_PER_GROUP = 100_000


def _perm_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    return a, b


def shingle_hashes(text_array, width: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """uint64 rolling hashes of all char shingles, flat across the
    batch + per-doc window offsets. Wraparound polynomial, base 1099511628211
    (FNV prime) — deterministic."""
    buf, offsets = _flat_bytes(text_array)
    n = len(offsets) - 1
    base = np.uint64(1099511628211)
    if len(buf) >= width:
        h = np.zeros(len(buf) - width + 1, dtype=np.uint64)
        b = buf.astype(np.uint64)
        for k in range(width):
            h = h * base + b[k:len(b) - width + 1 + k]
    else:
        h = np.empty(0, dtype=np.uint64)
    # windows for doc i live at [offsets[i], offsets[i+1]-width] inclusive
    starts = np.minimum(offsets[:-1], len(h))
    ends = np.maximum(np.minimum(offsets[1:] - width + 1, len(h)), starts)
    return h, np.stack([starts, ends])


def minhash_signatures(text_array, num_perm: int = 64,
                       width: int = 5, seed: int = 42) -> np.ndarray:
    """(n_docs, num_perm) uint64 signature matrix, fully vectorized.

    Cross-document windows are compacted away first (valid window
    indices gathered per doc), then each permutation is one
    (a*h+b) % p pass + a contiguous segment-min (minimum.reduceat).
    Short docs (< width bytes, zero valid windows) fall back to a
    raw-byte polynomial hash replicated across all permutations, so
    only byte-identical short docs share band keys (an all-max
    sentinel would make every pair of short docs a false est=1.0
    near-dup).
    """
    buf, offsets = _flat_bytes(text_array)
    h, (starts, ends) = shingle_hashes(text_array, width)
    n = len(starts)
    sig = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    seg_len = (ends - starts).astype(np.int64)
    nonempty = seg_len > 0
    # short-doc fallback: ≤ width-1 bytes each, so this loop touches a
    # handful of bytes per (rare) short doc
    base = np.uint64(1099511628211)
    for i in np.flatnonzero(~nonempty):
        acc = np.uint64(0x811C9DC5)
        for byte in buf[offsets[i]:offsets[i + 1]]:
            acc = acc * base + np.uint64(byte)
        sig[i, :] = acc
    if len(h) == 0 or not nonempty.any():
        return sig
    # compact valid (in-document) windows into one contiguous array
    total = int(seg_len.sum())
    vidx = np.repeat(starts, seg_len) + (
        np.arange(total) - np.repeat(np.cumsum(seg_len) - seg_len, seg_len))
    hv = h[vidx]
    seg_starts = (np.cumsum(seg_len) - seg_len)[nonempty]
    a, b = _perm_params(num_perm, seed)
    for p in range(num_perm):
        v = (a[p] * hv + b[p]) % MERSENNE
        sig[nonempty, p] = np.minimum.reduceat(v, seg_starts)
    return sig


def simhash64(text_array, seed: int = 42) -> np.ndarray:
    """64-bit SimHash over whitespace tokens (weight 1 per token)."""
    arr = text_array.combine_chunks() if isinstance(
        text_array, pa.ChunkedArray) else text_array
    toks = pc.split_pattern_regex(arr, pattern=r"\s+")
    flat = pc.list_flatten(toks)
    parent = np.asarray(pc.list_parent_indices(toks), dtype=np.int64)
    n = len(arr)
    keep = np.asarray(pc.not_equal(flat, ""))
    flat = flat.filter(pa.array(keep))
    parent = parent[keep]
    # hash each DISTINCT token once (token vocab ≪ token count), then
    # index_in-join hashes back — same broadcast idiom as enrichment
    uniq = pc.unique(flat)
    uh = np.array([int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
                   for s in uniq.to_pylist()], dtype=np.uint64)
    idx = np.asarray(pc.index_in(flat, uniq), dtype=np.int64)
    tok_hash = uh[idx]
    bits = ((tok_hash[:, None] >> np.arange(64, dtype=np.uint64)) & 1).astype(np.int32)
    votes = np.zeros((n, 64), dtype=np.int64)
    np.add.at(votes, parent, bits * 2 - 1)
    out = (votes > 0).astype(np.uint64)
    return (out << np.arange(64, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


# ---------------------------------------------------------------------------
# Ray Data pipelines
# ---------------------------------------------------------------------------


def content_hash_column(text) -> pa.Array:
    """md5 content hash per row, computed distinct-first (the Python
    digest loop touches unique texts, not rows). THE definition of an
    exact duplicate — every caller (dedup, incremental dedup, the
    split-leakage audit) must share it, and it mirrors DuckDB md5()."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    uniq = pc.unique(text)
    uh = pa.array([hashlib.md5(s.encode()).hexdigest()
                   for s in uniq.to_pylist()], type=pa.string())
    return uh.take(pc.index_in(text, uniq))


def exact_dedup_by_hash(ds, id_col: str = "doc_id", text_col: str = "text",
                        out_dir: str | None = None):
    """Scale-path exact dedup: shuffle moves (hash, id) pairs only.

    Small distinct-hash spaces return a driver-side table
    (content_hash, keep_id, n_copies). Past the driver merge bound
    (aggregate.DRIVER_MERGE_MAX_ROWS — content-hash keys ≈ corpus
    size, so at 10⁹ docs the keep-list is itself huge) the final NEVER
    lands on the driver: the merged Dataset is written as parquet to
    ``out_dir`` (required on that path) and returned as a Dataset for
    further streaming (e.g. a broadcast/semi-join keep filter)."""
    from .aggregate import _combine_partials, _to_arrow

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "content_hash": content_hash_column(t.column(text_col)),
            "keep_id": t.column(id_col),
        }).group_by("content_hash").aggregate(
            [("keep_id", "min"), ([], "count_all")])
        return tt.rename_columns(["content_hash", "keep_id", "n_copies"])

    merged = _combine_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["content_hash"],
        aggs=[("keep_id", "min"), ("n_copies", "sum")],
        dataset_final=True)
    if isinstance(merged, pa.Table):
        return merged.sort_by("keep_id")
    # distributed final: persist the keep-list partitioned, never collect
    if out_dir is None:
        raise ValueError(
            "exact_dedup_by_hash: distinct-hash keep-list exceeds the "
            "driver merge bound; pass out_dir to write it as parquet")
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)  # no stale mix
    merged = merged.materialize()
    merged.write_parquet(out_dir)
    return merged


class MinHashStage:
    """Actor-pool stage: append minhash band keys per doc. Permutation
    params built once per actor in __init__."""

    def __init__(self, num_perm: int = 64, bands: int = 16,
                 width: int = 5, seed: int = 42,
                 id_col: str = "doc_id", text_col: str = "text",
                 include_sig: bool = True):
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.width = width
        self.seed = seed
        self.id_col = id_col
        self.text_col = text_col
        # include_sig=False emits 16-byte (band_key, doc_id) rows only —
        # the bucket-count pass never carries the 64-perm signatures
        self.include_sig = include_sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = minhash_signatures(batch.column(self.text_col),
                                 self.num_perm, self.width, self.seed)
        n = sig.shape[0]
        r = self.rows_per_band
        # band key: wraparound polynomial combine of the band's r rows
        # (vectorized; collisions only add candidate checks, never lose dups)
        C = np.uint64(0x9E3779B97F4A7C15)
        keys = np.zeros((n, self.bands), dtype=np.uint64)
        for bi in range(self.bands):
            acc = np.full(n, np.uint64(bi + 1), dtype=np.uint64)
            for k in range(r):
                acc = acc * C + sig[:, bi * r + k]
            keys[:, bi] = acc
        ids = np.asarray(batch.column(self.id_col), dtype=np.int64)
        rep = np.repeat(np.arange(n), self.bands)
        cols = {
            "band_key": pa.array(keys.ravel().view(np.int64), type=pa.int64()),
            "doc_id": pa.array(ids[rep], type=pa.int64()),
        }
        if self.include_sig:
            sig_i64 = sig.view(np.int64)  # bit-preserving reinterpret
            # vectorized list column: one flat values buffer + arange
            # offsets (no per-row Python list building). Offsets are
            # computed in int64 first: an int32 arange*num_perm wraps
            # negative past ~2.1M rows/batch (round-4 review finding);
            # large blocks take the large_list layout instead.
            offs64 = np.arange(len(rep) + 1,
                               dtype=np.int64) * self.num_perm
            flat = pa.array(sig_i64[rep].ravel(), type=pa.int64())
            if offs64[-1] <= np.iinfo(np.int32).max:
                cols["sig"] = pa.ListArray.from_arrays(
                    pa.array(offs64.astype(np.int32)), flat)
            else:
                cols["sig"] = pa.LargeListArray.from_arrays(
                    pa.array(offs64), flat)
        return pa.table(cols)


def _sig_matrix(group: pa.Table, col: str = "sig") -> np.ndarray:
    """list<int64> signature column → (n, num_perm) int64 matrix,
    zero-copy from the flat values buffer."""
    arr = group.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = np.asarray(arr.values, dtype=np.int64)
    return flat.reshape(len(arr), flat.size // max(len(arr), 1))


def _expand_group_pair(ids_a: np.ndarray, ids_b: np.ndarray, est: float,
                       out_a: list, out_b: list, out_e: list) -> None:
    """Emit the cross product of two signature-groups' doc ids as pairs
    (all members of group A are est-similar to all of group B). Beyond
    MAX_PAIRS_PER_GROUP the expansion degrades to a logged star: each
    group's min id pairs with every member of the other — the same
    connected component, linear output."""
    prod = len(ids_a) * len(ids_b)
    if prod > MAX_PAIRS_PER_GROUP:
        logger.warning(
            "LSH group-pair expansion capped: %d x %d members > %d pairs; "
            "emitting star pairs instead (connectivity preserved, "
            "non-star pairs dropped)", len(ids_a), len(ids_b),
            MAX_PAIRS_PER_GROUP)
        a = np.concatenate([np.full(len(ids_b), ids_a.min(), dtype=np.int64),
                            np.full(len(ids_a), ids_b.min(), dtype=np.int64)])
        b = np.concatenate([ids_b, ids_a])
    else:
        a = np.repeat(ids_a, len(ids_b))
        b = np.tile(ids_b, len(ids_a))
    out_a.append(a)
    out_b.append(b)
    out_e.append(np.full(len(a), est))


def _expand_group_intra(ids_g: np.ndarray, out_a: list, out_b: list,
                        out_e: list) -> None:
    """All-pairs within one identical-signature group (est exactly 1.0);
    star fallback past MAX_PAIRS_PER_GROUP."""
    m = len(ids_g)
    if m * (m - 1) // 2 > MAX_PAIRS_PER_GROUP:
        logger.warning(
            "LSH identical-signature group capped: %d members > %d pairs; "
            "emitting star pairs instead (connectivity preserved)",
            m, MAX_PAIRS_PER_GROUP)
        root = ids_g.min()
        rest = ids_g[ids_g != root]
        a = np.full(len(rest), root)
        b = rest
    else:
        mi, mj = np.triu_indices(m, k=1)
        a, b = ids_g[mi], ids_g[mj]
    out_a.append(a)
    out_b.append(b)
    out_e.append(np.ones(len(a)))


def grouped_bucket_pairs(ids: np.ndarray, sigs: np.ndarray,
                         threshold: float) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
    """Vectorized near-dup pairing inside one LSH bucket.

    Identical signatures are grouped FIRST (np.unique over rows), so a
    bucket of m near-identical docs costs O(m) + O(u²·perm) where u is
    the number of DISTINCT signatures — not O(m²) per-pair Python. The
    unique-vs-unique estimate matrix is computed in bounded chunks.
    Returns (doc_a, doc_b, est) with doc_a < doc_b.
    """
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.float64))
    if len(ids) < 2:
        return empty
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    sigs = sigs[order]
    uniq, inv = np.unique(sigs, axis=0, return_inverse=True)
    nu = len(uniq)
    by_group = np.argsort(inv, kind="stable")
    counts = np.bincount(inv, minlength=nu)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    members = [ids[by_group[starts[g]:starts[g] + counts[g]]]
               for g in range(nu)]
    out_a: list = []
    out_b: list = []
    out_e: list = []
    if threshold <= 1.0:
        for g in np.flatnonzero(counts >= 2):
            _expand_group_intra(members[g], out_a, out_b, out_e)
    if nu >= 2:
        gi, gj = np.triu_indices(nu, k=1)
        # bounded-memory chunks of the unique-pair estimate vector
        chunk = max(1_000_000 // max(uniq.shape[1], 1), 1)
        for lo in range(0, len(gi), chunk):
            ci, cj = gi[lo:lo + chunk], gj[lo:lo + chunk]
            est = (uniq[ci] == uniq[cj]).mean(axis=1)
            for kidx in np.flatnonzero(est >= threshold):
                _expand_group_pair(members[ci[kidx]], members[cj[kidx]],
                                   float(est[kidx]), out_a, out_b, out_e)
    if not out_a:
        return empty
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    e = np.concatenate(out_e)
    lo_, hi_ = np.minimum(a, b), np.maximum(a, b)
    keep = lo_ != hi_  # duplicate doc_id rows are not pairs
    return lo_[keep], hi_[keep], e[keep]


def multi_bucket_sizes(rows_ds, key_col: str, *,
                       as_dataset_past_bound: bool = False):
    """Global sizes of buckets holding ≥ 2 rows — the only buckets that
    can yield candidate pairs. Returned as a small driver table
    (key, n): singleton buckets — the overwhelming majority on a
    mostly-unique corpus — are dropped BEFORE collection, and on the
    distributed merge path they are dropped before leaving the cluster,
    so the result stays proportional to the duplicate rate, not the
    corpus.

    ``as_dataset_past_bound=True`` callers additionally get the census
    back as a materialized DATASET when the multi-bucket census itself
    exceeds the driver merge bound (pervasively-duplicated corpora,
    where "proportional to the duplicate rate" is still proportional
    to corpus content): the census then never lands on the driver —
    filter with a Bloom prefilter + partitioned semi-join instead of a
    value set (see _minhash_candidates_distributed)."""
    from ray.data.aggregate import Sum

    from .aggregate import DRIVER_MERGE_MAX_ROWS, _to_arrow

    def count_partial(t: pa.Table) -> pa.Table:
        tt = t.select([key_col]).group_by(key_col).aggregate(
            [([], "count_all")])
        return tt.rename_columns([key_col, "n"])

    empty = pa.table({key_col: pa.array([], type=pa.int64()),
                      "n": pa.array([], type=pa.int64())})
    partials = rows_ds.map_batches(
        count_partial, batch_format="pyarrow").materialize()
    if partials.count() <= DRIVER_MERGE_MAX_ROWS:
        tbl = _to_arrow(partials)
        if key_col not in tbl.column_names:
            return empty
        merged = tbl.group_by(key_col).aggregate([("n", "sum")]) \
            .rename_columns([key_col, "n"])
    else:
        merged_ds = partials.groupby(key_col) \
            .aggregate(Sum("n", alias_name="n")) \
            .map_batches(lambda t: t.filter(
                pc.greater_equal(t.column("n"), 2)),
                batch_format="pyarrow").materialize()
        if as_dataset_past_bound \
                and merged_ds.count() > DRIVER_MERGE_MAX_ROWS:
            return merged_ds
        merged = _to_arrow(merged_ds)
        if "n" not in merged.column_names:  # all-singleton, schema lost
            return empty
    return merged.filter(pc.greater_equal(merged.column("n"), 2))


def census_stats(census, key_col: str, max_bucket: int | None,
                 what: str) -> tuple[int, dict[int, int]]:
    """(n_candidates, nsub) from a census that is either a driver
    Table or a past-bound Dataset (as_dataset_past_bound): the sum
    and the oversized-bucket table are tiny either way — only the
    oversized rows are collected on the Dataset path.
    ``max_bucket=None`` skips the oversize scan entirely (callers
    without sub-salting, e.g. winnow/prefix whose star caps bound
    expansion) and returns nsub={}."""
    if isinstance(census, pa.Table):
        n_candidates = int(pc.sum(census.column("n")).as_py()) \
            if census.num_rows else 0
        nsub = {} if max_bucket is None else oversized_bucket_subsalts(
            census, key_col, max_bucket, what)
        return n_candidates, nsub
    from .aggregate import _to_arrow

    n_candidates = int(census.sum("n") or 0)
    if max_bucket is None:
        return n_candidates, {}
    over = _to_arrow(census.map_batches(
        lambda t: t.filter(pc.greater(t.column("n"), max_bucket)),
        batch_format="pyarrow"))
    nsub = (oversized_bucket_subsalts(over, key_col, max_bucket, what)
            if "n" in over.column_names else {})
    return n_candidates, nsub


def sweep_num_partitions(n_candidates: int) -> int:
    """Pair-sweep partition count: floor PAIR_SWEEP_NUM_PARTITIONS,
    scaling with candidate volume so one partition's rows stay
    bounded however large the corpus (shared by the MinHash, SimHash
    and winnowing sweeps)."""
    return max(PAIR_SWEEP_NUM_PARTITIONS,
               min(65536, n_candidates // PAIR_SWEEP_ROWS_PER_PARTITION))


def partition_ids(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Murmur-finalizer hash partition ids for int64 bucket keys —
    the ONE mixing function every sweep uses, so bucket co-location
    can never diverge between them."""
    h = keys.astype(np.uint64)
    h = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    return ((h ^ (h >> np.uint64(33)))
            % np.uint64(num_partitions)).astype(np.int64)


def census_gate(census, key_col: str):
    """Multi-bucket row filter from either census form: a driver
    Table gives an exact ``pc.is_in`` value set; a past-bound Dataset
    gives a broadcast Bloom prefilter (bitmap via ray.put, sized by
    census cardinality) — exact for every PAIR-producing caller,
    because a Bloom false positive only admits rows of
    globally-singleton buckets, and a singleton segment emits no
    pairs (and is never sub-salted: nsub derives from true census
    rows). Returns a function Dataset -> filtered Dataset."""
    if isinstance(census, pa.Table):
        keys = census.column(key_col).combine_chunks()

        def gate(ds):
            return ds.map_batches(
                lambda t: t.filter(pc.is_in(t.column(key_col),
                                            value_set=keys)),
                batch_format="pyarrow")

        return gate
    import ray

    from .bloomjoin import (M_BITS_MAX, BloomFilterStage, bloom_build,
                            m_bits_for)

    n_keys = census.count()
    if n_keys * 16 > M_BITS_MAX:
        logger.warning(
            "census_gate(%s): %d census keys exceed the %d-bit bitmap "
            "cap (%.1f bits/key) — fpp degrades and more singleton "
            "rows reach the sweep (output unaffected)",
            key_col, n_keys, M_BITS_MAX, M_BITS_MAX / max(n_keys, 1))
    bm_ref = ray.put(bloom_build(census, key_col,
                                 m_bits=m_bits_for(n_keys)))

    def gate(ds):
        # autoscaling actor pool: the gate filters the FULL row
        # stream, so a fixed 1-CPU pool would serialize the pipeline
        # (round-5 review finding)
        return ds.map_batches(
            BloomFilterStage, fn_constructor_args=(bm_ref, key_col),
            concurrency=(1, 16), num_cpus=0.5,
            batch_format="pyarrow")

    return gate


def oversized_bucket_subsalts(sizes: pa.Table, key_col: str,
                              max_bucket: int, what: str) -> dict[int, int]:
    """From a bucket-size table: for each bucket over ``max_bucket``
    rows, the number of sub-buckets to split it into. Logged at the
    driver — no silent caps."""
    over = sizes.filter(pc.greater(sizes.column("n"), max_bucket))
    if over.num_rows == 0:
        return {}
    nsub = {int(k): -(-int(n) // max_bucket)
            for k, n in zip(over.column(key_col).to_pylist(),
                            over.column("n").to_pylist())}
    logger.warning(
        "%s: %d LSH buckets exceed %d rows (largest %d); sub-salting into "
        "up to %d sub-buckets each — candidate pairs that span sub-buckets "
        "of the same original bucket are skipped",
        what, len(nsub), max_bucket,
        int(pc.max(over.column("n")).as_py()), max(nsub.values()))
    return nsub


SUBSALT_MIX = np.uint64(0xBF58476D1CE4E5B9)


def _subsalt_keys(keys: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """Derive a sub-bucket key from (bucket key, sub index): an
    invertible-free mix; collisions with other buckets only add
    candidate checks, never lose in-sub pairs."""
    k = keys.view(np.uint64) if keys.dtype == np.int64 else keys
    mixed = (k ^ (k >> np.uint64(31))) * SUBSALT_MIX + subs.astype(np.uint64)
    return mixed.view(np.int64)


# Candidate rows at or below this count are paired in ONE Ray task
# (a numpy segment sweep) instead of a distributed sort — the
# candidate set (rows in multi-member buckets) is proportional to the
# duplicate rate, so at bench scale the sort's fixed overhead
# dominates its work by orders of magnitude.
SINGLE_TASK_PAIR_MAX_ROWS = 500_000

# Hash partitions for the distributed pair sweep (buckets co-located
# by band-key hash; each partition runs the vectorized multi-bucket
# _segment_pairs kernel once). The floor; the count scales up with
# candidate volume so one partition's signature rows (~530 B each at
# 64 perms) stay ~130 MB however large the corpus.
PAIR_SWEEP_NUM_PARTITIONS = 64
PAIR_SWEEP_ROWS_PER_PARTITION = 250_000


# Buckets up to this size take the batched all-pairs path (one
# vectorized comparison per distinct bucket size across ALL buckets of
# that size); larger buckets go through grouped_bucket_pairs with its
# identical-signature dedup and star caps.
SMALL_BUCKET = 64


def _segment_pairs(keys: np.ndarray, ids: np.ndarray, sigs: np.ndarray,
                   threshold: float) -> pa.Table:
    """Pair every bucket of a candidate array, key-sorted.

    Small buckets (≤ SMALL_BUCKET rows, the overwhelming majority once
    singletons are dropped) generate candidate DOC-ID pairs
    size-class-at-a-time with pure integer ops, the pair set is
    deduplicated globally (the same near-dup pair surfaces in up to
    ``bands`` buckets), and the signature estimate is computed ONCE per
    unique pair — the expensive (pairs × num_perm) comparison shrinks
    by the band multiplicity. Larger buckets take the per-segment
    grouped_bucket_pairs path with its identical-signature dedup and
    star caps."""
    order = np.argsort(keys, kind="stable")
    keys, ids, sigs = keys[order], ids[order], sigs[order]
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(keys)) + 1,
                             [len(keys)]])
    seg_len = np.diff(bounds)
    starts = bounds[:-1]
    # doc table: est depends only on the two docs, so map rows → docs
    uniq_ids, first = np.unique(ids, return_index=True)
    sig_of = sigs[first]
    pos = np.searchsorted(uniq_ids, ids)
    n_u = len(uniq_ids)

    cand_lo, cand_hi = [], []
    small = (seg_len >= 2) & (seg_len <= SMALL_BUCKET)
    for m in np.unique(seg_len[small]):
        S = starts[small & (seg_len == m)]  # all buckets of size m
        mi, mj = np.triu_indices(int(m), k=1)
        gi = (S[:, None] + mi[None, :]).ravel()
        gj = (S[:, None] + mj[None, :]).ravel()
        a, b = pos[gi], pos[gj]
        keep = a != b  # duplicate doc_id rows are not pairs
        if keep.any():
            cand_lo.append(np.minimum(a[keep], b[keep]))
            cand_hi.append(np.maximum(a[keep], b[keep]))
    out_a, out_b, out_e = [], [], []
    if cand_lo:
        packed = np.unique(np.concatenate(cand_lo) * np.int64(n_u)
                           + np.concatenate(cand_hi))
        ua, ub = packed // n_u, packed % n_u
        est = (sig_of[ua] == sig_of[ub]).mean(axis=1)
        keep = est >= threshold
        if keep.any():
            out_a.append(uniq_ids[ua[keep]])
            out_b.append(uniq_ids[ub[keep]])
            out_e.append(est[keep])
    for s, e in zip(starts[seg_len > SMALL_BUCKET],
                    bounds[1:][seg_len > SMALL_BUCKET]):
        a, b, est = grouped_bucket_pairs(ids[s:e], sigs[s:e], threshold)
        if len(a):
            out_a.append(a)
            out_b.append(b)
            out_e.append(est)
    if not out_a:
        return pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64()),
                         "est_jaccard": pa.array([], type=pa.float64())})
    return pa.table({
        "doc_a": pa.array(np.concatenate(out_a), type=pa.int64()),
        "doc_b": pa.array(np.concatenate(out_b), type=pa.int64()),
        "est_jaccard": pa.array(np.concatenate(out_e), type=pa.float64()),
    })



def _nsub_vector(keys: np.ndarray, nsub: dict[int, int]) -> np.ndarray:
    """Per-row sub-bucket counts from the (tiny) oversized-bucket map
    via sorted-array searchsorted — no per-row Python dict probes
    (round-4 review finding: the dict comprehension crossed the
    interpreter once per candidate row)."""
    nk = np.fromiter(nsub.keys(), dtype=np.int64, count=len(nsub))
    nv = np.fromiter(nsub.values(), dtype=np.uint64, count=len(nsub))
    order = np.argsort(nk)
    nk, nv = nk[order], nv[order]
    pos = np.searchsorted(nk, keys)
    pos_c = np.minimum(pos, len(nk) - 1)
    sub_n = np.where(nk[pos_c] == keys, nv[pos_c], np.uint64(0))
    return sub_n.astype(np.uint64)


def _resalted_keys(t: pa.Table, nsub: dict[int, int]) -> np.ndarray:
    """Band keys with oversized buckets split by SIGNATURE hash —
    identical signatures land in the same sub-bucket, so est=1.0
    groups are never torn apart."""
    keys = np.asarray(t.column("band_key"), dtype=np.int64)
    if not nsub:
        return keys
    sub_n = _nsub_vector(keys, nsub)
    hit = sub_n > 0
    if not hit.any():
        return keys
    sig_h = _sig_matrix(t).astype(np.uint64).sum(axis=1)
    sig_h = (sig_h ^ (sig_h >> np.uint64(33))) * SUBSALT_MIX
    subs = np.zeros(len(keys), dtype=np.uint64)
    subs[hit] = sig_h[hit] % sub_n[hit]
    keys = keys.copy()
    keys[hit] = _subsalt_keys(keys[hit], subs[hit])
    return keys


def _pair_candidates_impl(blocks, nsub: dict[int, int],
                          threshold: float) -> pa.Table | None:
    tables = [b for b in blocks if b.num_rows]
    if not tables:
        return None
    tbl = pa.concat_tables(tables, promote_options="default") \
        .combine_chunks()
    pairs_tbl = _segment_pairs(
        _resalted_keys(tbl, nsub),
        np.asarray(tbl.column("doc_id"), dtype=np.int64),
        _sig_matrix(tbl), threshold)
    if pairs_tbl.num_rows == 0:
        return None
    return pairs_tbl.group_by(["doc_a", "doc_b"]).aggregate(
        [("est_jaccard", "max")]) \
        .rename_columns(["doc_a", "doc_b", "est_jaccard"])


def _minhash_candidates_distributed(ds, key_rows, census, full_stage,
                                    max_bucket: int):
    """Candidate working set when the multi-bucket census exceeds the
    driver merge bound (pervasive duplication at 100-TB scale): the
    census stays a DATASET and never lands on the driver, replacing
    the broadcast ``pc.is_in`` value sets of the driver path.

    Shape: band rows and input docs are gated by broadcast Bloom
    prefilters built FROM the census Dataset (bitmaps via ray.put,
    sized by census cardinality) — and Bloom-only filtering is EXACT
    for the pair output: a false positive admits only rows of
    globally-singleton buckets (a singleton segment emits no pairs in
    _segment_pairs, and nsub derives from true census rows so
    sub-salting is unaffected), and a false-positive DOC only admits
    band rows that the band-key Bloom then drops or that are
    singletons. True multi-bucket rows/docs always pass (Blooms have
    no false negatives), so no pair is lost. While the bitmap is
    well-sized (≤ ~134M census keys at 16 bits/key under the 256 MiB
    cap, fpp ~1e-3) the noise admitted is a bounded sliver of compute
    and the path adds ZERO extra exchanges over the driver-census
    path — an all-to-all costs driver-side shuffle state proportional
    to exchange volume, measured at +0.2-1.5 GB driver RSS each at
    sf1. Past the cap the fpp degrades, so the filters are then
    backed by an exact partitioned semi-join against the census /
    distinct-id Datasets (bloom_semi_join — the curation keep-filter
    shape): volume bounds stay tight exactly when they matter.

    Returns (candidates dataset | None if empty, n_candidates, nsub).
    """
    import ray

    from . import bloomjoin as bj
    from .aggregate import _combine_partials, _to_arrow
    from .bloomjoin import (BloomFilterStage, bloom_build,
                            bloom_semi_join, m_bits_for)

    census_rows = census.count()
    n_candidates = int(census.sum("n"))
    over = _to_arrow(census.map_batches(
        lambda t: t.filter(pc.greater(t.column("n"), max_bucket)),
        batch_format="pyarrow"))
    nsub = (oversized_bucket_subsalts(over, "band_key", max_bucket,
                                      "minhash_near_dups")
            if "n" in over.column_names else {})

    census_keys = census.select_columns(["band_key"]).materialize()
    # bitmap saturated → fpp degrades → back every Bloom with the
    # exact semi-join; below the cap Bloom-only is exact-output and
    # exchange-free (see docstring)
    exact = census_rows * 16 > bj.M_BITS_MAX

    def project_docs(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
            "text": pc.cast(t.column("text"), pa.string())})

    docs = ds.map_batches(project_docs, batch_format="pyarrow")
    if exact:
        multi_rows, bm_ref = bloom_semi_join(
            key_rows, census_keys, left_key="band_key",
            right_key="band_key", n_keys=census_rows,
            left_schema=pa.schema([("band_key", pa.int64()),
                                   ("doc_id", pa.int64())]),
            num_partitions=max(64, min(4096,
                                       n_candidates // 500_000)))

        def doc_partial(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id")
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            return pa.table({"doc_id": pc.unique(ids)})

        # materialize: the distinct-id Dataset is consumed three
        # times (count, bloom build, join build side) — without this
        # each consumption re-runs the groupby shuffle
        cand_res = _combine_partials(
            multi_rows.map_batches(doc_partial,
                                   batch_format="pyarrow"),
            keys=["doc_id"], aggs=[],
            empty_schema=pa.schema([("doc_id", pa.int64())]),
            dataset_final=True)
        if isinstance(cand_res, pa.Table):
            if cand_res.num_rows == 0:
                return None, n_candidates, nsub
            cand_res = ray.data.from_arrow(cand_res)
        cand_res = cand_res.materialize()
        n_cand = cand_res.count()
        cand_docs, _ = bloom_semi_join(
            docs, cand_res, left_key="doc_id", right_key="doc_id",
            n_keys=n_cand,
            left_schema=pa.schema([("doc_id", pa.int64()),
                                   ("text", pa.string())]),
            num_partitions=max(64, min(4096, n_cand // 250_000)))
    else:
        bm_ref = ray.put(bloom_build(census_keys, "band_key",
                                     m_bits=m_bits_for(census_rows)))
        pre = key_rows.map_batches(
            BloomFilterStage, fn_constructor_args=(bm_ref, "band_key"),
            concurrency=(1, 16), num_cpus=0.5,
            batch_format="pyarrow")
        # doc-id bitmap built straight from the Bloom-surviving band
        # rows — per-block unique inside bloom_build; duplicate ids
        # across blocks just re-set the same bits, so no distinct
        # groupby exchange is needed. n_candidates upper-bounds the
        # distinct doc count for sizing.
        bm2_ref = ray.put(bloom_build(pre, "doc_id",
                                      m_bits=m_bits_for(n_candidates)))
        cand_docs = docs.map_batches(
            BloomFilterStage, fn_constructor_args=(bm2_ref, "doc_id"),
            concurrency=(1, 16), num_cpus=0.5,
            batch_format="pyarrow")

    candidates = cand_docs \
        .map_batches(full_stage, batch_format="pyarrow") \
        .map_batches(BloomFilterStage,
                     fn_constructor_args=(bm_ref, "band_key"),
                     concurrency=(1, 16), num_cpus=0.5,
                     batch_format="pyarrow")
    return candidates, n_candidates, nsub


def minhash_near_dups(ds, num_perm: int = 64, bands: int = 16,
                      threshold: float = 0.5,
                      max_bucket: int = 4096,
                      out_dir: str | None = None):
    """MinHash+LSH candidate pairs with signature-estimated Jaccard.

    band rows → global bucket-size count (keys-only) → DROP singleton
    buckets before any shuffle (they cannot pair; on a mostly-unique
    corpus this strips nearly all rows) → sub-salt oversized buckets
    (> ``max_bucket`` rows, split by signature hash so identical
    signatures stay together) → vectorized signature-grouped pairing,
    on the driver when the candidate set is small, via
    groupby(band_key) beyond → global pair dedup.
    Returns (doc_a, doc_b, est_jaccard).

    Scale notes: the count pass bounds every reducer's group at
    ~``max_bucket`` distinct signatures and shrinks the pairing shuffle
    to the duplicate-bearing rows only; identical-signature floods
    (boilerplate corpora) stay in one sub-bucket but cost O(m) via the
    star cap, not O(m²). The materialized state is 16-byte
    (band_key, doc_id) rows ONLY — signatures are recomputed in a
    second, doc-id-filtered pass over just the surviving candidate
    docs (≲ dup-bearing fraction of the corpus), so the object-store
    footprint never carries num_perm×8 bytes per band row (~60× less
    at 64 perms / 16 bands).

    On near-dup-saturated corpora (boilerplate floods: the round-4
    adversarial drill emitted 101M TRUE pairs from 1M docs) the pair
    list itself is too large to land on the driver: past the driver
    merge bound the merged pairs are written as parquet to ``out_dir``
    (required on that path, mirroring exact_dedup_by_hash) and
    returned as a Dataset for streaming consumption (connected
    components, keep-filters).
    """
    # task-based, not an actor pool: the per-stage state (permutation
    # params) costs microseconds to rebuild, and skipping actor-pool
    # spin-up saves ~1-2 s of fixed latency per invocation
    stage_keys = MinHashStage(num_perm=num_perm, bands=bands,
                              include_sig=False)
    key_rows = ds.map_batches(
        stage_keys, batch_format="pyarrow").materialize()

    sizes = multi_bucket_sizes(key_rows, "band_key",
                               as_dataset_past_bound=True)
    empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                      "doc_b": pa.array([], type=pa.int64()),
                      "est_jaccard": pa.array([], type=pa.float64())})
    from .aggregate import _combine_partials, _to_arrow

    # second pass over the input, filtered to candidate docs BEFORE the
    # signature compute: sigs exist only for the pairing working set
    full_stage = MinHashStage(num_perm=num_perm, bands=bands)

    if not isinstance(sizes, pa.Table):
        # census past the driver merge bound: Dataset census, Bloom +
        # partitioned semi-join filters — nothing content-proportional
        # on the driver
        candidates, n_candidates, nsub = \
            _minhash_candidates_distributed(ds, key_rows, sizes,
                                            full_stage, max_bucket)
        if candidates is None:
            return empty
    else:
        if sizes.num_rows == 0:
            return empty
        multi_keys = sizes.column("band_key").combine_chunks()
        n_candidates = int(pc.sum(sizes.column("n")).as_py())
        nsub = oversized_bucket_subsalts(sizes, "band_key", max_bucket,
                                         "minhash_near_dups")

        def keep_multi(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t.column("band_key"),
                                     value_set=multi_keys))

        # surviving doc ids (bounded by dup-bearing docs +
        # band-collision noise): per-block distinct, driver distinct
        def cand_doc_partial(t: pa.Table) -> pa.Table:
            hit = keep_multi(t)
            ids = hit.column("doc_id")
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            return pa.table({"doc_id": pc.unique(ids)})

        cand_tbl = _to_arrow(key_rows.map_batches(
            cand_doc_partial, batch_format="pyarrow"))
        if cand_tbl.num_rows == 0 \
                or "doc_id" not in cand_tbl.column_names:
            return empty
        cand_ids = pc.unique(cand_tbl.column("doc_id").combine_chunks())

        def keep_cand_docs(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t.column("doc_id"),
                                     value_set=cand_ids))

        candidates = ds.map_batches(keep_cand_docs,
                                    batch_format="pyarrow") \
            .map_batches(full_stage, batch_format="pyarrow") \
            .map_batches(keep_multi, batch_format="pyarrow")

    if n_candidates <= SINGLE_TASK_PAIR_MAX_ROWS:
        # driver-side single sweep: with the package's allocator tuning
        # (state/malloc_tuning.py) the driver heap stays warm, so the
        # sweep runs at memory speed. The bound is sized so the pulled
        # (band_key, doc_id, sig[num_perm]) rows + the sweep's sort
        # copies stay under ~2 GB of driver heap (the round-4 sf1
        # drill measured 7 GB at the old 2M-row bound).
        merged = _pair_candidates_impl([_to_arrow(candidates)], nsub,
                                       threshold)
        if merged is None:
            return empty
    else:
        # distributed sweep: hash-partition BUCKETS (every row of a
        # band key lands in one partition), then run the SAME
        # vectorized multi-bucket _segment_pairs kernel inside each
        # partition — Python is crossed num_partitions times, not
        # |buckets| times (the previous per-bucket map_groups spent
        # minutes in per-group interpreter calls on a collision-noisy
        # 1M-doc corpus). A pair seen in several buckets may span
        # partitions; the est is a pure pair function, so the global
        # (doc_a, doc_b) max-merge dedups exactly.
        num_partitions = sweep_num_partitions(n_candidates)

        def with_salt_part(t: pa.Table) -> pa.Table:
            keys = _resalted_keys(t, nsub)
            part = partition_ids(keys, num_partitions)
            t = t.set_column(t.schema.get_field_index("band_key"),
                             "band_key",
                             pa.array(keys, type=pa.int64()))
            return t.append_column("_part", pa.array(part))

        def part_pairs(group: pa.Table) -> pa.Table:
            return _segment_pairs(
                np.asarray(group.column("band_key"), dtype=np.int64),
                np.asarray(group.column("doc_id"), dtype=np.int64),
                _sig_matrix(group), threshold)

        pairs = candidates.map_batches(with_salt_part,
                                       batch_format="pyarrow") \
            .groupby("_part").map_groups(part_pairs,
                                         batch_format="pyarrow")
        merged = _combine_partials(
            pairs, keys=["doc_a", "doc_b"],
            aggs=[("est_jaccard", "max")],
            empty_schema=pa.schema([("doc_a", pa.int64()),
                                    ("doc_b", pa.int64()),
                                    ("est_jaccard", pa.float64())]),
            dataset_final=True)
        if not isinstance(merged, pa.Table):
            # pair list exceeds the driver merge bound: persist
            # partitioned, never collect
            return _spill_pairs(merged, out_dir, "minhash_near_dups")
    if merged.num_rows == 0:
        return empty
    return merged.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])


def simhash_fingerprints(ds, id_col: str = "doc_id",
                         text_col: str = "text") -> pa.Table:
    """Per-doc 64-bit SimHash (hex string for portability)."""
    def stage(t: pa.Table) -> pa.Table:
        sh = simhash64(t.column(text_col))
        return pa.table({
            id_col: t.column(id_col),
            "simhash": pa.array([format(int(x), "016x") for x in sh],
                                type=pa.string()),
        })

    from .aggregate import _to_arrow
    return _to_arrow(ds.map_batches(stage, batch_format="pyarrow")) \
        .sort_by(id_col)


def winnow_doc_fps(text_array, k: int = 8,
                   window: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Winnowing fingerprints per doc (Schleimer/Wilkerson/Aiken):
    rolling k-char hashes → per-position window minima → the doc's
    DISTINCT selected values. Guarantee: two docs sharing any
    substring of ≥ window + k - 1 chars share at least one
    fingerprint value (the shared window's minimum). Returns (flat
    fps, parent doc indices), fully vectorized; docs with fewer than
    ``window`` hashes contribute their single overall minimum."""
    h, (starts, ends) = shingle_hashes(text_array, k)
    n = len(starts)
    seg_len = (ends - starts).astype(np.int64)
    nonempty = seg_len > 0
    if not nonempty.any():
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    # compact valid windows (cross-doc excluded), as in minhash
    sl = seg_len[nonempty]
    total = int(sl.sum())
    vidx = np.repeat(starts[nonempty], sl) + (
        np.arange(total) - np.repeat(np.cumsum(sl) - sl, sl))
    hv = h[vidx]
    seg_starts = np.cumsum(sl) - sl
    doc_ids = np.flatnonzero(nonempty)
    if total >= window:
        roll = np.lib.stride_tricks.sliding_window_view(
            hv, window).min(axis=1)
    else:
        roll = np.empty(0, dtype=np.uint64)
    # long docs: all in-segment window minima, gathered flat; short
    # docs: one overall minimum — both fully vectorized
    long = sl >= window
    vals_parts, par_parts = [], []
    if long.any():
        wl = (sl[long] - window + 1).astype(np.int64)
        wtotal = int(wl.sum())
        widx = np.repeat(seg_starts[long], wl) + (
            np.arange(wtotal) - np.repeat(np.cumsum(wl) - wl, wl))
        vals_parts.append(roll[widx])
        par_parts.append(np.repeat(doc_ids[long], wl))
    if (~long).any():
        # reduceat over ALL segment starts (segments tile hv exactly),
        # then select the short docs' minima
        mins_all = np.minimum.reduceat(hv, seg_starts)
        vals_parts.append(mins_all[~long])
        par_parts.append(doc_ids[~long])
    vals = np.concatenate(vals_parts)
    parent = np.concatenate(par_parts)
    # per-doc distinct: sort by (parent, value), keep firsts
    order = np.lexsort((vals, parent))
    vals, parent = vals[order], parent[order]
    keep = np.concatenate(
        [[True], (parent[1:] != parent[:-1]) | (vals[1:] != vals[:-1])])
    return vals[keep], parent[keep]


def _spill_pairs(pairs_ds, out_dir: str | None, what: str):
    """Merged pair list past the driver merge bound: write as
    partitioned parquet to ``out_dir`` (required on this path) and
    return the materialized Dataset — order is NOT globally sorted,
    a 100M-row all-to-all sort buys nothing for a pair-list
    artifact (the minhash spill contract, shared by every sweep)."""
    if out_dir is None:
        raise ValueError(
            f"{what}: pair list exceeds the driver merge bound; "
            "pass out_dir to write it as parquet")
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)  # no stale mix
    pairs_ds = pairs_ds.materialize()
    pairs_ds.write_parquet(out_dir)
    return pairs_ds


def _winnow_segment_pairs(fp: np.ndarray, ids: np.ndarray) -> pa.Table:
    """The winnowing bucket sweep over rows SORTED by fp: per
    fingerprint, unique member docs pair triangularly while bounded,
    star-capped past MAX_PAIRS_PER_GROUP. Returns RAW
    (doc_a, doc_b, n_shared=1) rows — one per sharing fp; callers
    SUM-merge globally. Used verbatim by the driver path and inside
    every distributed sweep partition."""
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(fp)) + 1,
                             [len(fp)]]) if len(fp) else \
        np.array([0, 0])
    out_a, out_b = [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        g = np.unique(ids[s:e])
        m = len(g)
        if m < 2:
            continue
        if m * (m - 1) // 2 <= MAX_PAIRS_PER_GROUP:
            ai, bi = np.triu_indices(m, k=1)
            out_a.append(g[ai])
            out_b.append(g[bi])
        else:
            logger.warning(
                "winnow_passage_pairs: fingerprint shared by %d docs "
                "capped to star emission", m)
            out_a.append(np.full(m - 1, g[0]))
            out_b.append(g[1:])
    if not out_a:
        return pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64()),
                         "n_shared": pa.array([], type=pa.int64())})
    return pa.table({
        "doc_a": pa.array(np.concatenate(out_a), type=pa.int64()),
        "doc_b": pa.array(np.concatenate(out_b), type=pa.int64()),
        "n_shared": pa.array(
            np.ones(sum(len(a) for a in out_a), dtype=np.int64)),
    })


def winnow_passage_pairs(ds, k: int = 8, window: int = 16,
                         id_col: str = "doc_id", text_col: str = "text",
                         max_bucket: int = 4096,
                         min_shared: int = 1,
                         out_dir: str | None = None):
    """Cross-document shared-passage detection (passage-level dedup,
    the 'repeated boilerplate paragraph' case exact dedup misses):
    winnowed fingerprints per doc → singleton fingerprints dropped
    before any collection → docs sharing a fingerprint pair up with
    their shared-fingerprint count. Any pair sharing a passage of
    ≥ window + k - 1 chars is guaranteed to surface. Groups larger
    than the pair cap emit a star (min doc to each member) — same
    bounded-expansion discipline as MinHash — and past
    SINGLE_TASK_PAIR_MAX_ROWS the sweep runs DISTRIBUTED
    (fp-hash-partitioned segment kernel + global sum merge; round 5).
    Returns (doc_a, doc_b, n_shared) with doc_a < doc_b."""
    from .aggregate import _to_arrow

    def fp_rows(t: pa.Table) -> pa.Table:
        fps, parent = winnow_doc_fps(t.column(text_col), k, window)
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        return pa.table({
            "fp": pa.array(fps.view(np.int64), type=pa.int64()),
            "doc_id": pa.array(ids[parent], type=pa.int64()),
        })

    rows = ds.map_batches(fp_rows, batch_format="pyarrow").materialize()
    empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                      "doc_b": pa.array([], type=pa.int64()),
                      "n_shared": pa.array([], type=pa.int64())})
    sizes = multi_bucket_sizes(rows, "fp", as_dataset_past_bound=True)
    # winnow has no sub-salting (star caps bound expansion):
    # max_bucket=None skips the oversize scan
    n_candidates, _ = census_stats(sizes, "fp", None,
                                   "winnow_passage_pairs")
    if n_candidates == 0:
        return empty
    keep_multi_ds = census_gate(sizes, "fp")
    if n_candidates > SINGLE_TASK_PAIR_MAX_ROWS:
        # distributed sweep (round 5, the MinHash/SimHash discipline):
        # hash-partition fingerprints — every row of an fp lands in
        # one partition — run the identical segment kernel per
        # partition, then a global (doc_a, doc_b) SUM merge: each fp
        # contributes its pairs exactly once, so the sum equals the
        # driver kernel's count.
        from .aggregate import _combine_partials

        num_partitions = sweep_num_partitions(n_candidates)

        def with_part(t: pa.Table) -> pa.Table:
            part = partition_ids(
                np.asarray(t.column("fp"), dtype=np.int64),
                num_partitions)
            return t.append_column("_part", pa.array(part))

        def part_pairs(group: pa.Table) -> pa.Table:
            fp_g = np.asarray(group.column("fp"), dtype=np.int64)
            ids_g = np.asarray(group.column("doc_id"),
                               dtype=np.int64)
            order_g = np.lexsort((ids_g, fp_g))
            return _winnow_segment_pairs(fp_g[order_g],
                                         ids_g[order_g])

        pairs = keep_multi_ds(rows) \
            .map_batches(with_part, batch_format="pyarrow") \
            .groupby("_part").map_groups(part_pairs,
                                         batch_format="pyarrow")
        out = _combine_partials(
            pairs, keys=["doc_a", "doc_b"],
            aggs=[("n_shared", "sum")],
            empty_schema=pa.schema([("doc_a", pa.int64()),
                                    ("doc_b", pa.int64()),
                                    ("n_shared", pa.int64())]),
            dataset_final=True)
        if not isinstance(out, pa.Table):
            if min_shared > 1:
                out = out.map_batches(
                    lambda t, ms=min_shared: t.filter(
                        pc.greater_equal(t.column("n_shared"), ms)),
                    batch_format="pyarrow")
            return _spill_pairs(out, out_dir, "winnow_passage_pairs")
        if out.num_rows == 0:
            return empty
    else:
        cand = _to_arrow(keep_multi_ds(rows))
        if cand.num_rows == 0 or "fp" not in cand.column_names:
            return empty
        fp = np.asarray(cand.column("fp"), dtype=np.int64)
        ids = np.asarray(cand.column("doc_id"), dtype=np.int64)
        order = np.lexsort((ids, fp))
        raw = _winnow_segment_pairs(fp[order], ids[order])
        if raw.num_rows == 0:
            return empty
        out = raw.group_by(["doc_a", "doc_b"]) \
            .aggregate([("n_shared", "sum")]) \
            .rename_columns(["doc_a", "doc_b", "n_shared"])
    if min_shared > 1:
        # corpora with pervasive short boilerplate pair almost
        # everything at 1 shared fp; requiring several distinct shared
        # passages keeps the signal about substantive reuse
        out = out.filter(pc.greater_equal(out.column("n_shared"),
                                          min_shared))
    return out.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount over a uint64 array of any shape
    (numpy 2's bitwise_count when present; unpackbits fallback)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    return np.unpackbits(x.view(np.uint8), axis=-1) \
        .reshape(x.shape + (64,)).sum(axis=-1).astype(np.int64)


def _simhash_resalt(keys: np.ndarray, sh_i64: np.ndarray,
                    nsub: dict[int, int]) -> np.ndarray:
    """Sub-salt oversized simhash buckets by the full hash (identical
    hashes stay together). Pure per-row function of (band_key,
    simhash) — safe to apply per batch before partitioning."""
    if not nsub:
        return keys
    sub_n = _nsub_vector(keys, nsub)
    hit = sub_n > 0
    if not hit.any():
        return keys
    shh = sh_i64.astype(np.uint64)
    shh = (shh ^ (shh >> np.uint64(33))) * SUBSALT_MIX
    subs = np.zeros(len(keys), dtype=np.uint64)
    subs[hit] = shh[hit] % sub_n[hit]
    keys = keys.copy()
    keys[hit] = _subsalt_keys(keys[hit], subs[hit])
    return keys


def _simhash_segment_pairs(keys: np.ndarray, ids: np.ndarray,
                           sh: np.ndarray,
                           max_hamming: int) -> pa.Table:
    """The simhash bucket sweep over sorted-by-key rows: per bucket,
    group identical hashes (star emission at hamming 0, so floods
    cost O(m)), then chunked XOR+popcount over UNIQUE hashes with
    bounded group-pair expansion (root links past the cap). Returns
    RAW (doc_a, doc_b, hamming) rows — a pair may repeat across
    bands/partitions; callers dedup with a global min-hamming merge.
    Used verbatim by the driver path and inside every distributed
    sweep partition."""
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(keys)) + 1,
                             [len(keys)]]) if len(keys) else \
        np.array([0, 0])
    out_a, out_b, out_h = [], [], []

    def _emit(a: np.ndarray, b: np.ndarray, h) -> None:
        neq = a != b  # duplicate doc_id rows are not pairs
        if not neq.any():
            return
        out_a.append(np.minimum(a[neq], b[neq]))
        out_b.append(np.maximum(a[neq], b[neq]))
        out_h.append(np.broadcast_to(h, a.shape)[neq]
                     if np.ndim(h) else np.full(neq.sum(), h,
                                                dtype=np.int64))

    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s < 2:
            continue
        gi, gs = ids[s:e], sh[s:e]
        # group by IDENTICAL hash first: an identical-hash flood
        # (boilerplate corpus) costs O(m) via the star emission, and
        # the quadratic check runs over UNIQUE hashes only
        uorder = np.lexsort((gi, gs))
        gi, gs = gi[uorder], gs[uorder]
        ustart = np.concatenate([[0],
                                 np.flatnonzero(np.diff(gs) != 0) + 1])
        uend = np.concatenate([ustart[1:], [len(gs)]])
        uh = gs[ustart]
        roots = gi[ustart]  # min doc_id per group (gi sorted within)
        # stars inside identical-hash groups (hamming 0, exact)
        for us, ue in zip(ustart, uend):
            if ue - us > 1:
                _emit(np.full(ue - us - 1, gi[us]), gi[us + 1:ue],
                      np.int64(0))
        # pairwise over unique hashes, chunked
        mu = len(uh)
        chunk = max(4_000_000 // max(mu, 1), 16)
        for lo in range(0, mu - 1, chunk):
            hi = min(lo + chunk, mu)
            ham = _popcount64(uh[lo:hi, None] ^ uh[None, :])
            ri, ci = np.nonzero((ham <= max_hamming) & (ham > 0))
            keep = (ri + lo) < ci
            if not keep.any():
                continue
            ri, ci = ri[keep], ci[keep]
            # expand group-pairs to member cross-pairs while bounded;
            # past the cap connect via group roots (same connected
            # component — the MinHash star-cap discipline)
            for r, c, hm in zip(ri + lo, ci, ham[ri, ci]):
                na, nb = uend[r] - ustart[r], uend[c] - ustart[c]
                if na * nb <= MAX_PAIRS_PER_GROUP:
                    a = np.repeat(gi[ustart[r]:uend[r]], nb)
                    b = np.tile(gi[ustart[c]:uend[c]], na)
                    _emit(a, b, np.int64(hm))
                else:
                    logger.warning(
                        "simhash_near_dups: group pair %d×%d rows "
                        "capped to root link", na, nb)
                    _emit(np.array([roots[r]]), np.array([roots[c]]),
                          np.int64(hm))
    if not out_a:
        return pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64()),
                         "hamming": pa.array([], type=pa.int64())})
    return pa.table({
        "doc_a": pa.array(np.concatenate(out_a), type=pa.int64()),
        "doc_b": pa.array(np.concatenate(out_b), type=pa.int64()),
        "hamming": pa.array(np.concatenate(out_h), type=pa.int64()),
    })


def simhash_near_dups(ds, max_hamming: int = 3, id_col: str = "doc_id",
                      text_col: str = "text",
                      max_bucket: int = 4096,
                      out_dir: str | None = None):
    """SimHash near-duplicate pairs (Manku/Jain/Sarma banded blocking):
    the 64-bit SimHash splits into 4 disjoint 16-bit bands; any two
    hashes within Hamming distance ``max_hamming`` (< 4) agree EXACTLY
    on at least one band (pigeonhole), so candidates are rows sharing a
    (band_index, band_value) bucket and the in-bucket check is a
    vectorized XOR+popcount. Exact for the simhash metric — no pair
    within the bound is missed. Same scale discipline as MinHash:
    keys-only rows, singleton buckets dropped before any collection,
    oversized buckets sub-salted by the full hash (identical hashes
    stay together), and past SINGLE_TASK_PAIR_MAX_ROWS the sweep runs
    DISTRIBUTED — resalted buckets hash-partitioned, the identical
    segment kernel per partition, global min-hamming merge (round 5;
    previously every candidate row landed on the driver). Returns
    (doc_a, doc_b, hamming), doc_a < doc_b.
    """
    if not 0 <= max_hamming <= 3:
        # the 4x16-bit pigeonhole guarantees recall ONLY for
        # Hamming <= 3; a larger bound would silently lose pairs
        # (round-4 review finding)
        raise ValueError(
            f"simhash_near_dups: max_hamming={max_hamming} outside "
            "the banding recall guarantee (0..3); use more bands or "
            "MinHash for looser similarity")
    from .aggregate import _to_arrow

    def band_rows(t: pa.Table) -> pa.Table:
        sh = simhash64(t.column(text_col))
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        n = len(ids)
        keys = np.empty((n, 4), dtype=np.int64)
        for b in range(4):
            chunk = (sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            keys[:, b] = (np.int64(b + 1) << np.int64(48)) \
                | chunk.astype(np.int64)
        rep = np.repeat(np.arange(n), 4)
        return pa.table({
            "band_key": pa.array(keys.ravel(), type=pa.int64()),
            "doc_id": pa.array(ids[rep], type=pa.int64()),
            "simhash": pa.array(sh[rep].view(np.int64), type=pa.int64()),
        })

    rows = ds.map_batches(band_rows, batch_format="pyarrow").materialize()
    empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                      "doc_b": pa.array([], type=pa.int64()),
                      "hamming": pa.array([], type=pa.int64())})
    sizes = multi_bucket_sizes(rows, "band_key",
                               as_dataset_past_bound=True)
    n_candidates, nsub = census_stats(sizes, "band_key", max_bucket,
                                      "simhash_near_dups")
    if n_candidates == 0:
        return empty
    keep_multi_ds = census_gate(sizes, "band_key")
    if n_candidates > SINGLE_TASK_PAIR_MAX_ROWS:
        # distributed sweep (the MinHash discipline, round-5): hash-
        # partition RESALTED band keys — every row of a (sub-)bucket
        # lands in one partition — and run the identical segment
        # kernel per partition; a pair found in several bands spans
        # partitions and the global min-hamming merge dedups exactly.
        num_partitions = sweep_num_partitions(n_candidates)

        def with_salt_part(t: pa.Table) -> pa.Table:
            keys2 = _simhash_resalt(
                np.asarray(t.column("band_key"), dtype=np.int64),
                np.asarray(t.column("simhash"), dtype=np.int64),
                nsub)
            part = partition_ids(keys2, num_partitions)
            return pa.table({
                "band_key": pa.array(keys2, type=pa.int64()),
                "doc_id": t.column("doc_id"),
                "simhash": t.column("simhash"),
                "_part": pa.array(part)})

        def part_pairs(group: pa.Table) -> pa.Table:
            keys2 = np.asarray(group.column("band_key"),
                               dtype=np.int64)
            order2 = np.argsort(keys2, kind="stable")
            return _simhash_segment_pairs(
                keys2[order2],
                np.asarray(group.column("doc_id"),
                           dtype=np.int64)[order2],
                np.asarray(group.column("simhash"),
                           dtype=np.int64).view(np.uint64)[order2],
                max_hamming)

        from .aggregate import _combine_partials

        pairs = keep_multi_ds(rows) \
            .map_batches(with_salt_part, batch_format="pyarrow") \
            .groupby("_part").map_groups(part_pairs,
                                         batch_format="pyarrow")
        merged = _combine_partials(
            pairs, keys=["doc_a", "doc_b"],
            aggs=[("hamming", "min")],
            empty_schema=pa.schema([("doc_a", pa.int64()),
                                    ("doc_b", pa.int64()),
                                    ("hamming", pa.int64())]),
            dataset_final=True)
        if not isinstance(merged, pa.Table):
            # pair list exceeds the driver merge bound: persist
            # partitioned, never collect (the minhash spill contract)
            return _spill_pairs(merged, out_dir, "simhash_near_dups")
        if merged.num_rows == 0:
            return empty
        return merged.sort_by([("doc_a", "ascending"),
                               ("doc_b", "ascending")])

    cand = _to_arrow(keep_multi_ds(rows))
    if cand.num_rows == 0 or "band_key" not in cand.column_names:
        return empty
    keys = _simhash_resalt(
        np.asarray(cand.column("band_key"), dtype=np.int64),
        np.asarray(cand.column("simhash"), dtype=np.int64), nsub)
    ids = np.asarray(cand.column("doc_id"), dtype=np.int64)
    sh = np.asarray(cand.column("simhash"), dtype=np.int64) \
        .view(np.uint64)
    order = np.argsort(keys, kind="stable")
    raw = _simhash_segment_pairs(keys[order], ids[order], sh[order],
                                 max_hamming)
    if raw.num_rows == 0:
        return empty
    # a pair surfaces once per agreeing band; dedup on min hamming
    out = raw.group_by(["doc_a", "doc_b"]) \
        .aggregate([("hamming", "min")]) \
        .rename_columns(["doc_a", "doc_b", "hamming"])
    return out.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])


def ngram_jaccard(text_a: str, text_b: str, width: int = 5) -> float:
    """Exact char-shingle Jaccard (verification oracle for MinHash)."""
    sa = {text_a[i:i + width] for i in range(max(len(text_a) - width + 1, 1))}
    sb = {text_b[i:i + width] for i in range(max(len(text_b) - width + 1, 1))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def normalize_text(arr) -> pa.Array:
    """Canonical text form for normalization-aware exact dedup (the
    C4/CCNet-style "fuzzy exact" step: Unicode NFC, casefold to lower,
    collapse runs of whitespace, trim).  Mirrored verbatim by the
    DuckDB oracle (nfc_normalize → lower → regexp_replace → trim), so
    the operator is exactly checkable.

    NFC composition: the pinned pyarrow's ``utf8_normalize`` silently
    fails to COMPOSE (NFC of e+COMBINING ACUTE returns the input
    unchanged — pinned by a test), so NFC runs through ``unicodedata``
    — but ONLY for rows containing a non-ASCII byte (vectorized regex
    gate).  ASCII text — the bulk of web corpora — never leaves Arrow
    kernels."""
    import unicodedata

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    non_ascii = pc.match_substring_regex(arr, r"[^\x00-\x7f]")
    idx = np.flatnonzero(
        np.asarray(non_ascii.fill_null(False), dtype=bool))
    if len(idx):
        vals = arr.to_numpy(zero_copy_only=False)  # object ndarray
        vals[idx] = [unicodedata.normalize("NFC", s)
                     for s in vals[idx]]
        arr = pa.array(vals, type=pa.string())
    out = pc.utf8_lower(arr)
    out = pc.replace_substring_regex(out, *WHITESPACE_RULE)
    return pc.utf8_trim_whitespace(out)


# ---------------------------------------------------------------------------
# exact-recall set-similarity join via prefix filtering (AllPairs)
# ---------------------------------------------------------------------------

_SH_C1 = np.uint64(0x9E3779B97F4A7C15)
_SH_C2 = np.uint64(0xC2B2AE3D27D4EB4F)
_SH_C3 = np.uint64(0x165667B19E3779F9)


def word_shingle_hashes(text_array, width: int = 3
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row word-``width``-gram shingle hashes, vectorized:
    lowercase → split on non-letters → drop empties → hash DISTINCT
    words once (md5_hash32, vocab-bounded per batch) → combine
    consecutive word hashes with uint64 mix constants. Returns
    (shingle_hash uint64, row_index int64); rows with < ``width``
    words contribute nothing. Hash collisions merely merge tokens of
    the relabeled universe — they can only ADD candidates, never drop
    a true pair (callers verify with true shingle strings)."""
    from ..functions.hashing import md5_hash32

    if isinstance(text_array, pa.ChunkedArray):
        text_array = text_array.combine_chunks()
    words = pc.split_pattern_regex(pc.utf8_lower(text_array), "[^a-z]+")
    off = np.asarray(words.offsets, dtype=np.int64)
    vals = np.asarray(words.values.to_pylist(), dtype=object)
    row_of = np.repeat(np.arange(len(off) - 1, dtype=np.int64),
                       np.diff(off))
    keep = vals != ""
    vals, row_of = vals[keep], row_of[keep]
    if len(vals) < width:
        return (np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int64))
    uniq, inv = np.unique(vals, return_inverse=True)
    uh = np.fromiter((np.uint64(md5_hash32(s)) for s in uniq),
                     dtype=np.uint64, count=len(uniq))
    wh = uh[inv]
    n_sh = len(wh) - width + 1
    # width=1: every word is its own shingle (the [:-0] slice would be
    # empty and crash — round-4 review finding)
    head = row_of[:n_sh]
    ok = head == row_of[width - 1:]
    sh = np.zeros(n_sh, dtype=np.uint64)
    for k in range(width):            # polynomial combine, uint64 wrap
        sh = sh * _SH_C1 + wh[k:k + n_sh] * _SH_C2
    sh += _SH_C3                      # keep single-word ≠ raw md5 space
    return sh[ok], head[ok]


class PrefixEmitStage:
    """Prefix-filter key emission (Bayardo/Chaudhuri AllPairs): per
    document, the DISTINCT shingle hashes are sorted by the global
    total order (the hash value itself — any fixed total order
    preserves the exact-recall theorem; document-frequency order is
    only a candidate-count optimization, so no global frequency pass
    is needed) and the first n − ⌈τ·n⌉ + 1 are emitted as
    (skey, doc_id) rows. Theorem: J(A,B) ≥ τ ⇒ the two prefixes
    share a token, so grouping by skey finds every true pair."""

    def __init__(self, threshold_pm: int, width: int = 3,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.tau_pm = threshold_pm
        self.width = width
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, t: pa.Table) -> pa.Table:
        sh, rows = word_shingle_hashes(t.column(self.text_col),
                                       self.width)
        empty = pa.table({
            "skey": pa.array([], type=pa.int64()),
            self.id_col: pa.array([], type=pa.int64())})
        if len(sh) == 0:
            return empty
        order = np.lexsort((sh, rows))
        rows_s, sh_s = rows[order], sh[order]
        first = np.ones(len(rows_s), dtype=bool)
        first[1:] = ((rows_s[1:] != rows_s[:-1])
                     | (sh_s[1:] != sh_s[:-1]))
        rows_d, sh_d = rows_s[first], sh_s[first]
        row_start = np.ones(len(rows_d), dtype=bool)
        row_start[1:] = rows_d[1:] != rows_d[:-1]
        start_idx = np.flatnonzero(row_start)
        counts = np.diff(np.append(start_idx, len(rows_d)))
        pos = np.arange(len(rows_d)) - np.repeat(start_idx, counts)
        n_of = np.repeat(counts, counts)
        ceil_tau_n = -(-self.tau_pm * n_of // 1000)
        keep = pos < (n_of - ceil_tau_n + 1)
        ids = np.asarray(t.column(self.id_col), dtype=np.int64)
        return pa.table({
            "skey": pa.array(sh_d[keep].view(np.int64)),
            self.id_col: pa.array(ids[rows_d[keep]]),
        })


def prefix_jaccard_candidates(ds, threshold_pm: int, width: int = 3,
                              id_col: str = "doc_id",
                              text_col: str = "text") -> pa.Table:
    """Candidate (doc_a, doc_b) pairs sharing a prefix token —
    a SUPERSET of all true τ-pairs (exact recall). The only shuffle
    groups prefix rows by shingle key; singleton keys are dropped
    before it (multi_bucket_sizes), and pair emission inside each
    group is an O(g²) triangular expansion — prefix tokens are each
    document's globally-"smallest" shingles, so hot keys mean truly
    repeated passages, which exact dedup upstream should have removed
    (the curation cascade runs content-hash dedup first)."""
    from .aggregate import _combine_partials

    rows = ds.map_batches(
        PrefixEmitStage(threshold_pm, width, id_col, text_col),
        batch_format="pyarrow").materialize()
    sizes = multi_bucket_sizes(rows, "skey",
                               as_dataset_past_bound=True)
    # Bloom-gated past the bound: a false-positive singleton skey
    # reaches group_pairs as m=1 and emits nothing — exact recall
    n_candidates, _ = census_stats(sizes, "skey", None,
                                   "prefix_jaccard_candidates")
    if n_candidates == 0:
        return pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64())})
    keep_multi_ds = census_gate(sizes, "skey")

    def group_pairs(g: pa.Table) -> pa.Table:
        ids = np.unique(np.asarray(g.column(id_col), dtype=np.int64))
        m = len(ids)
        if m < 2:
            return pa.table({"doc_a": pa.array([], type=pa.int64()),
                             "doc_b": pa.array([], type=pa.int64())})
        if m * (m - 1) // 2 > MAX_PAIRS_PER_GROUP:
            # module convention: never silent, never quadratic. A
            # prefix token shared by this many docs is a repeated
            # passage exact dedup upstream should have collapsed;
            # the STAR keeps every doc reachable from the min id but
            # the exact-recall theorem no longer covers pairs routed
            # ONLY through this key (round-4 review finding: the
            # unbounded triu here could allocate ~80 GB in one task)
            logger.warning(
                "prefix_jaccard_candidates: prefix key shared by %d "
                "docs exceeds the %d-pair bound; emitting a star — "
                "exact recall degrades for pairs covered only by "
                "this key (run exact dedup first)",
                m, MAX_PAIRS_PER_GROUP)
            return pa.table({
                "doc_a": pa.array(np.full(m - 1, ids[0])),
                "doc_b": pa.array(ids[1:])})
        ia, ib = np.triu_indices(m, k=1)
        return pa.table({"doc_a": pa.array(ids[ia]),
                         "doc_b": pa.array(ids[ib])})

    pairs = keep_multi_ds(rows) \
        .groupby("skey").map_groups(group_pairs, batch_format="pyarrow")
    return _combine_partials(
        pairs, keys=["doc_a", "doc_b"], aggs=[],
        empty_schema=pa.schema([("doc_a", pa.int64()),
                                ("doc_b", pa.int64())]))


# Candidate sets at or below this size are verified with the driver
# kernel (no shuffle — the right call at query scale); above it the
# pairs are hash-partitioned and verified inside map_groups with the
# SAME exact-shingle kernel. Tests force the distributed path by
# monkeypatching to 0 and assert byte parity with the driver kernel.
PAIR_VERIFY_DRIVER_MAX_PAIRS = 5_000

# Target pairs per verification partition: the adaptive floor that
# keeps per-partition text volume bounded as the candidate set grows
# (a fixed partition count would concentrate 100-TB candidate volumes
# onto 32 workers; extra partitions only add tasks).
PAIR_VERIFY_PAIRS_PER_PARTITION = 200_000


def _verify_pairs_table(sets: dict, doc_a, doc_b, threshold_pm: int
                        ) -> tuple[list, list, list]:
    """Shared exact-verification kernel: true-string-shingle Jaccard
    for each (doc_a, doc_b), kept at >= threshold_pm. Used verbatim by
    the driver path and inside every map_groups partition."""
    out_a, out_b, out_j = [], [], []
    for a, b in zip(doc_a, doc_b):
        sa, sb = sets.get(a), sets.get(b)
        if sa is None or sb is None:
            continue
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        if union and inter * 1000 >= threshold_pm * union:
            out_a.append(a)
            out_b.append(b)
            out_j.append(round(inter / union, 6))
    return out_a, out_b, out_j


def char_shingle_set(text: str, width: int = 5) -> set:
    """TRUE char-shingle set — the ngram_jaccard universe (short texts
    keep one possibly-truncated shingle, mirroring its max(.., 1))."""
    return {text[i:i + width]
            for i in range(max(len(text) - width + 1, 1))}


def verify_jaccard_pairs(docs_ds, cand: pa.Table, threshold_pm: int,
                         width: int = 3, id_col: str = "doc_id",
                         text_col: str = "text",
                         num_partitions: int = 32,
                         shingle: str = "word") -> pa.Table:
    """EXACT verification of candidate (doc_a, doc_b) pairs with true
    string shingles — returns the pairs at Jaccard >= threshold_pm
    with their exact similarity, sorted by (doc_a, doc_b).

    Scale shape (the round-3 fix: no driver-side per-pair loop over
    the full candidate set): pairs are hash-partitioned by a pair
    mix, each involved document's text is ROUTED to exactly the
    partitions whose pairs reference it (a keys-only doc→partition
    map broadcast via ray.put, np.repeat expansion inside
    map_batches — a doc in k partitions ships k copies of its text,
    bounded by its candidate degree), and verification runs inside
    ``groupby(part).map_groups`` with the same exact-shingle kernel.
    Driver materializes only the (small) verified output. Candidate
    sets at or below PAIR_VERIFY_DRIVER_MAX_PAIRS skip the shuffle
    and verify on the driver — identical kernel, pytest-pinned
    parity. ``shingle`` picks the verification universe: "word"
    (word_shingle_set — the prefix-filter queries) or "char"
    (char_shingle_set — the MinHash family's ngram_jaccard)."""
    import ray

    from .aggregate import _to_arrow

    empty = pa.table({"doc_a": pa.array([], type=pa.int64()),
                      "doc_b": pa.array([], type=pa.int64()),
                      "jaccard": pa.array([], type=pa.float64())})
    if cand.num_rows == 0:
        return empty
    shingle_fn = (word_shingle_set if shingle == "word"
                  else char_shingle_set)
    a = np.asarray(cand.column("doc_a"), dtype=np.int64)
    b = np.asarray(cand.column("doc_b"), dtype=np.int64)
    wanted = np.unique(np.concatenate([a, b]))

    if cand.num_rows <= PAIR_VERIFY_DRIVER_MAX_PAIRS:
        w = pa.array(wanted)

        def keep(t: pa.Table) -> pa.Table:
            return t.select([id_col, text_col]).filter(
                pc.is_in(t.column(id_col), value_set=w))

        docs = _to_arrow(docs_ds.map_batches(keep,
                                             batch_format="pyarrow"))
        sets = {i: shingle_fn(s, width)
                for i, s in zip(docs.column(id_col).to_pylist(),
                                docs.column(text_col).to_pylist())}
        order = np.lexsort((b, a))
        out_a, out_b, out_j = _verify_pairs_table(
            sets, a[order].tolist(), b[order].tolist(), threshold_pm)
        return pa.table({"doc_a": pa.array(out_a, type=pa.int64()),
                         "doc_b": pa.array(out_b, type=pa.int64()),
                         "jaccard": pa.array(out_j,
                                             type=pa.float64())})

    # --- distributed path ---
    num_partitions = max(num_partitions,
                         cand.num_rows
                         // PAIR_VERIFY_PAIRS_PER_PARTITION)
    h = (a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         + b.astype(np.uint64))
    h = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    part = ((h ^ (h >> np.uint64(33)))
            % np.uint64(num_partitions)).astype(np.int64)

    # keys-only doc -> partitions map (sorted docs + CSR offsets)
    md = np.concatenate([a, b])
    mp = np.concatenate([part, part])
    order = np.lexsort((mp, md))
    md, mp = md[order], mp[order]
    if len(md):
        first = np.concatenate([[True], (md[1:] != md[:-1])
                                | (mp[1:] != mp[:-1])])
        md, mp = md[first], mp[first]
    m_doc, starts = np.unique(md, return_index=True)
    m_off = np.concatenate([starts, [len(mp)]]).astype(np.int64)
    ref = ray.put((m_doc, m_off, mp))

    def route(t: pa.Table) -> pa.Table:
        m_doc_, m_off_, m_part_ = ray.get(ref)
        ids = np.asarray(t.column(id_col), dtype=np.int64)
        pos = np.searchsorted(m_doc_, ids)
        pos_c = np.minimum(pos, len(m_doc_) - 1)
        valid = m_doc_[pos_c] == ids
        idx = pos_c[valid]
        s, e = m_off_[idx], m_off_[idx + 1]
        counts = e - s
        total = int(counts.sum())
        if total == 0:
            return pa.table({
                "part": pa.array([], pa.int64()),
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "text": pa.array([], pa.string())})
        cum = np.cumsum(counts)
        flat = (np.arange(total, dtype=np.int64)
                - np.repeat(cum - counts, counts)
                + np.repeat(s, counts))
        row_rep = np.repeat(np.nonzero(valid)[0], counts)
        return pa.table({
            "part": pa.array(m_part_[flat]),
            "doc_a": pa.array(ids[row_rep]),
            "doc_b": pa.array(np.full(total, -1, np.int64)),
            "text": t.column(text_col).take(
                pa.array(row_rep, type=pa.int64())),
        })

    routed_docs = docs_ds.map_batches(route, batch_format="pyarrow")
    pair_rows = ray.data.from_arrow(pa.table({
        "part": pa.array(part),
        "doc_a": pa.array(a),
        "doc_b": pa.array(b),
        "text": pa.array([""] * len(a), pa.string()),
    }))

    def verify_group(g: pa.Table) -> pa.Table:
        db = np.asarray(g.column("doc_b"), dtype=np.int64)
        da = np.asarray(g.column("doc_a"), dtype=np.int64)
        texts = g.column("text").combine_chunks()
        is_doc = db < 0
        sets = {int(da[i]): shingle_fn(texts[i].as_py(), width)
                for i in np.nonzero(is_doc)[0]}
        pi = np.nonzero(~is_doc)[0]
        out_a, out_b, out_j = _verify_pairs_table(
            sets, da[pi].tolist(), db[pi].tolist(), threshold_pm)
        return pa.table({"doc_a": pa.array(out_a, type=pa.int64()),
                         "doc_b": pa.array(out_b, type=pa.int64()),
                         "jaccard": pa.array(out_j,
                                             type=pa.float64())})

    res = _to_arrow(routed_docs.union(pair_rows).groupby("part")
                    .map_groups(verify_group, batch_format="pyarrow"))
    if res.num_rows == 0:
        return empty
    return res.sort_by([("doc_a", "ascending"),
                        ("doc_b", "ascending")])


def word_shingle_set(text: str, width: int = 3) -> set:
    """TRUE string shingle set (the verification universe — hash-free,
    so candidate verification is exact even under hash collisions).
    Mirrors the oracle: lowercase, split on non-letters, drop
    empties, join ``width`` consecutive words with single spaces."""
    import re

    ws = [w for w in re.split(r"[^a-z]+", text.lower()) if w]
    return {" ".join(ws[i:i + width])
            for i in range(len(ws) - width + 1)}
