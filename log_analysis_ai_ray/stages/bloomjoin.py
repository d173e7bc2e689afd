"""Bloom-filter semi-join pruning for big-big joins.

At 100 TB the probe side of a selective join is the expensive part:
a full hash shuffle moves every probe row even though most find no
match.  A Bloom filter built from the build side's keys and broadcast
to the probe side drops non-matching rows BEFORE the shuffle, shrinking
the exchange from |probe| to |matches| + fpp·|probe| (classic sideways
information passing; Bloom 1970).  Bloom filters admit false positives
— never false negatives — so an exact verification join over the
surviving rows makes the end result exact.

Scale shape:

- Build: per-block partials are the SET BIT POSITIONS of the block's
  distinct keys (k probes each, deduplicated) — positions OR-merge
  associatively and are far smaller than the m-bit bitmap while the
  key density is low; the driver folds them into one bitmap (a
  tree-reduce drop-in at extreme block counts).
- Broadcast: the merged bitmap goes to the object store ONCE via
  ``ray.put``; probe tasks dereference it zero-copy per batch.
- Probe: fully vectorized numpy — Kirsch-Mitzenmacher double hashing
  (two splitmix64 mixes give all k probe indices), gather + bit test.

Sizing: fpp ≈ (1 - e^(-k·n/m))^k; the defaults (m = 2^23 bits = 1 MiB,
k = 5) give fpp < 1e-6 up to n ≈ 200k distinct keys and degrade
gracefully — correctness never depends on fpp thanks to the verify
join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import aggregate as agg


def _column_to_u64(col) -> tuple[np.ndarray, np.ndarray]:
    """(uint64 key array, valid mask) for an integer or string Arrow
    column. Strings hash through polars' vectorized 64-bit hash (no
    Python per row); nulls are flagged invalid — a null key never
    matches, per join semantics. Hashes only need to agree between a
    build and its probes within one engine version, which they do (one
    pinned polars)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        import polars as pl

        keys = pl.from_arrow(col).hash(seed=7).to_numpy().astype(np.uint64)
    else:
        keys = np.asarray(col.cast(pa.int64()).fill_null(0),
                          dtype=np.int64).view(np.uint64)
    valid = ~np.asarray(col.is_null())
    return keys, valid

M_BITS_DEFAULT = 1 << 23
K_HASHES_DEFAULT = 5
M_BITS_MAX = 1 << 31


def m_bits_for(n_keys: int, bits_per_key: int = 16) -> int:
    """Bitmap size for ~``n_keys`` distinct keys: the next power of
    two at ``bits_per_key`` bits/key (fpp ≈ 1.4e-3 at k=5 and 16
    bits/key), clamped to [M_BITS_DEFAULT, M_BITS_MAX] (256 MiB). The
    cap is read at call time, like the exact-vs-Bloom decisions that
    compare against it. Past the cap the fpp degrades gracefully;
    callers must never depend on it for correctness (an exact
    semi-join or a singleton-can't-pair argument backs every use)."""
    need = max(int(n_keys), 1) * bits_per_key
    m = M_BITS_DEFAULT
    while m < need and m < M_BITS_MAX:
        m <<= 1
    return m

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain PRNG mix)."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(30)
        x *= _C1
        x ^= x >> np.uint64(27)
        x *= _C2
        x ^= x >> np.uint64(31)
    return x


def _probe_positions(keys: np.ndarray, m_bits: int,
                     k_hashes: int) -> np.ndarray:
    """All k probe bit-positions for each key, shape (len(keys), k).
    h_i = h1 + i·h2 (Kirsch & Mitzenmacher 2006: two hashes suffice)."""
    x = keys.astype(np.int64).view(np.uint64)
    h1 = _splitmix64(x)
    with np.errstate(over="ignore"):
        h2 = _splitmix64(x + _GOLDEN) | np.uint64(1)  # odd → full cycle
        steps = np.arange(k_hashes, dtype=np.uint64)
        pos = h1[:, None] + steps[None, :] * h2[:, None]
    return (pos % np.uint64(m_bits)).astype(np.int64)


def bloom_from_keys(keys: np.ndarray, m_bits: int = M_BITS_DEFAULT,
                    k_hashes: int = K_HASHES_DEFAULT) -> np.ndarray:
    """Build an m_bits-bit Bloom filter (uint8 bitmap) from int keys."""
    bm = np.zeros(m_bits >> 3, dtype=np.uint8)
    if len(keys):
        pos = np.unique(_probe_positions(np.asarray(keys), m_bits,
                                         k_hashes).ravel())
        np.bitwise_or.at(bm, pos >> 3,
                         np.uint8(1) << (pos & 7).astype(np.uint8))
    return bm


def bloom_probe(bm: np.ndarray, keys: np.ndarray,
                k_hashes: int = K_HASHES_DEFAULT) -> np.ndarray:
    """Vectorized membership test: True where ALL k bits are set."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    m_bits = len(bm) << 3
    pos = _probe_positions(np.asarray(keys), m_bits, k_hashes)
    bits = (bm[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return bits.all(axis=1)


def bloom_build(ds, key_col: str, m_bits: int = M_BITS_DEFAULT,
                k_hashes: int = K_HASHES_DEFAULT) -> np.ndarray:
    """Distributed build: per-block partial (one row per block) →
    STREAMED driver OR-fold into the bitmap. A block's partial is its
    distinct keys' probe positions (uint64 blob) while that is the
    smaller representation, else the block's own m-bit bitmap — so no
    single partial exceeds the bitmap, and the driver folds partials
    one block at a time via iter_batches (never a content-proportional
    _to_arrow collection; round-5 review finding)."""
    bm_bytes = m_bits >> 3

    def partial(t: pa.Table) -> pa.Table:
        keys, valid = _column_to_u64(t.column(key_col))
        keys = np.unique(keys[valid])
        pos = np.unique(_probe_positions(keys, m_bits, k_hashes).ravel())
        if len(pos) * 8 >= bm_bytes:   # dense block: ship the bitmap
            pbm = np.zeros(bm_bytes, dtype=np.uint8)
            np.bitwise_or.at(pbm, pos >> 3,
                             np.uint8(1) << (pos & 7).astype(np.uint8))
            return pa.table({"kind": pa.array(["bm"]),
                             "pos": pa.array([pbm.tobytes()],
                                             type=pa.binary())})
        return pa.table({"kind": pa.array(["pos"]),
                         "pos": pa.array([pos.astype(np.uint64)
                                          .tobytes()],
                                         type=pa.binary())})

    bm = np.zeros(bm_bytes, dtype=np.uint8)
    parts = ds.map_batches(partial, batch_format="pyarrow")
    for t in parts.iter_batches(batch_size=None,
                                batch_format="pyarrow"):
        if "pos" not in t.column_names:
            continue
        for kind, blob in zip(t.column("kind").to_pylist(),
                              t.column("pos").to_pylist()):
            if kind == "bm":
                np.bitwise_or(bm, np.frombuffer(blob, dtype=np.uint8),
                              out=bm)
            else:
                pos = np.frombuffer(blob, dtype=np.uint64) \
                    .astype(np.int64)
                np.bitwise_or.at(bm, pos >> 3,
                                 np.uint8(1) << (pos & 7)
                                 .astype(np.uint8))
    return bm


def bloom_semi_join(left_ds, keys_ds, *, left_key: str, right_key: str,
                    n_keys: int, left_schema: pa.Schema,
                    num_partitions: int = 64,
                    concurrency=(1, 16)):
    """The at-scale keep-filter shape (used by the MinHash distributed
    census and the curation keep-list): a broadcast Bloom prefilter
    sized for ``n_keys`` drops most non-members before any exchange,
    then an exact partitioned semi-join against the (unique-per-key)
    ``keys_ds`` Dataset removes the false positives. Exact output;
    nothing key-proportional lands on the driver."""
    import ray

    from .joins import partitioned_lookup_join

    if n_keys * 16 > M_BITS_MAX:
        import logging

        logging.getLogger(__name__).warning(
            "bloom_semi_join: %d keys exceed the %d-bit bitmap cap "
            "(%.1f bits/key) — the prefilter's fpp degrades and more "
            "rows reach the exact semi-join (output unaffected)",
            n_keys, M_BITS_MAX, M_BITS_MAX / max(n_keys, 1))
    bm_ref = ray.put(bloom_build(keys_ds, right_key,
                                 m_bits=m_bits_for(n_keys)))
    pre = left_ds.map_batches(
        BloomFilterStage, fn_constructor_args=(bm_ref, left_key),
        concurrency=concurrency, num_cpus=0.5, batch_format="pyarrow")
    right_type = left_schema.field(left_key).type \
        if left_key in left_schema.names else pa.int64()
    return partitioned_lookup_join(
        pre, keys_ds, left_key=left_key, right_key=right_key,
        take_cols=[], num_partitions=num_partitions,
        left_schema=left_schema,
        right_schema=pa.schema([(right_key, right_type)])), bm_ref


class BloomFilterStage:
    """map_batches stage: keep rows whose ``key_col`` passes the
    broadcast Bloom filter.  Pass the bitmap as a ``ray.ObjectRef``
    (``ray.put`` once); it is dereferenced zero-copy per actor/task."""

    def __init__(self, bitmap_ref, key_col: str,
                 k_hashes: int = K_HASHES_DEFAULT):
        import ray
        self.bm = (ray.get(bitmap_ref)
                   if isinstance(bitmap_ref, ray.ObjectRef)
                   else bitmap_ref)
        self.key_col = key_col
        self.k_hashes = k_hashes

    def __call__(self, t: pa.Table) -> pa.Table:
        keys, valid = _column_to_u64(t.column(self.key_col))
        hit = bloom_probe(self.bm, keys, self.k_hashes) & valid
        return t.filter(pa.array(hit))
