"""Text analysis operators for training-data pipelines: language ID,
quality features, token counting, document fingerprinting.

All per-document math is vectorized (Arrow count_substring_regex /
numpy over flat byte buffers); no reference analog exists for these —
they extend the engine for large-scale corpus curation (see task brief)
using the same batch-stage idioms as the parse family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Tiny per-language stopword profiles (n-gram/stopword heuristic).
# Word-boundary RE2 alternations — identical strings usable in DuckDB.
LANG_PATTERNS: dict[str, str] = {
    "en": r"\b(the|and|of|to|in|is|that|for|with|was)\b",
    "de": r"\b(der|die|das|und|ist|nicht|mit|ein|eine|zu)\b",
    "fr": r"\b(le|la|les|et|est|une|dans|pour|que|des)\b",
    "es": r"\b(el|la|los|las|es|una|para|con|por|del)\b",
}
LANG_ORDER = ("en", "de", "fr", "es")  # deterministic tie-break order


def langid_features(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword-hit counts per language + argmax prediction.

    pred_lang = first language (in LANG_ORDER) achieving the max count,
    'und' when all counts are zero — a deterministic rule that the SQL
    oracle mirrors with a CASE chain.
    """
    text = pc.utf8_lower(batch.column(text_col))
    counts = {}
    for lang in LANG_ORDER:
        counts[lang] = np.asarray(
            pc.count_substring_regex(text, LANG_PATTERNS[lang]).cast(pa.int64()))
    stacked = np.stack([counts[lang] for lang in LANG_ORDER])
    best = np.argmax(stacked, axis=0)  # first max wins (np.argmax semantics)
    all_zero = stacked.max(axis=0) == 0
    langs = np.array(LANG_ORDER, dtype=object)
    pred = np.where(all_zero, "und", langs[best])

    out = batch.select([c for c in ("doc_id", "url") if c in batch.column_names])
    for lang in LANG_ORDER:
        out = out.append_column(f"c_{lang}",
                                pa.array(counts[lang], type=pa.int64()))
    return out.append_column("pred_lang", pa.array(pred, type=pa.string()))


def oracle_langid_sql(table: str = "documents") -> str:
    cols = ",\n       ".join(
        f"len(regexp_extract_all(lower(text), '{LANG_PATTERNS[lang]}')) AS c_{lang}"
        for lang in LANG_ORDER)
    # first-max-wins CASE chain, identical to np.argmax over LANG_ORDER
    conds = []
    for i, lang in enumerate(LANG_ORDER):
        ge = " AND ".join(f"c_{lang} >= c_{other}"
                          for other in LANG_ORDER[i + 1:]) or "TRUE"
        gt_prev = " AND ".join(f"c_{prev} < c_{lang}"
                               for prev in LANG_ORDER[:i]) or "TRUE"
        conds.append(f"WHEN {ge} AND {gt_prev} THEN '{lang}'")
    case = ("CASE WHEN c_en = 0 AND c_de = 0 AND c_fr = 0 AND c_es = 0 "
            "THEN 'und' " + " ".join(conds) + " ELSE 'und' END")
    return (f"WITH f AS (SELECT doc_id,\n       {cols}\nFROM {table})\n"
            f"SELECT doc_id, c_en, c_de, c_fr, c_es, {case} AS pred_lang FROM f")


def quality_features(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality-scoring features: lengths and character-class ratios
    scaled to exact integers (per-mille) for oracle-stable comparison."""
    text = batch.column(text_col)
    n_chars = pc.utf8_length(text).cast(pa.int64())
    n_tokens = pc.count_substring_regex(text, r"\S+").cast(pa.int64())
    n_alpha = pc.count_substring_regex(text, r"[A-Za-z]").cast(pa.int64())
    n_space = pc.count_substring_regex(text, r"\s").cast(pa.int64())
    denom = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
    alpha_pm = pc.cast(pc.divide(pc.multiply(n_alpha, 1000), denom), pa.int64())
    space_pm = pc.cast(pc.divide(pc.multiply(n_space, 1000), denom), pa.int64())
    out = batch.select([c for c in ("doc_id", "url") if c in batch.column_names])
    out = out.append_column("n_chars", n_chars)
    out = out.append_column("n_tokens", n_tokens)
    out = out.append_column("alpha_pm", alpha_pm)
    return out.append_column("space_pm", space_pm)


QUALITY_SQL_BODY = """
SELECT doc_id,
       length(text) AS n_chars,
       len(regexp_extract_all(text, '\\S+')) AS n_tokens,
       CAST((len(regexp_extract_all(text, '[A-Za-z]')) * 1000)
            // greatest(length(text), 1) AS BIGINT) AS alpha_pm,
       CAST((len(regexp_extract_all(text, '\\s')) * 1000)
            // greatest(length(text), 1) AS BIGINT) AS space_pm
FROM documents
"""


# BPE-ish pre-tokenizer: letter runs | single digits | punctuation marks.
SUBTOKEN_PATTERN = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]"


def subtoken_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    text = batch.column(text_col)
    out = batch.select([c for c in ("doc_id", "url") if c in batch.column_names])
    out = out.append_column(
        "n_words", pc.count_substring_regex(text, r"\S+").cast(pa.int64()))
    return out.append_column(
        "n_subtokens",
        pc.count_substring_regex(text, SUBTOKEN_PATTERN).cast(pa.int64()))


SUBTOKEN_SQL = f"""
SELECT doc_id,
       len(regexp_extract_all(text, '\\S+')) AS n_words,
       len(regexp_extract_all(text, '{SUBTOKEN_PATTERN}')) AS n_subtokens
FROM documents
"""


# ---------------------------------------------------------------------------
# Rolling-hash fingerprint (functions.hashing.rolling_fingerprint spec),
# vectorized over a flat byte buffer per batch.
# ---------------------------------------------------------------------------

FP_WINDOW = 8
FP_BASE = np.uint64(257)


def _flat_bytes(text_array) -> tuple[np.ndarray, np.ndarray]:
    """UTF-8 bytes of all docs concatenated + offsets (zero-copy from
    Arrow's own buffer layout)."""
    arr = text_array.combine_chunks() if isinstance(
        text_array, pa.ChunkedArray) else text_array
    arr = arr.cast(pa.large_binary())
    buf = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    return buf, offsets


def fingerprints(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """min-of-rolling-hash fingerprint per document (content identity
    robust to block boundaries). Matches functions.hashing.rolling_fingerprint."""
    import hashlib

    buf, offsets = _flat_bytes(batch.column(text_col))
    n = len(offsets) - 1
    lens = offsets[1:] - offsets[:-1]

    fps = np.empty(n, dtype=np.uint64)
    if len(buf) >= FP_WINDOW:
        # rolling hash over every window in the flat buffer
        h = np.zeros(len(buf) - FP_WINDOW + 1, dtype=np.uint64)
        b = buf.astype(np.uint64)
        for k in range(FP_WINDOW):
            h = h * FP_BASE + b[k:len(b) - FP_WINDOW + 1 + k]
    else:
        h = np.empty(0, dtype=np.uint64)

    # per-doc window-min via compact-gather + one segment-reduce (the
    # same minimum.reduceat discipline as minhash_signatures — the flat
    # hash array contains cross-document windows that must be excluded
    # before reducing); only sub-window docs fall back to per-doc md5
    long_doc = lens >= FP_WINDOW
    if long_doc.any():
        starts = offsets[:-1][long_doc]
        seg_len = (lens[long_doc] - FP_WINDOW + 1).astype(np.int64)
        total = int(seg_len.sum())
        vidx = np.repeat(starts, seg_len) + (
            np.arange(total)
            - np.repeat(np.cumsum(seg_len) - seg_len, seg_len))
        fps[long_doc] = np.minimum.reduceat(
            h[vidx], np.cumsum(seg_len) - seg_len)
    for i in np.flatnonzero(~long_doc):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        fps[i] = np.uint64(int.from_bytes(
            hashlib.md5(buf[lo:hi].tobytes()).digest()[:8], "big"))

    out = batch.select([c for c in ("doc_id", "url") if c in batch.column_names])
    return out.append_column(
        "fingerprint",
        pa.array([format(int(x), "016x") for x in fps], type=pa.string()))


def hash_ngram_vectors(text_array, dim: int = 64, n: int = 3) -> np.ndarray:
    """Deterministic char-n-gram hashing vectors (the no-external-model
    template featurizer backing template semantic search; reference
    embeds templates via an API model, python/logai_cpp/embeddings.py:12-138
    — here the feature space is hashed n-gram counts, L2-normalized).
    Returns an (n_docs, dim) float32 matrix; empty/short docs → zero."""
    from .dedup import shingle_hashes

    h, (starts, ends) = shingle_hashes(text_array, width=n)
    n_docs = len(starts)
    seg_len = (ends - starts).astype(np.int64)
    total = int(seg_len.sum())
    if total == 0:
        return np.zeros((n_docs, dim), dtype=np.float32)
    vidx = np.repeat(starts, seg_len) + (
        np.arange(total) - np.repeat(np.cumsum(seg_len) - seg_len, seg_len))
    doc_idx = np.repeat(np.arange(n_docs), seg_len)
    slot = (h[vidx] % np.uint64(dim)).astype(np.int64)
    flat = np.bincount(doc_idx * dim + slot, minlength=n_docs * dim)
    M = flat.reshape(n_docs, dim).astype(np.float32)
    norm = np.linalg.norm(M, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return M / norm


# ---------------------------------------------------------------------------
# Hashed char-trigram language-model scoring (CCNet-style quality
# signal: documents whose character statistics diverge from the corpus
# model score high bits/trigram — gibberish, encoding junk, foreign
# scripts; boilerplate scores low). The model is a bounded 2^16-bucket
# hashed count table: mergeable partial counts (one small table per
# block, no raw trigrams shuffled), broadcast once for the scoring
# pass. Two passes over the text by design, like ``flagship.fit_mapping``
# then ``build_parsed``.
# ---------------------------------------------------------------------------

LM_BUCKETS = 1 << 16
_LM_BASE = np.uint64(1099511628211)


def trigram_bucket_ids(text_array) -> tuple[np.ndarray, np.ndarray]:
    """(flat bucket ids, per-doc trigram counts) — rolling-hash char
    trigrams folded into LM_BUCKETS, cross-document windows excluded
    (same compact-gather discipline as fingerprints)."""
    buf, offsets = _flat_bytes(text_array)
    lens = offsets[1:] - offsets[:-1]
    if len(buf) >= 3:
        h = np.zeros(len(buf) - 2, dtype=np.uint64)
        b = buf.astype(np.uint64)
        for k in range(3):
            h = h * _LM_BASE + b[k:len(b) - 2 + k]
    else:
        h = np.empty(0, dtype=np.uint64)
    seg_len = np.maximum(lens - 2, 0).astype(np.int64)
    total = int(seg_len.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), seg_len
    starts = offsets[:-1][seg_len > 0]
    sl = seg_len[seg_len > 0]
    vidx = np.repeat(starts, sl) + (
        np.arange(total) - np.repeat(np.cumsum(sl) - sl, sl))
    buckets = (h[vidx] % np.uint64(LM_BUCKETS)).astype(np.int64)
    return buckets, seg_len


def lm_count_partial(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-block hashed-trigram counts (≤ LM_BUCKETS rows per block)."""
    buckets, _ = trigram_bucket_ids(batch.column(text_col))
    counts = np.bincount(buckets, minlength=LM_BUCKETS)
    nz = np.flatnonzero(counts)
    return pa.table({
        "bucket": pa.array(nz, type=pa.int64()),
        "cnt": pa.array(counts[nz], type=pa.int64()),
    })


def train_lm(ds, text_col: str = "text") -> np.ndarray:
    """Corpus trigram model: merged bucket counts (int64[LM_BUCKETS])."""
    from .aggregate import _combine_partials

    merged = _combine_partials(
        ds.map_batches(lambda t: lm_count_partial(t, text_col),
                       batch_format="pyarrow"),
        keys=["bucket"], aggs=[("cnt", "sum")],
        empty_schema=pa.schema([("bucket", pa.int64()),
                                ("cnt", pa.int64())]))
    model = np.zeros(LM_BUCKETS, dtype=np.int64)
    model[np.asarray(merged.column("bucket"))] = \
        np.asarray(merged.column("cnt"))
    return model


class LmScoreStage:
    """map_batches stage: mean bits/trigram per doc under the broadcast
    add-one-smoothed model. Per-doc sums run as one segment reduce in
    doc order, so scores are block-structure invariant."""

    def __init__(self, model_ref, text_col: str = "text",
                 id_col: str = "doc_id"):
        import ray

        model = (ray.get(model_ref)
                 if isinstance(model_ref, ray.ObjectRef) else model_ref)
        total = model.sum()
        # precomputed per-bucket bits: -log2((cnt+1)/(total+B))
        self.bits = -np.log2((model + 1.0) / float(total + LM_BUCKETS))
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        buckets, seg_len = trigram_bucket_ids(batch.column(self.text_col))
        per_doc = np.zeros(batch.num_rows, dtype=np.float64)
        nz = seg_len > 0
        if buckets.size:
            seg_starts = (np.cumsum(seg_len) - seg_len)[nz]
            per_doc[nz] = np.add.reduceat(self.bits[buckets], seg_starts) \
                / seg_len[nz]
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "n_trigrams": pa.array(seg_len, type=pa.int64()),
            "bits_per_trigram": pa.array(np.round(per_doc, 4),
                                         type=pa.float64()),
        })


def doc_lm_bits(ds, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """Two-pass LM scoring: distributed mergeable counts → broadcast
    model → vectorized per-doc bits."""
    import ray

    from .aggregate import _to_arrow

    model = train_lm(ds, text_col)
    ref = ray.put(model)
    scored = ds.map_batches(
        LmScoreStage, fn_constructor_args=(ref,),
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        concurrency=2, num_cpus=0.5, batch_format="pyarrow")
    return _to_arrow(scored).sort_by(id_col)


def token_chunks(t: pa.Table, *, text_col: str = "text",
                 id_col: str = "doc_id", width: int = 32,
                 stride: int = 24) -> pa.Table:
    """Fixed-token-window chunking with overlap (training-prep:
    context-window splitting before packing). Pure per-batch map,
    fully vectorized: token offsets from list_value_length cumsum,
    chunk starts by repeat/arange arithmetic, first/last token
    gathered with one ``take`` on the flattened token array. One
    output row per chunk: (id, chunk_idx, n_chunk_tokens,
    first_token, last_token). Full-coverage guarantee (every token in
    some chunk) requires ``width >= stride``; property-tested."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(t.column(text_col).combine_chunks(),
                            pattern=" ")
    # null text → 0 tokens → 0 chunks, deterministically (the NaN →
    # int64 cast emitted a RuntimeWarning and undefined values;
    # DuckDB's string_split(NULL) likewise yields no chunk rows).
    # Tokenization is single-space split BY CONTRACT — the oracle
    # mirrors it exactly; multi-space runs produce empty tokens on
    # both engines.
    lens = pc.list_value_length(toks).fill_null(0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    ids = t.column(id_col).combine_chunks()
    n_chunks = np.where(lens > 0, (lens - 1) // stride + 1, 0)
    doc_rep = np.repeat(np.arange(len(lens)), n_chunks)
    total = int(n_chunks.sum())
    starts_of = np.concatenate([[0], np.cumsum(n_chunks)])[:-1]
    chunk_idx = np.arange(total) - np.repeat(starts_of, n_chunks)
    s = chunk_idx * stride
    end = np.minimum(s + width, lens[doc_rep])
    take_rep = pa.array(doc_rep, type=pa.int64())
    first = flat.take(pa.array(offsets[doc_rep] + s, type=pa.int64()))
    last = flat.take(pa.array(offsets[doc_rep] + end - 1,
                              type=pa.int64()))
    return pa.table({
        id_col: ids.take(take_rep),
        "chunk_idx": pa.array(chunk_idx),
        "n_chunk_tokens": pa.array(end - s),
        "first_token": first,
        "last_token": last,
    })
