"""Dedup family: exact-hash, MinHash+LSH (verified against exact
n-gram Jaccard), SimHash."""

import numpy as np
import pyarrow as pa
import pytest

from log_analysis_ai_ray.stages import dedup


def _docs_table(texts, ids=None):
    ids = ids or list(range(len(texts)))
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


def test_minhash_identical_docs_full_match():
    t = _docs_table(["the quick brown fox jumps over the lazy dog",
                     "the quick brown fox jumps over the lazy dog"])
    sig = dedup.minhash_signatures(t["text"])
    assert (sig[0] == sig[1]).all()


def test_minhash_estimates_jaccard():
    a = "the quick brown fox jumps over the lazy dog " * 4
    b = a.replace("lazy", "busy")
    c = "completely different content with no overlap at all whatsoever"
    t = _docs_table([a, b, c])
    sig = dedup.minhash_signatures(t["text"], num_perm=128)
    est_ab = (sig[0] == sig[1]).mean()
    est_ac = (sig[0] == sig[2]).mean()
    true_ab = dedup.ngram_jaccard(a, b)
    assert abs(est_ab - true_ab) < 0.15
    assert est_ac < 0.1


def test_minhash_segment_isolation():
    """Signatures must not leak across document boundaries (the flat
    rolling-hash buffer contains cross-doc windows that are excluded)."""
    t1 = _docs_table(["aaaaaaaa", "zzzzzzzz"])
    t2 = _docs_table(["aaaaaaaa", "qqqq", "zzzzzzzz"], ids=[0, 5, 9])
    s1 = dedup.minhash_signatures(t1["text"])
    s2 = dedup.minhash_signatures(t2["text"])
    assert (s1[0] == s2[0]).all()
    assert (s1[1] == s2[2]).all()


def test_minhash_short_doc_fallback():
    # docs shorter than the shingle width hash their raw bytes: only
    # byte-identical short docs share a signature (ADVICE r1 — an
    # all-max sentinel made every short-doc pair a false near-dup)
    t = _docs_table(["abc", "abd", "abc", "the quick brown fox"])
    sig = dedup.minhash_signatures(t["text"], width=5)
    assert (sig[0] == sig[0][0]).all()  # replicated single hash
    assert not (sig[0] == sig[1]).all()  # different short docs differ
    assert (sig[0] == sig[2]).all()  # identical short docs match
    assert not (sig[3] == sig[3][0]).all()  # long doc: real minhash


def test_simhash_close_for_similar():
    a = "the quick brown fox jumps over the lazy dog " * 3
    b = a.replace("dog", "cat")
    c = "entirely unrelated words appear here nothing shared truly"
    sh = dedup.simhash64(pa.array([a, b, c]))
    def ham(x, y):
        return bin(int(x) ^ int(y)).count("1")
    assert ham(sh[0], sh[1]) < ham(sh[0], sh[2])
    assert ham(sh[0], sh[1]) <= 12


def test_exact_dedup_by_hash(ray_session):
    import ray.data
    t = _docs_table(["dup", "dup", "unique one", "dup", "other"],
                    ids=[10, 3, 7, 99, 1])
    ds = ray.data.from_arrow(t)
    out = dedup.exact_dedup_by_hash(ds)
    rows = {r["keep_id"]: r["n_copies"]
            for r in out.to_pylist()}
    assert rows == {3: 3, 7: 1, 1: 1}


def test_minhash_near_dups_finds_seeded_pairs(ray_session):
    import ray.data
    base = "common crawl style web page text with many shared tokens " * 5
    texts, ids = [], []
    for i in range(20):
        texts.append(f"unrelated document number {i} " +
                     f"with its own content {i * 7} " * 3)
        ids.append(100 + i)
    texts += [base, base.replace("many", "several"), base]
    ids += [1, 2, 3]
    ds = ray.data.from_arrow(_docs_table(texts, ids))
    pairs = dedup.minhash_near_dups(ds, threshold=0.5)
    got = {(a, b) for a, b in zip(pairs["doc_a"].to_pylist(),
                                  pairs["doc_b"].to_pylist())}
    assert (1, 3) in got  # identical pair must be found
    assert (1, 2) in got or (2, 3) in got  # near pair
    # verify estimates against exact jaccard
    tx = dict(zip(ids, texts))
    for a, b, e in zip(pairs["doc_a"].to_pylist(),
                       pairs["doc_b"].to_pylist(),
                       pairs["est_jaccard"].to_pylist()):
        assert abs(e - dedup.ngram_jaccard(tx[a], tx[b])) < 0.25


def test_minhash_pairs_deterministic_across_block_structure(ray_session):
    import ray.data
    base = "repeated shared content tokens for near duplicate testing " * 4
    texts = [f"doc {i} filler content {i*3} " * 4 for i in range(30)]
    texts += [base, base + " tail", base]
    ids = list(range(len(texts)))
    t = _docs_table(texts, ids)
    outs = []
    for nb in (1, 6):
        ds = ray.data.from_arrow(t).repartition(nb)
        outs.append(dedup.minhash_near_dups(ds))
    assert outs[0].equals(outs[1])


def test_curation_near_dup_variant(ray_session):
    """The full curation cascade with MinHash near-dup removal drops the
    higher-id member of each near-dup pair."""
    import ray.data
    from log_analysis_ai_ray.pipelines.curation import curate

    base = ("the quick brown fox jumps over the lazy dog and then "
            "the dog wakes up and the fox runs away quickly ") * 3
    texts = [base, base + " extra tail", "the cat sat on the mat and that was that for the day",
             "der hund und die katze sind nicht da"]
    t = _docs_table(texts, ids=[1, 2, 3, 4])
    ds = ray.data.from_arrow(t)
    kept = curate(ds, drop_near_dups=True).take_all()
    ids = sorted(r["doc_id"] for r in kept)
    assert 1 in ids          # lower id of the near-dup pair kept
    assert 2 not in ids      # near-dup dropped
    assert 3 in ids          # distinct English doc kept
    assert 4 not in ids      # German doc filtered by langid


def test_grouped_bucket_pairs_matches_naive_loop():
    """The vectorized signature-grouped pairing must emit exactly the
    pair set of the naive O(n²) per-pair loop it replaced."""
    rng = np.random.default_rng(7)
    n, perm = 40, 8
    # few distinct signatures → lots of identical-sig groups + cross hits
    vocab = rng.integers(0, 50, size=(6, perm)).astype(np.int64)
    sigs = vocab[rng.integers(0, len(vocab), size=n)]
    ids = rng.permutation(n).astype(np.int64)
    threshold = 0.4

    naive = set()
    for i in range(n):
        for j in range(n):
            if ids[i] < ids[j]:
                e = float((sigs[i] == sigs[j]).mean())
                if e >= threshold:
                    naive.add((int(ids[i]), int(ids[j]), e))

    a, b, e = dedup.grouped_bucket_pairs(ids, sigs, threshold)
    got = set(zip(a.tolist(), b.tolist(), e.tolist()))
    assert got == naive


def test_pathological_identical_bucket_bounded(ray_session):
    """10k byte-identical docs put every doc in every band bucket; the
    star cap must keep pairing linear (the old per-pair Python loop was
    ~800M iterations here). Connectivity to doc 0 must survive."""
    import time

    import ray.data

    n = 10_000
    text = "identical boilerplate document body shared by every row " * 3
    t = _docs_table([text] * n, ids=list(range(n)))
    start = time.monotonic()
    pairs = dedup.minhash_near_dups(
        ray.data.from_arrow(t).repartition(8), max_bucket=2048)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    # star emission: every doc connects to the group root (doc 0)
    a = np.asarray(pairs["doc_a"])
    b = np.asarray(pairs["doc_b"])
    touched = set(a.tolist()) | set(b.tolist())
    assert touched == set(range(n))
    assert (a[np.asarray(pairs["doc_a"]) == 0] == 0).all()
    assert set(b[a == 0].tolist()) == set(range(1, n))
    assert np.asarray(pairs["est_jaccard"]).min() == 1.0


def test_minhash_groupby_path_matches_task_path(ray_session, monkeypatch):
    """The distributed groupby pairing branch (candidate sets too big
    for the single-task path) must produce byte-identical pairs."""
    import ray.data

    base = "common crawl style web page text with many shared tokens " * 5
    texts = [f"doc {i} body {i * 13} " * 4 for i in range(40)]
    texts += [base, base.replace("many", "several"), base, base + " x"]
    ids = list(range(len(texts)))
    ds = ray.data.from_arrow(_docs_table(texts, ids)).repartition(6)
    expected = dedup.minhash_near_dups(ds, threshold=0.5)
    monkeypatch.setattr(dedup, "SINGLE_TASK_PAIR_MAX_ROWS", 0)
    forced = dedup.minhash_near_dups(ds, threshold=0.5)
    assert expected.equals(forced)

def test_minhash_keys_only_stage_emits_no_signatures():
    """The bucket-count pass materializes (band_key, doc_id) rows only
    (VERDICT r2: signatures must not ride the count materialization)."""
    stage = dedup.MinHashStage(include_sig=False)
    out = stage(_docs_table(["alpha beta gamma delta", "epsilon zeta eta"]))
    assert out.column_names == ["band_key", "doc_id"]
    full = dedup.MinHashStage()(_docs_table(["alpha beta gamma delta"]))
    assert "sig" in full.column_names
    # keys agree between the two stages (same seed/params)
    assert out.column("band_key").to_pylist()[:16] == \
        full.column("band_key").to_pylist()


def test_exact_dedup_distributed_final(ray_session, monkeypatch, tmp_path):
    """Past the driver merge bound the keep-list must be written as
    parquet and returned as a Dataset — never collected."""
    import pathlib

    import pyarrow.parquet as pq
    import ray.data

    from log_analysis_ai_ray.stages import aggregate

    t = _docs_table(["dup", "dup", "unique one", "dup", "other"],
                    ids=[10, 3, 7, 99, 1])
    ds = ray.data.from_arrow(t).repartition(3)
    expected = dedup.exact_dedup_by_hash(ds)

    monkeypatch.setattr(aggregate, "DRIVER_MERGE_MAX_ROWS", 0)
    with pytest.raises(ValueError, match="out_dir"):
        dedup.exact_dedup_by_hash(ds)
    out_dir = str(tmp_path / "keep")
    got_ds = dedup.exact_dedup_by_hash(ds, out_dir=out_dir)
    assert not isinstance(got_ds, pa.Table)

    def rows(tbl):
        return sorted(zip(tbl["content_hash"].to_pylist(),
                          tbl["keep_id"].to_pylist(),
                          tbl["n_copies"].to_pylist()))

    got = aggregate._to_arrow(got_ds)
    assert rows(got) == rows(expected)
    files = list(pathlib.Path(out_dir).rglob("*.parquet"))
    assert files
    assert rows(pq.read_table(out_dir)) == rows(expected)


def test_combine_partials_dataset_final_parity(ray_session, monkeypatch):
    """dataset_final=True on the distributed branch returns the merged
    Dataset with values identical to the driver-path table."""
    import ray.data

    from log_analysis_ai_ray.stages import aggregate

    t = pa.table({"k": pa.array([1, 2, 1, 3, 2, 1], type=pa.int64()),
                  "v": pa.array([10, 20, 30, 40, 50, 60], type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(3)

    def partial(tt: pa.Table) -> pa.Table:
        out = tt.group_by("k").aggregate([("v", "sum")])
        return out.rename_columns(["k", "v"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    table = aggregate._combine_partials(partials, keys=["k"],
                                        aggs=[("v", "sum")])
    monkeypatch.setattr(aggregate, "DRIVER_MERGE_MAX_ROWS", 0)
    partials2 = ds.map_batches(partial, batch_format="pyarrow")
    merged_ds = aggregate._combine_partials(partials2, keys=["k"],
                                            aggs=[("v", "sum")],
                                            dataset_final=True)
    assert not isinstance(merged_ds, pa.Table)
    got = aggregate._to_arrow(merged_ds)
    assert sorted(zip(got["k"].to_pylist(), got["v"].to_pylist())) == \
        sorted(zip(table["k"].to_pylist(), table["v"].to_pylist()))


def test_minhash_pair_recall_vs_exact_sf001(ray_session):
    """Recall gate at sf0.01 (fixed seeds): every planted near-dup pair
    with exact char-5-gram Jaccard >= 0.9 must be found, so the
    rows-only doc_minhash_pairs query stops meaning 'unmeasured'
    (VERDICT r2 #10)."""
    import itertools
    import os

    import pyarrow.parquet as pq
    import ray.data

    sf = "/root/testdata/sf0.01/documents.parquet"
    if not os.path.exists(sf):
        pytest.skip("sf0.01 testdata not present")
    t = pq.read_table(sf, columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    shingles = [frozenset(tx[i:i + 5] for i in range(max(len(tx) - 4, 1)))
                for tx in texts]
    truth = set()
    for i, j in itertools.combinations(range(len(ids)), 2):
        inter = len(shingles[i] & shingles[j])
        if not inter:
            continue
        if inter / len(shingles[i] | shingles[j]) >= 0.9:
            truth.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    assert len(truth) >= 20  # the corpus plants dups; guard the gate

    pairs = dedup.minhash_near_dups(ray.data.from_arrow(t),
                                    threshold=0.5)
    got = set(zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist()))
    assert truth <= got  # recall@exact>=0.9 == 1.0
    # and no wild false positives: every emitted pair really overlaps
    tx = dict(zip(ids, texts))
    for a, b, e in zip(pairs["doc_a"].to_pylist(),
                       pairs["doc_b"].to_pylist(),
                       pairs["est_jaccard"].to_pylist()):
        assert abs(e - dedup.ngram_jaccard(tx[a], tx[b])) < 0.25


def test_simhash_near_dups_exact_vs_bruteforce(ray_session):
    """Banded blocking must find EXACTLY the pairs within the Hamming
    bound (pigeonhole guarantee: hamming<=3 with 4 disjoint 16-bit
    bands implies at least one exact-match band)."""
    import itertools

    import ray.data

    rng = np.random.default_rng(31)
    texts = []
    base = ("shared boilerplate web text tokens appearing in many docs "
            "with slight variations across copies ") * 3
    for i in range(30):
        texts.append(f"doc {i} distinct content {i * 13} " * 5)
    texts += [base, base.replace("slight", "minor"),
              base.replace("many", "most"), base]
    ids = list(range(len(texts)))
    t = _docs_table(texts, ids)

    sh = dedup.simhash64(t["text"]).astype(np.uint64)
    expect = set()
    for i, j in itertools.combinations(range(len(ids)), 2):
        ham = bin(int(sh[i]) ^ int(sh[j])).count("1")
        if ham <= 3:
            expect.add((min(ids[i], ids[j]), max(ids[i], ids[j]), ham))
    assert expect  # planted variants must land within the bound

    pairs = dedup.simhash_near_dups(
        ray.data.from_arrow(t).repartition(4), max_hamming=3)
    got = set(zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist(),
                  pairs["hamming"].to_pylist()))
    assert got == expect

    # block-structure invariance
    pairs2 = dedup.simhash_near_dups(
        ray.data.from_arrow(t).repartition(9), max_hamming=3)
    assert pairs.equals(pairs2)


def test_simhash_near_dups_identical_flood_bounded(ray_session):
    """Identical docs share one simhash → one bucket; the sub-salt cap
    must keep the quadratic check bounded while identical hashes stay
    pairable."""
    import ray.data

    n = 2000
    t = _docs_table(["identical body of boilerplate text " * 4] * n,
                    ids=list(range(n)))
    pairs = dedup.simhash_near_dups(
        ray.data.from_arrow(t).repartition(6), max_hamming=0,
        max_bucket=256)
    # sub-bucketing splits the flood; pairs within each sub-bucket found
    assert pairs.num_rows > 0
    assert (np.asarray(pairs["hamming"]) == 0).all()


def test_winnowing_guarantee_and_pairs(ray_session):
    """Any two docs sharing a substring of >= window + k - 1 chars must
    pair (the winnowing guarantee); unrelated docs must not."""
    import ray.data

    shared = "this exact passage is copied verbatim between documents"
    texts = [
        f"doc zero prefix {0}. " + shared + " and a unique tail zero",
        "totally different content with no reuse at all here one",
        f"doc two leads differently. " + shared + " then ends uniquely",
        "another unrelated document body with its own words three",
    ]
    t = _docs_table(texts, ids=[10, 11, 12, 13])
    pairs = dedup.winnow_passage_pairs(
        ray.data.from_arrow(t).repartition(3), k=8, window=16)
    got = {(a, b) for a, b in zip(pairs["doc_a"].to_pylist(),
                                  pairs["doc_b"].to_pylist())}
    assert (10, 12) in got  # len(shared) = 55 >= 16+8-1
    assert not any({11, 13} & {a, b} for a, b in got
                   if (a, b) != (10, 12) and (a in (11, 13) or b in (11, 13)))

    # block-structure invariance
    pairs2 = dedup.winnow_passage_pairs(
        ray.data.from_arrow(t).repartition(1), k=8, window=16)
    assert pairs.equals(pairs2)


def test_winnowing_short_docs_and_empty(ray_session):
    import ray.data

    # 12-char docs: >= k hashes but < window → overall-min fallback;
    # sub-k and empty docs contribute no fingerprints at all (a
    # passage shorter than k chars is exact-dedup's job)
    t = _docs_table(["short thing!", "short thing!", "x", ""],
                    ids=[1, 2, 3, 4])
    pairs = dedup.winnow_passage_pairs(ray.data.from_arrow(t),
                                       k=8, window=16)
    got = {(a, b) for a, b in zip(pairs["doc_a"].to_pylist(),
                                  pairs["doc_b"].to_pylist())}
    assert (1, 2) in got
    assert not any(3 in p or 4 in p for p in got)


def test_normalize_text_canonical_form():
    import pyarrow as pa
    import pyarrow.compute as pc

    from log_analysis_ai_ray.stages.dedup import normalize_text

    # NFD "é" (e + combining acute) must collapse onto NFC "é"
    arr = pa.array(["Café  Bar", "café bar", " x\t\ny ", ""])
    out = normalize_text(arr).to_pylist()
    assert out[0] == out[1] == "café bar"
    assert out[2] == "x y"
    assert out[3] == ""
    # mixed whitespace (a lone tab, CRLF, a run of spaces, a single
    # space) ends as the plain \s+ → " " rewrite leaves it
    mixed = pa.array(["a\tb\r\nc   d e", "\t", "x\r\n\ty  z "])
    old = pc.utf8_trim_whitespace(pc.replace_substring_regex(
        pc.utf8_lower(mixed), r"\s+", " "))
    assert normalize_text(mixed).equals(old)


def test_pyarrow_nfc_noop_pinned():
    """normalize_text routes NFC through unicodedata because the pinned
    pyarrow's utf8_normalize does not COMPOSE. If this test ever fails,
    the workaround can be dropped."""
    import pyarrow as pa
    import pyarrow.compute as pc

    out = pc.utf8_normalize(pa.array(["é"]), form="NFC")
    assert out.to_pylist()[0] == "é"  # still decomposed (bug)


# ---------------------------------------------------------------------------
# prefix-filter (AllPairs) exact set-similarity join
# ---------------------------------------------------------------------------

def _brute_jaccard_pairs(texts, tau_pm, width=3):
    from log_analysis_ai_ray.stages.dedup import word_shingle_set

    sets = {i: word_shingle_set(t, width) for i, t in enumerate(texts)}
    out = []
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            sa, sb = sets[a], sets[b]
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            if union and inter * 1000 >= tau_pm * union:
                out.append((a, b))
    return sorted(out)


def test_prefix_filter_exact_recall(ray_session):
    """Candidates ⊇ all true pairs (theorem); verified output == brute
    force, including sub-width docs and an identical-doc pair."""
    import ray.data

    from log_analysis_ai_ray.stages.dedup import (
        prefix_jaccard_candidates, word_shingle_set)

    texts = [
        "the quick brown fox jumps over the lazy dog tonight",
        "the quick brown fox jumps over the lazy cat tonight",   # near-dup of 0
        "a completely different document about ray data engines",
        "a completely different document about ray data engines",  # exact dup of 2
        "tiny doc",                                               # < 3 words
        "quick brown fox jumps over the lazy dog tonight the",    # rotation of 0
        "unrelated text mentioning quick brown fox once only here",
    ]
    tau_pm = 500
    ds = ray.data.from_arrow(__import__("pyarrow").table({
        "doc_id": list(range(len(texts))), "text": texts}))
    cand = prefix_jaccard_candidates(ds, tau_pm)
    cand_pairs = sorted(zip(cand.column("doc_a").to_pylist(),
                            cand.column("doc_b").to_pylist()))
    true_pairs = _brute_jaccard_pairs(texts, tau_pm)
    # exact recall: every true pair is a candidate
    assert set(true_pairs) <= set(cand_pairs)
    # verification step reproduces brute force exactly
    sets = {i: word_shingle_set(t) for i, t in enumerate(texts)}
    verified = []
    for a, b in cand_pairs:
        sa, sb = sets[a], sets[b]
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        if union and inter * 1000 >= tau_pm * union:
            verified.append((a, b))
    assert sorted(verified) == true_pairs
    assert (0, 1) in true_pairs and (2, 3) in true_pairs


def test_word_shingle_hashes_edges():
    import numpy as np
    import pyarrow as pa

    from log_analysis_ai_ray.stages.dedup import (word_shingle_hashes,
                                                  word_shingle_set)

    sh, rows = word_shingle_hashes(pa.array(
        ["one two three four", "", "a b", "x!y@z"]))
    # row 0: 2 shingles; row 1: none; row 2: 1 word short; row 3:
    # punctuation splits into exactly one 3-gram
    assert rows.tolist() == [0, 0, 3]
    assert len(np.unique(sh)) == 3
    assert word_shingle_set("x!y@z") == {"x y z"}
    # same shingle text in different rows hashes identically
    sh2, _ = word_shingle_hashes(pa.array(["one two three",
                                           "one two three"]))
    assert sh2[0] == sh2[1]
