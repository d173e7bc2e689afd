"""Property-based invariants (hypothesis) for the deterministic core:
masking, Drain mapping coverage, fingerprints, minhash."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from log_analysis_ai_ray.functions.hashing import md5_hash32, rolling_fingerprint
from log_analysis_ai_ray.stages import dedup, masking
from log_analysis_ai_ray.stages.drain import mine_mapping

line_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\n"),
    min_size=0, max_size=120)


@settings(max_examples=60, deadline=None)
@given(st.lists(line_st, min_size=1, max_size=20))
def test_masking_deterministic_and_digit_free(lines):
    arr = pa.array(lines, type=pa.string())
    m1 = masking.mask_array(arr).to_pylist()
    m2 = masking.mask_array(arr).to_pylist()
    assert m1 == m2
    for s in m1:
        # all ASCII digit runs collapsed (RE2 \d is ASCII-only;
        # Unicode digits like '²' legitimately survive)
        assert not any(c in "0123456789" for c in s)
        # ASCII whitespace normalized (RE2 \s is ASCII-only)
        assert "  " not in s
        assert not s.startswith(" ") and not s.endswith(" ")
    # masking keeps the token count of the header-stripped line, so a
    # template's wildcard positions index the line's tokens
    stripped = masking.strip_header_array(arr).to_pylist()
    assert [len(s.split(" ")) for s in m1] == \
        [len(s.split(" ")) for s in stripped]


@settings(max_examples=40, deadline=None)
@given(st.lists(line_st, min_size=1, max_size=30))
def test_drain_mapping_total_and_order_free(lines):
    arr = pa.array(lines, type=pa.string())
    distinct = sorted(set(masking.mask_array(arr).to_pylist()))
    a = mine_mapping(distinct)
    b = mine_mapping(list(reversed(distinct)))
    # total: every masked string is mapped, exactly once
    assert sorted(a["masked"].to_pylist()) == distinct
    # order-free: identical mapping regardless of input order
    assert sorted(zip(a["masked"].to_pylist(), a["template"].to_pylist())) \
        == sorted(zip(b["masked"].to_pylist(), b["template"].to_pylist()))
    # templates preserve token count of their members
    for m, t in zip(a["masked"].to_pylist(), a["template"].to_pylist()):
        assert len(m.split(" ")) == len(t.split(" "))


@settings(max_examples=40, deadline=None)
@given(st.text(min_size=0, max_size=200))
def test_fingerprint_vector_matches_scalar(text):
    t = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": pa.array([text], pa.string())})
    from log_analysis_ai_ray.stages.textstats import fingerprints
    got = fingerprints(t)["fingerprint"].to_pylist()[0]
    assert got == format(rolling_fingerprint(text), "016x")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=80), min_size=1, max_size=8))
def test_minhash_independent_of_neighbors(texts):
    """A document's signature depends only on its own bytes."""
    t_all = pa.table({"text": pa.array(texts, pa.string())})
    sig_all = dedup.minhash_signatures(t_all["text"])
    for i, tx in enumerate(texts):
        solo = dedup.minhash_signatures(
            pa.table({"text": pa.array([tx])})["text"])
        assert (sig_all[i] == solo[0]).all()


@settings(max_examples=50, deadline=None)
@given(st.text(min_size=0, max_size=60))
def test_hash32_in_range(s):
    h = md5_hash32(s)
    assert 0 <= h < 2**32


interval_st = st.tuples(st.integers(0, 6), st.integers(0, 40),
                        st.integers(1, 15))  # (key, start, length)


@settings(max_examples=60, deadline=None)
@given(st.lists(interval_st, min_size=0, max_size=40),
       st.lists(st.tuples(st.integers(0, 8), st.integers(-3, 60)),
                min_size=1, max_size=50))
def test_interval_counts_property(intervals, probes):
    from log_analysis_ai_ray.stages.joins import (build_interval_index,
                                                  interval_overlap_counts)

    rk = np.array([k for k, _, _ in intervals], dtype=np.int64)
    rs = np.array([s for _, s, _ in intervals], dtype=np.int64)
    re_ = rs + np.array([l for _, _, l in intervals], dtype=np.int64)
    right = pa.table({"k": pa.array(rk), "s": pa.array(rs),
                      "e": pa.array(re_)})
    idx = build_interval_index(right, "k", "s", "e")
    lk = np.array([k for k, _ in probes], dtype=np.int64)
    lt = np.array([t for _, t in probes], dtype=np.int64)
    got = interval_overlap_counts(idx, lk, lt)
    for j in range(len(probes)):
        naive = int(((rk == lk[j]) & (rs <= lt[j]) & (re_ > lt[j])).sum())
        assert got[j] == naive


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 30),
                          st.integers(0, 9)),
                min_size=0, max_size=30),
       st.lists(st.tuples(st.integers(0, 6), st.integers(-2, 35)),
                min_size=1, max_size=40))
def test_asof_probe_property(rights, probes):
    from log_analysis_ai_ray.stages.joins import (asof_probe,
                                                  build_asof_index)

    rk = np.array([k for k, _, _ in rights], dtype=np.int64)
    rt = np.array([t for _, t, _ in rights], dtype=np.int64)
    tie = np.array([x for _, _, x in rights], dtype=np.int64)
    right = pa.table({"k": pa.array(rk), "ts": pa.array(rt),
                      "tie": pa.array(tie),
                      "row": pa.array(np.arange(len(rk)))})
    idx = build_asof_index(right, "k", "ts", tiebreak_col="tie")
    rows = np.asarray(idx["table"].column("row"))
    for lk, lt in probes:
        pos = asof_probe(idx, np.array([lk], dtype=np.int64),
                         np.array([lt], dtype=np.int64))[0]
        cand = [i for i in range(len(rk)) if rk[i] == lk and rt[i] <= lt]
        if not cand:
            assert pos < 0
        else:
            best = max(cand, key=lambda i: (rt[i], tie[i], i))
            # any row tied on (key, ts, tie) with best is acceptable
            assert pos >= 0
            got = rows[pos]
            assert (rk[got], rt[got], tie[got]) == \
                (rk[best], rt[best], tie[best])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]),
                min_size=1, max_size=400),
       st.integers(5, 12))
def test_mg_sketch_property(items, k):
    from log_analysis_ai_ray.stages import sketch

    arr = np.array(items, dtype=object)
    uniq, counts = np.unique(arr, return_counts=True)
    counters = {}
    sketch.mg_update(counters, uniq, counts, k)
    n = len(items)
    truth = dict(zip(uniq, counts))
    for item, c in truth.items():
        if c > n / k:
            assert item in counters
    for item, est in counters.items():
        assert 0 < est <= truth[item]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                max_size=12),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10))
def test_token_chunks_cover_exactly(lens, width, stride):
    """Every token of every doc is covered; chunk starts are stride
    multiples; chunk sizes are in [1, width]; per-doc chunk count is
    ceil(n/stride) for n>0 (0 for empty docs — '' still splits to one
    empty token, so lens==0 is modeled as a one-token doc here)."""
    from log_analysis_ai_ray.stages.textstats import token_chunks

    stride = min(stride, width)       # coverage requires width >= stride
    lens = [max(n, 1) for n in lens]  # '' splits to [''] — 1 token
    texts = [" ".join(f"t{j}" for j in range(n)) for n in lens]
    t = pa.table({"doc_id": pa.array(range(len(lens)), type=pa.int64()),
                  "text": pa.array(texts)})
    out = token_chunks(t, width=width, stride=stride)
    per_doc = {}
    for r in out.to_pylist():
        assert 1 <= r["n_chunk_tokens"] <= width
        per_doc.setdefault(r["doc_id"], []).append(r)
    for i, n in enumerate(lens):
        rows = sorted(per_doc[i], key=lambda r: r["chunk_idx"])
        assert len(rows) == (n - 1) // stride + 1
        # coverage: last chunk must reach the final token
        last = rows[-1]
        s = last["chunk_idx"] * stride
        assert s + last["n_chunk_tokens"] == n
        assert last["last_token"] == f"t{n-1}" or n == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 50),
                          st.integers(0, 1000)),
                min_size=1, max_size=60))
def test_segmented_argmax_property(rows):
    """_segmented_argmax == per-user max over the composite (ts,
    event_id) rank, and is idempotent (argmax of argmax output is
    itself) — the property the partial/final composition relies on."""
    from log_analysis_ai_ray.pipelines.queries import _segmented_argmax

    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts_us": pa.array([r[1] for r in rows], type=pa.int64()),
        "event_id": pa.array([r[2] for r in rows], type=pa.int64()),
    })
    out = _segmented_argmax(t)
    want = {}
    for u, ts, e in rows:
        if u not in want or (ts, e) > want[u]:
            want[u] = (ts, e)
    got = {r["user_id"]: (r["ts_us"], r["event_id"])
           for r in out.to_pylist()}
    assert got == want
    again = _segmented_argmax(out)
    assert again.sort_by("user_id").equals(out.sort_by("user_id"))
