"""Bloom filter: no false negatives, fpp bound, merge associativity,
and exactness of the filter+verify semi-join even with a tiny (high-fpp)
filter."""

import numpy as np
import pyarrow as pa

from log_analysis_ai_ray.stages import bloomjoin as bj


def test_no_false_negatives_and_fpp():
    rng = np.random.default_rng(5)
    members = rng.choice(10**9, size=50_000, replace=False)
    bm = bj.bloom_from_keys(members)
    assert bj.bloom_probe(bm, members).all()  # never a false negative
    others = rng.choice(10**9, size=50_000) + 10**9  # disjoint range
    fpp = bj.bloom_probe(bm, others).mean()
    # m=2^23, k=5, n=50k -> theoretical fpp ~ 2e-8
    assert fpp < 1e-3


def test_merge_associativity():
    rng = np.random.default_rng(6)
    keys = rng.integers(-(2**62), 2**62, size=20_000)
    whole = bj.bloom_from_keys(keys)
    merged = bj.bloom_from_keys(keys[:7_000]) \
        | bj.bloom_from_keys(keys[7_000:])
    assert np.array_equal(whole, merged)


def test_negative_keys_probe():
    keys = np.array([-5, -1, 0, 3], dtype=np.int64)
    bm = bj.bloom_from_keys(keys, m_bits=1 << 10, k_hashes=3)
    assert bj.bloom_probe(bm, keys, k_hashes=3).all()


def test_distributed_build_matches_local(ray_session):
    import ray.data

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 10**7, size=30_000)
    t = pa.table({"k": pa.array(keys, type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(6)
    bm = bj.bloom_build(ds, "k")
    assert np.array_equal(bm, bj.bloom_from_keys(np.unique(keys)))


def test_filter_stage_and_verify_exactness(ray_session):
    """Even with a deliberately saturated 64-bit filter (fpp ~ 1), the
    prefilter keeps supersets only — downstream exact verification has
    everything it needs; and with a healthy filter the stage actually
    prunes."""
    import ray
    import ray.data

    rng = np.random.default_rng(8)
    probe = pa.table({"key": pa.array(rng.integers(0, 1_000, 20_000),
                                      type=pa.int64())})
    members = np.arange(0, 100, dtype=np.int64)
    ds = ray.data.from_arrow(probe).repartition(4)

    tiny = bj.bloom_from_keys(members, m_bits=64, k_hashes=2)
    out_tiny = ds.map_batches(
        bj.BloomFilterStage(ray.put(tiny), "key", k_hashes=2),
        batch_format="pyarrow").take_all()
    got = {r["key"] for r in out_tiny}
    assert set(members.tolist()) <= got  # superset always

    healthy = bj.bloom_from_keys(members)
    out = ds.map_batches(bj.BloomFilterStage(ray.put(healthy), "key"),
                         batch_format="pyarrow").take_all()
    true_hits = probe.filter(
        pa.compute.is_in(probe.column("key"),
                         value_set=pa.array(members))).num_rows
    # healthy filter: essentially no false positives at this density
    assert abs(len(out) - true_hits) <= 5
    assert {r["key"] for r in out} >= set(
        probe.column("key").to_pylist()) & set(members.tolist())


def test_string_keys_build_and_probe(ray_session):
    import ray
    import ray.data

    members = pa.table({"k": pa.array([f"url-{i}" for i in range(500)])})
    ds = ray.data.from_arrow(members).repartition(3)
    bm = bj.bloom_build(ds, "k")
    probe = pa.table({"k": pa.array(
        [f"url-{i}" for i in range(400, 900)] + [None]),
        "v": pa.array(list(range(501)), type=pa.int64())})
    out = ray.data.from_arrow(probe).map_batches(
        bj.BloomFilterStage(ray.put(bm), "k"),
        batch_format="pyarrow").take_all()
    got = {r["k"] for r in out}
    want = {f"url-{i}" for i in range(400, 500)}
    assert want <= got            # no false negatives
    assert None not in got        # null never matches
    assert len(got) <= len(want) + 5  # fpp tiny at this density


def test_plan_bins_property():
    from hypothesis import given, strategies as st

    from log_analysis_ai_ray.stages.compact import plan_bins

    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    max_size=60),
           st.integers(min_value=1, max_value=10**9))
    def check(sizes, target):
        bins = plan_bins(sizes, target)
        flat = sorted(i for b in bins for i in b)
        assert flat == list(range(len(sizes)))  # exact cover
        for b in bins:
            assert len(b) == 1 or sum(sizes[i] for i in b) <= target

    check()


def test_dense_block_bitmap_partial_matches_local(ray_session):
    """bloom_build's dense-block branch (a block whose probe-position
    blob would exceed the bitmap ships its own bitmap instead) must
    produce the identical bitmap to the local build — forced by a
    tiny m_bits so every block is dense."""
    import numpy as np
    import pyarrow as pa
    import ray

    from log_analysis_ai_ray.stages.bloomjoin import (bloom_build,
                                                      bloom_from_keys)

    keys = np.arange(2000, dtype=np.int64) * 977
    ds = ray.data.from_arrow(pa.table({"k": pa.array(keys)})) \
        .repartition(4)
    m_bits = 1 << 10  # 128 bytes: 2000 keys x 5 probes >> bitmap
    dist = bloom_build(ds, "k", m_bits=m_bits)
    local = bloom_from_keys(keys, m_bits=m_bits)
    assert np.array_equal(dist, local)
    # and the sparse branch at a comfortable size agrees too
    dist2 = bloom_build(ds, "k")
    local2 = bloom_from_keys(keys)
    assert np.array_equal(dist2, local2)


def test_m_bits_for_sizing():
    from log_analysis_ai_ray.stages.bloomjoin import (M_BITS_DEFAULT,
                                                      M_BITS_MAX,
                                                      m_bits_for)

    assert m_bits_for(0) == M_BITS_DEFAULT
    assert m_bits_for(1) == M_BITS_DEFAULT
    # 16 bits/key, next power of two
    assert m_bits_for(1_000_000) >= 16_000_000
    assert m_bits_for(1_000_000) & (m_bits_for(1_000_000) - 1) == 0
    # hard cap
    assert m_bits_for(10**12) == M_BITS_MAX


def test_m_bits_for_reads_patched_cap(monkeypatch):
    """Sizing honours the cap in force at call time, the same value
    census_gate/bloom_semi_join compare against to pick exact vs
    Bloom."""
    from log_analysis_ai_ray.stages import bloomjoin

    monkeypatch.setattr(bloomjoin, "M_BITS_MAX",
                        bloomjoin.M_BITS_DEFAULT << 1)
    assert bloomjoin.m_bits_for(10**12) == bloomjoin.M_BITS_DEFAULT << 1
    assert bloomjoin.m_bits_for(1) == bloomjoin.M_BITS_DEFAULT
