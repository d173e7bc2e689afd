import pyarrow as pa

from log_analysis_ai_ray.stages.aggregate import salted_count


def test_salted_count_matches_plain(ray_session):
    import ray.data

    # Zipfian hot key: 'hot' owns 80% of rows
    keys = ["hot"] * 800 + [f"k{i}" for i in range(200)]
    t = pa.table({"k": pa.array(keys, type=pa.string())})
    ds = ray.data.from_arrow(t).repartition(5)
    out = salted_count(ds, "k", num_salts=8)
    got = dict(zip(out["k"].to_pylist(), out["cnt"].to_pylist()))
    assert got["hot"] == 800
    assert sum(got.values()) == 1000
    assert len(got) == 201


def test_pre_epoch_hour_bucket_not_null():
    """ADVICE r1: hour -1 (1969-12-31T23:00) is a real bucket; pre-epoch
    rows must land there, with null-timestamp rows kept separate."""
    import numpy as np
    import pyarrow as pa

    from log_analysis_ai_ray.stages import aggregate as agg

    ts = pa.array([np.datetime64("1969-12-31T23:30:00", "us"),
                   np.datetime64("1969-12-31T23:45:00", "us"),
                   None], type=pa.timestamp("us"))
    batch = pa.table({
        "line": pa.array(["a", "b", "c"]),
        "level": pa.array(["INFO"] * 3),
        "line_ts": ts,
        "template": pa.array(["t <*>"] * 3),
        "template_hash": pa.array([5] * 3, type=pa.int64()),
        "params": pa.array([["x"]] * 3, type=pa.list_(pa.string())),
        "parse_ok": pa.array([True] * 3),
    })
    out = agg.finish_partials([agg.combined_partials(batch)])
    rollup = out["rollup"]
    buckets = dict(zip(rollup["bucket"].to_pylist(),
                       rollup["count"].to_pylist()))
    import datetime
    pre = datetime.datetime(1969, 12, 31, 23, 0)
    assert buckets.get(pre) == 2          # real pre-epoch bucket
    assert buckets.get(None) == 1         # null ts stays null


def test_incremental_merge_equals_full_run(ray_session, pages_small,
                                           tmp_path):
    """Incremental ingest invariant: run_checkpointed over the two halves
    of the corpus merges the halves' partials into exactly the registry
    and rollups of a single full run given fit_mapping's mapping."""
    from log_analysis_ai_ray.pipelines import flagship
    from log_analysis_ai_ray.sources.pages import resolve_pages

    files = resolve_pages(pages_small).files
    assert len(files) >= 2
    half = len(files) // 2
    mapping = flagship.fit_mapping(pages_small)

    full = flagship.run(pages_small, str(tmp_path / "full"),
                        mapping=mapping)
    # the halves' store mines its mapping from the merged partials of
    # both groups, as the full run's equals fit_mapping's
    halves = flagship.run_checkpointed(pages_small, str(tmp_path / "halves"),
                                       files_per_group=half)
    assert halves["groups_ran"] == [0, 1]

    assert halves["registry"].equals(full["registry"])
    assert halves["rollup"].equals(full["rollup"])


def _anomaly_scores_loop(rollup: pa.Table) -> pa.Table:
    """The per-template loop anomaly_scores used to run: numpy mean and
    population std of each template's bucket counts."""
    import numpy as np

    h = np.asarray(rollup.column("template_hash"))
    c = np.asarray(rollup.column("count"), dtype=np.float64)
    order = np.argsort(h, kind="stable")
    hs, cs = h[order], c[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(hs[1:] != hs[:-1]) + 1, [len(hs)]))
    mean = np.empty_like(cs)
    std = np.empty_like(cs)
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        mean[lo:hi] = cs[lo:hi].mean()
        std[lo:hi] = cs[lo:hi].std()
    z = np.where(std > 0, (cs - mean) / np.where(std > 0, std, 1.0), 0.0)
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    return pa.table({"mean_count": mean[inv], "std_count": std[inv],
                     "anomaly_score": z[inv]})


def test_anomaly_scores_empty_and_equal_to_loop():
    """An empty rollup scores without a numpy warning, and random
    rollups (singleton, constant and large-count templates) score as the
    per-template loop does, to 1e-9."""
    import warnings

    import numpy as np

    from log_analysis_ai_ray.stages.aggregate import anomaly_scores

    def rollup(h, c):
        return pa.table({
            "template_hash": pa.array(h, pa.int64()),
            "bucket": pa.array([None] * len(h), pa.timestamp("us")),
            "count": pa.array(c, pa.int64())})

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = anomaly_scores(rollup([], []))
    assert empty.num_rows == 0
    assert empty.column_names[-3:] == ["mean_count", "std_count",
                                       "anomaly_score"]

    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 500))
        h = rng.choice(rng.integers(-2**62, 2**62, int(rng.integers(1, 60))),
                       n)
        c = rng.integers(1, 10 ** int(rng.integers(1, 8)), n)
        c[rng.random(n) < 0.3] = 5
        got = anomaly_scores(rollup(h, c))
        want = _anomaly_scores_loop(rollup(h, c))
        for col in want.column_names:
            np.testing.assert_allclose(np.asarray(got.column(col)),
                                       np.asarray(want.column(col)),
                                       rtol=1e-9, atol=1e-9)
