"""Round-4 hardening tests: batch-boundary gap repair in the session
timeout sensitivity histogram (round-3 advice: a user's events
straddling a map_batches boundary silently lost the boundary gap),
distributed exact-Jaccard pair verification parity, and forced-gate
oracle parity for every size-gated broadcast build side (budget
monkeypatched to 0 -> the partitioned path must stay oracle-green)."""

import duckdb
import os
import pandas as pd
import numpy as np
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"

# (query name, module constant to force to 0)
GATED = [
    ("parts_supplier_breadth", "joins"),
    ("asof_order_stats", "queries"),
    ("events_in_order_window", "queries"),
    ("local_supplier_volume", "queries"),
]


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents",
              "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def _norm(df: pd.DataFrame) -> list:
    df = df[sorted(df.columns)]
    rows = df.astype(str).values.tolist()
    rows.sort()
    return rows


@pytest.mark.parametrize("name,where", GATED)
def test_forced_partitioned_gate_oracle(ray_session, oracle_con,
                                        monkeypatch, name, where):
    """With the broadcast budget forced to 0 the query must take the
    partitioned path AND still match its DuckDB oracle — the round-3
    'size-gate every broadcast build side' done-criterion."""
    from log_analysis_ai_ray.pipelines import queries as qmod
    from log_analysis_ai_ray.stages import joins

    if where == "joins":
        monkeypatch.setattr(joins, "BROADCAST_JOIN_MAX_ROWS", 0)
    else:
        monkeypatch.setattr(qmod, "DIM_BROADCAST_MAX_ROWS", 0)
    fn, sql = qmod.QUERIES[name]
    res = fn(SF_DIR)
    ours = res.to_pandas()
    theirs = oracle_con.execute(sql).fetchdf()
    assert sorted(ours.columns) == sorted(theirs.columns)
    assert len(ours) == len(theirs)
    assert _norm(ours) == _norm(theirs)


def test_doc_ngram_jaccard_distributed_parity(ray_session,
                                              monkeypatch):
    """doc_ngram_jaccard (char-shingle verification) must produce the
    identical table when its verification is forced onto the
    distributed map_groups path."""
    from log_analysis_ai_ray.pipelines import queries as qmod
    from log_analysis_ai_ray.stages import dedup

    fn, _ = qmod.QUERIES["doc_ngram_jaccard"]
    driver = fn(SF_DIR)
    monkeypatch.setattr(dedup, "PAIR_VERIFY_DRIVER_MAX_PAIRS", 0)
    dist = fn(SF_DIR)
    assert dist.equals(driver)


def _gap_hist_ds(users, ts_us):
    import ray

    n = len(users)
    t = pa.table({
        "_pkey": pa.array(np.asarray(users, np.int64) % 32),
        "user_id": pa.array(np.asarray(users, np.int64)),
        "ts_us": pa.array(np.asarray(ts_us, np.int64)),
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
    })
    return ray.data.from_arrow(t) \
        .sort(["_pkey", "user_id", "ts_us", "event_id"])


def _expected_hist(users, ts_us):
    u = np.asarray(users, np.int64)
    t = np.asarray(ts_us, np.int64)
    order = np.lexsort((t, u))
    u, t = u[order], t[order]
    same = u[1:] == u[:-1]
    g = (t[1:] - t[:-1])[same] // 1_000_000
    vals, cnts = np.unique(g, return_counts=True)
    return dict(zip(vals.tolist(), cnts.tolist()))


def _hist_to_dict(m):
    return dict(zip(m.column("gsec").to_pylist(),
                    m.column("c").to_pylist()))


def test_checkpoint_membership_aware_resume(ray_session, pages_small,
                                            tmp_path):
    """Adding an input file shifts positional group boundaries; the
    resume must RERUN shifted groups instead of skipping them by id
    (round-4 review: a new file was silently never ingested)."""
    import glob
    import shutil

    from log_analysis_ai_ray.pipelines import flagship

    src = str(tmp_path / "pages")
    shutil.copytree(pages_small, src)
    # drop the cached marker so the copied dir is a plain input dir
    for m in glob.glob(os.path.join(src, "_COMPLETE")):
        os.remove(m)
    out = str(tmp_path / "out")
    flagship.run_checkpointed(src, out, files_per_group=2)

    # new file that sorts between existing shards -> every group shifts
    files = sorted(glob.glob(os.path.join(src, "pages-*.parquet")))
    inserted = os.path.join(src, "pages-00000a.parquet")
    shutil.copyfile(files[1], inserted)
    res = flagship.run_checkpointed(src, out, files_per_group=2)
    # membership changed for shifted groups: they reran
    assert res["groups_skipped"] == []
    # the run is consistent: totals reflect the NEW 5-file input
    import pyarrow.parquet as pq
    n_new = sum(pq.ParquetFile(f).metadata.num_rows
                for f in sorted(glob.glob(
                    os.path.join(src, "pages-*.parquet"))))
    assert res["total_rows"] > 0
    # rerunning again with no changes skips everything
    res2 = flagship.run_checkpointed(src, out, files_per_group=2)
    assert res2["groups_ran"] == []
    assert res2["total_rows"] == res["total_rows"]


def test_compaction_crash_recovery_no_duplication(ray_session,
                                                  tmp_path):
    """The round-4 review's row-duplication window: a compact output
    coexisting with its still-undeleted members must NOT be re-binned
    as input. The pending-marker protocol recovers every crash point
    to an exactly-once row multiset."""
    import json

    import pyarrow.fs as pafs
    import pyarrow.parquet as pq

    from log_analysis_ai_ray.stages import compact

    fs = pafs.LocalFileSystem()
    part = str(tmp_path / "sink_id=0")
    os.makedirs(part)

    def write_members():
        for i in range(3):
            pq.write_table(
                pa.table({"x": pa.array(
                    np.arange(i * 10, i * 10 + 10, dtype=np.int64))}),
                f"{part}/m{i}.parquet")

    def rows():
        import glob as _g
        t = pa.concat_tables([pq.read_table(p) for p in
                              sorted(_g.glob(f"{part}/*.parquet"))])
        return sorted(t.column("x").to_pylist())

    expect = list(range(30))

    # crash point A: output written+verified, members NOT deleted,
    # marker still present (the old code re-binned output+members)
    write_members()
    merged = pa.concat_tables(
        [pq.read_table(f"{part}/m{i}.parquet") for i in range(3)])
    pq.write_table(merged, f"{part}/compact-deadbeef.parquet")
    with open(f"{part}/compact-deadbeef.pending", "w") as f:
        json.dump({"members": ["m0.parquet", "m1.parquet",
                               "m2.parquet"], "rows": 30}, f)
    stats = compact.compact_partition(fs, part, target_bytes=1 << 30)
    assert rows() == expect
    assert not os.path.exists(f"{part}/compact-deadbeef.pending")

    # crash point B: marker written, output never landed
    import shutil
    shutil.rmtree(part)
    os.makedirs(part)
    write_members()
    with open(f"{part}/compact-cafe.pending", "w") as f:
        json.dump({"members": ["m0.parquet"], "rows": 10}, f)
    compact.compact_partition(fs, part, target_bytes=1 << 30)
    assert rows() == expect
    assert not os.path.exists(f"{part}/compact-cafe.pending")


def test_extract_attributes_special_patterns(ray_session):
    """Group-naming must target the first REAL capturing paren —
    escaped literals, (?:...) groups and character classes broke the
    old first-'(' rewrite (round-4 review)."""
    from log_analysis_ai_ray.stages.parse import extract_attributes

    b = pa.table({"line": pa.array(["(code=ab) x", "yy 42 zz"])})
    out = extract_attributes(b, {"code": r"\((code=\w+)\)"})
    assert out.column("code").to_pylist() == ["code=ab", ""]
    out2 = extract_attributes(b, {"num": r"(?:y )(\d+)"})
    assert out2.column("num").to_pylist() == ["", "42"]
    with pytest.raises(ValueError, match="no capture group"):
        extract_attributes(b, {"x": r"nocapture"})


def test_syslog_hostless_line(ray_session):
    """Minimal RFC3164 PRI+TAG+msg lines (no timestamp, no host) must
    parse instead of failing the whole match (round-4 review)."""
    from log_analysis_ai_ray.stages.syslog import parse_syslog

    out = parse_syslog(pa.table({"line": pa.array(
        ["<13>myapp: started",
         "<34>Feb  5 17:32:18 host1 sshd[123]: accepted"])}))
    assert out.column("syslog_ok").to_pylist() == [True, True]
    assert out.column("pri").to_pylist() == [13, 34]
    assert out.column("program").to_pylist() == ["myapp", "sshd"]
    assert out.column("msg").to_pylist() == ["started", "accepted"]
    assert out.column("host").to_pylist() == ["", "host1"]


def test_pipeline_transforms_chain(ray_session, tmp_path):
    """Two textstats transforms in sequence must chain (features
    APPEND; the old projection dropped the text column after the
    first transform) and the flagship path must refuse transforms
    loudly instead of silently skipping them."""
    import pyarrow.parquet as pq

    from log_analysis_ai_ray.pipeline import Pipeline, PipelineConfig

    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["the quick brown fox jumps over the dog",
                          "zzz qqq xxx"]),
    }), str(src))
    cfg = PipelineConfig(
        source={"format": "parquet", "path": str(src)},
        parser={"kind": "line"},
        transforms=[{"kind": "langid"}, {"kind": "quality"}],
        route={"out_dir": str(tmp_path / "out")})
    res = Pipeline(cfg).run()
    t = res["dataset"].take_all()
    assert {"text", "pred_lang", "n_tokens"} <= set(t[0].keys())

    bad = PipelineConfig(
        source={"format": "pages", "path": "unused"},
        parser={"kind": "drain"},
        transforms=[{"kind": "pii_redact"}],
        route={"out_dir": str(tmp_path / "out2")})
    with pytest.raises(ValueError, match="flagship path"):
        Pipeline(bad).run()
    text_drain = PipelineConfig(
        source={"format": "text", "path": str(src)},
        route={"out_dir": str(tmp_path / "out3")})
    with pytest.raises(ValueError, match="drain"):
        Pipeline(text_drain).run()


def test_json_extract_nested_fields(ray_session):
    """Nested struct/list JSON fields must JSON-encode into attrs
    instead of crashing the struct->utf8 cast (round-4 review)."""
    from log_analysis_ai_ray.sources.readers import \
        json_heuristic_extract

    batch = pa.table({
        "message": pa.array(["a", "b"]),
        "meta": pa.array([{"x": 1, "y": [1, 2]}, None]),
        "tags": pa.array([[1, 2], [3]]),
    })
    out = json_heuristic_extract(batch)
    attrs = out.column("attrs").to_pylist()
    a0 = dict(attrs[0])
    assert a0["meta"] == '{"x": 1, "y": [1, 2]}'
    assert a0["tags"] == "[1, 2]"
    assert dict(attrs[1]) == {"tags": "[3]"}


def test_route_stage_empty_block(ray_session, tmp_path):
    """A zero-row block through the fused route stage must emit typed
    empty partials, not crash on the [0]/[n-1] fingerprint."""
    from log_analysis_ai_ray.stages import route as route_mod

    types = {"line_no": pa.int64(), "line_ts": pa.timestamp("us"),
             "template_hash": pa.int64(), "parse_ok": pa.bool_()}
    cols = {name: pa.array([], type=types.get(name, pa.string()))
            for name in route_mod.ROUTED_COLUMNS
            if name != "sink_id"}  # the stage appends sink_id itself
    cols["params"] = pa.array([], pa.list_(pa.string()))  # the assigner's
    stage = route_mod.RouteWriteEmitPartials(str(tmp_path / "out"), 4)
    out = stage(pa.table(cols))
    # typed partials schema intact and no rows: the stage emits only
    # masked and url rows (the finish step counts the quality rows)
    from log_analysis_ai_ray.stages.aggregate import PARTIAL_SCHEMA

    assert out.schema == PARTIAL_SCHEMA
    assert out.num_rows == 0
    assert not (tmp_path / "out" / "_staging").exists()


def test_lookup_join_auto_full_outer_routes_partitioned(ray_session):
    """'full outer' must NEVER take the per-block broadcast path —
    a per-block outer join emits unmatched right rows once per left
    block (round-4 review finding). The auto planner must route it
    partitioned and produce exactly one row per unmatched right key."""
    import ray

    from log_analysis_ai_ray.stages.joins import lookup_join_auto

    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "lv": pa.array([10, 20], pa.int64())})
    right = pa.table({"rk": pa.array([2, 3], pa.int64()),
                      "rv": pa.array([200, 300], pa.int64())})
    # 2 left blocks: under the old behavior right key 3 surfaced twice
    lds = ray.data.from_arrow(left).repartition(2)
    out, path = lookup_join_auto(
        lds, ray.data.from_arrow(right), left_key="k", right_key="rk",
        take_cols=["rv"], join_type="full outer", emit_key="key")
    assert path == "partitioned"
    rows = sorted(((r.get("key"), r.get("lv"), r.get("rv"))
                   for r in out.take_all()))
    assert rows == [(1, 10, None), (2, 20, 200), (3, None, 300)]


def test_lookup_join_auto_right_combine_broadcast(ray_session):
    """right_combine partials must fold to one row per key on the
    BROADCAST path too (previously dropped: every left row joined
    every raw partial row and values came back unsummed)."""
    import ray

    from log_analysis_ai_ray.stages.joins import lookup_join_auto

    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "lv": pa.array([10, 20], pa.int64())})
    # non-unique per-block partials for key 1: 5 + 7 = 12
    right = pa.table({"rk": pa.array([1, 1, 2], pa.int64()),
                      "v": pa.array([5, 7, 9], pa.int64())})
    out, path = lookup_join_auto(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        left_key="k", right_key="rk", take_cols=["v"],
        right_combine=[("v", "sum")])
    assert path == "broadcast"
    rows = sorted((r["k"], r["v"]) for r in out.take_all())
    assert rows == [(1, 12), (2, 9)]


def test_word_shingle_width_one(ray_session):
    """width=1 (unigram similarity) previously crashed on the [:-0]
    slice; every word must now be its own shingle."""
    from log_analysis_ai_ray.stages.dedup import word_shingle_hashes

    h, rows = word_shingle_hashes(
        pa.array(["one two three", "four five"]), width=1)
    assert list(rows) == [0, 0, 0, 1, 1]
    assert len(set(h.tolist())) == 5


def test_simhash_hamming_guard(ray_session):
    """max_hamming outside the 4-band pigeonhole guarantee must raise
    instead of silently losing pairs."""
    import ray

    from log_analysis_ai_ray.stages.dedup import simhash_near_dups

    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["aaa", "bbb"])})
    with pytest.raises(ValueError, match="recall guarantee"):
        simhash_near_dups(ray.data.from_arrow(t), max_hamming=4)


def test_minhash_distributed_sweep_parity(ray_session, monkeypatch):
    """Forcing the partitioned multi-bucket pair sweep (driver budget
    = 0) must reproduce the driver sweep exactly — same pairs, same
    est_jaccard, including star-capped flood groups."""
    import ray

    from log_analysis_ai_ray.stages import dedup

    texts = []
    base = ("log line parsing with templates and parameters across "
            "many shards of the synthetic corpus for near duplicate "
            "detection stress").split()
    for i in range(300):
        ws = list(base)
        if i % 3 == 0:
            ws[i % len(ws)] = f"mut{i}"       # near-dup of base
        else:
            for j in range(0, len(ws), 2):    # unique doc
                ws[j] = f"u{i}x{j}"
        texts.append(" ".join(ws))
    t = pa.table({"doc_id": pa.array(np.arange(300, dtype=np.int64)),
                  "text": pa.array(texts)})

    driver = dedup.minhash_near_dups(ray.data.from_arrow(t))
    assert driver.num_rows > 0
    monkeypatch.setattr(dedup, "SINGLE_TASK_PAIR_MAX_ROWS", 0)
    monkeypatch.setattr(dedup, "PAIR_SWEEP_NUM_PARTITIONS", 7)
    dist = dedup.minhash_near_dups(ray.data.from_arrow(t))
    assert dist.equals(driver)


def test_minhash_pair_spill_parity(ray_session, tmp_path,
                                   monkeypatch):
    """Past the driver merge bound the pair list must spill to parquet
    and return as a Dataset with the same logical content as the
    driver-path table (the round-4 boilerplate drill emitted 101M
    true pairs — a driver table is the wrong contract there)."""
    import ray

    from log_analysis_ai_ray.stages import aggregate, dedup

    texts = []
    base = ("shared boilerplate header words for every page in this "
            "synthetic crawl slice with trailing content").split()
    for i in range(120):
        ws = list(base)
        ws[i % 4] = f"v{i % 7}"   # 7 near-dup families
        texts.append(" ".join(ws))
    t = pa.table({"doc_id": pa.array(np.arange(120, dtype=np.int64)),
                  "text": pa.array(texts)})

    driver = dedup.minhash_near_dups(ray.data.from_arrow(t))
    assert driver.num_rows > 0

    monkeypatch.setattr(dedup, "SINGLE_TASK_PAIR_MAX_ROWS", 0)
    monkeypatch.setattr(aggregate, "DRIVER_MERGE_MAX_ROWS", 0)
    out_dir = str(tmp_path / "pairs")
    with pytest.raises(ValueError, match="out_dir"):
        dedup.minhash_near_dups(ray.data.from_arrow(t))
    spilled = dedup.minhash_near_dups(ray.data.from_arrow(t),
                                      out_dir=out_dir)
    assert not isinstance(spilled, pa.Table)
    import glob

    import pyarrow.parquet as pq
    files = sorted(glob.glob(out_dir + "/*.parquet"))
    assert files
    got = pa.concat_tables([pq.read_table(f) for f in files]) \
        .sort_by([("doc_a", "ascending"), ("doc_b", "ascending")]) \
        .select(["doc_a", "doc_b", "est_jaccard"])
    assert got.equals(driver)


def test_combine_partials_distinct_distributed(ray_session,
                                               monkeypatch):
    """aggs=[] (pure DISTINCT) through the DISTRIBUTED merge branch —
    previously crashed with 'Aggregate requires at least one
    aggregation' exactly when a distinct key space first exceeded the
    driver merge bound (code-review finding, round 4)."""
    import ray

    from log_analysis_ai_ray.stages import aggregate

    monkeypatch.setattr(aggregate, "DRIVER_MERGE_MAX_ROWS", 0)
    ds = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 2, 2, 3, 3, 3], pa.int64()),
         "j": pa.array([9, 8, 8, 7, 7, 6], pa.int64())}))
    out = aggregate._combine_partials(ds, keys=["k", "j"], aggs=[])
    assert sorted(map(tuple, out.to_pylist()[0].items() and [
        (r["k"], r["j"]) for r in out.to_pylist()])) == \
        [(1, 9), (2, 8), (3, 6), (3, 7)]


def test_curation_spilled_pairs_parity(ray_session, tmp_path,
                                       monkeypatch):
    """run_curation with the MinHash pair list forced onto the spill
    path (driver merge bound = 0) must produce the same kept corpus
    as the driver path — covering the distributed drop-id
    distillation that previously crashed at scale."""
    import ray.data

    from log_analysis_ai_ray.pipelines import curation
    from log_analysis_ai_ray.stages import aggregate, dedup

    import pyarrow.parquet as pq
    base = ("the quick brown fox jumps over the lazy dog and then "
            "runs far away to the green hills beyond the river")
    texts, langs = [], []
    for i in range(200):
        ws = base.split()
        if i % 4 == 0:
            ws[2] = f"near{i % 3}"    # near-dup families
        else:
            ws[::2] = [f"u{i}x{j}" for j in range(0, len(ws), 2)]
        texts.append(" ".join(ws))
    t = pa.table({"doc_id": pa.array(np.arange(200, dtype=np.int64)),
                  "text": pa.array(texts),
                  "lang": pa.array(["en"] * 200),
                  "source": pa.array(["s0"] * 200),
                  "n_chars": pa.array(
                      [len(x) for x in texts], pa.int64())})
    src = tmp_path / "docs.parquet"
    pq.write_table(t, str(src))

    m1 = curation.run_curation(str(src), str(tmp_path / "out1"))
    kept1 = pq.read_table(str(tmp_path / "out1" / "docs")) \
        .sort_by("doc_id")

    monkeypatch.setattr(dedup, "SINGLE_TASK_PAIR_MAX_ROWS", 0)
    monkeypatch.setattr(aggregate, "DRIVER_MERGE_MAX_ROWS", 0)
    m2 = curation.run_curation(str(src), str(tmp_path / "out2"))
    kept2 = pq.read_table(str(tmp_path / "out2" / "docs")) \
        .sort_by("doc_id")
    assert m2["kept_after_dedup"] == m1["kept_after_dedup"]
    assert kept2.select(["doc_id"]).equals(kept1.select(["doc_id"]))


def test_bucketed_join_empty_bucket(ray_session, tmp_path,
                                    monkeypatch):
    """A knuth bucket with no rows leaves no hive directory — the
    bucketed join must treat it as joining to nothing instead of
    crashing on the missing path (code-review finding)."""
    import pyarrow.parquet as pq

    from log_analysis_ai_ray.pipelines import queries_ext

    # 3 customers / 3 orders -> at most 3 of 16 buckets materialize
    sf = tmp_path / "sfmini"
    sf.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([10, 20, 30], pa.int64()),
        "o_totalprice": pa.array([10.0, 20.5, 30.25]),
    }), str(sf / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([10, 20, 30], pa.int64()),
        "c_mktsegment": pa.array(["A", "B", "A"]),
    }), str(sf / "customer.parquet"))
    monkeypatch.setattr(queries_ext, "_BUCKETED_ROOT",
                        str(tmp_path / "bstore"))
    out = queries_ext.q_bucketed_join_revenue(str(sf))
    got = {r["c_mktsegment"]: (r["n_orders"], r["sum_cents"])
           for r in out.to_pylist()}
    assert got == {"A": (2, 4025), "B": (1, 2050)}


def test_embed_stage_ann_store_roundtrip(ray_session, tmp_path):
    """The declared T4 surface: build an ANN store from raw TEXT
    through the pluggable EmbedStage (default deterministic model),
    then query with the same model — each probe doc must return
    itself as the top hit."""
    import ray

    from log_analysis_ai_ray.stages import ann_store
    from log_analysis_ai_ray.stages.embed import default_ngram_model

    texts = [f"document number {i} talks about topic "
             + " ".join(f"w{(i * 7 + j) % 13}" for j in range(12))
             for i in range(120)]
    t = pa.table({"doc_id": pa.array(np.arange(120, dtype=np.int64)),
                  "text": pa.array(texts)})
    store = str(tmp_path / "store")
    meta = ann_store.build_ivf_store_from_text(
        ray.data.from_arrow(t), store, dim=32, n_centroids=4,
        train_size=120)
    assert meta["kind"] == "ivf" and meta["dim"] == 32
    assert meta["embedded_from"] == "text"

    model = default_ngram_model(dim=32)()
    probe_ids = [3, 77]
    Q = np.asarray(model([texts[i] for i in probe_ids]),
                   dtype=np.float64)
    res = ann_store.ivf_store_topk(store, probe_ids, Q, k=3,
                                   nprobe=4)
    top = {}
    for qid, vid, sim in zip(res.column("query_id").to_pylist(),
                             res.column("vec_id").to_pylist(),
                             res.column("sim").to_pylist()):
        if qid not in top or sim > top[qid][1]:
            top[qid] = (vid, sim)
    for qid in probe_ids:
        assert top[qid][0] == qid
        assert top[qid][1] > 0.999


def test_embed_stage_custom_model(ray_session):
    """A user-supplied model_factory (constructed once per actor)
    flows through embed_dataset and controls the output vectors."""
    import ray

    from log_analysis_ai_ray.stages.embed import embed_dataset

    def factory():
        def model_fn(texts):
            ls = np.array([len(s.as_py()) for s in texts],
                          dtype=np.float32)
            return np.stack([ls, ls * 2.0], axis=1)
        return model_fn

    t = pa.table({"doc_id": pa.array([5, 6], pa.int64()),
                  "text": pa.array(["ab", "abcd"])})
    out = embed_dataset(ray.data.from_arrow(t), factory, dim=2,
                        concurrency=1).take_all()
    by_id = {r["vec_id"]: list(r["embedding"]) for r in out}
    assert by_id[5] == [2.0, 4.0]
    assert by_id[6] == [4.0, 8.0]


def test_gap_hist_single_user_tiny_batches(ray_session):
    """A 1.5k-row single-user stream through 64-row batches must keep
    ALL n-1 gaps — the exact shape that lost gaps in round 3."""
    from log_analysis_ai_ray.pipelines.queries_ext6 import _user_gap_hist

    rng = np.random.default_rng(7)
    n = 1500
    ts = np.cumsum(rng.integers(1, 5000, n)) * 1_000_000
    users = np.zeros(n, np.int64)
    m = _user_gap_hist(_gap_hist_ds(users, ts), batch_size=64)
    got = _hist_to_dict(m)
    assert sum(got.values()) == n - 1
    assert got == _expected_hist(users, ts)


def test_gap_hist_multi_user_boundaries(ray_session):
    """Users of uneven run lengths across many boundary cuts: the
    boundary repair must add a gap only when the two sides of the cut
    belong to the same user."""
    from log_analysis_ai_ray.pipelines.queries_ext6 import _user_gap_hist

    rng = np.random.default_rng(11)
    users = np.repeat(np.arange(37, dtype=np.int64),
                      rng.integers(1, 60, 37))
    n = len(users)
    ts = np.cumsum(rng.integers(1, 9000, n)) * 1_000_000
    rng.shuffle(ts)  # per-user order comes from the sort, not input
    for bs in (16, 101, 1 << 20):
        m = _user_gap_hist(_gap_hist_ds(users, ts), batch_size=bs)
        assert _hist_to_dict(m) == _expected_hist(users, ts), bs


def test_verify_jaccard_pairs_distributed_parity(ray_session,
                                                 monkeypatch):
    """Forcing the distributed map_groups verification path (driver
    budget = 0) must reproduce the driver kernel byte-for-byte —
    including exclusion of sub-threshold candidates and exact jaccard
    values."""
    import ray

    from log_analysis_ai_ray.stages import dedup

    texts = []
    base = ("the quick brown fox jumps over the lazy dog while "
            "seven wizards brew strong potions at dawn near the "
            "old stone bridge by the river bend every morning")
    for i in range(40):
        words = base.split()
        # perturb a sliding window so neighbors are near-dups and
        # distant docs are not
        words[i % len(words)] = f"tok{i}"
        texts.append(" ".join(words))
    t = pa.table({"doc_id": pa.array(np.arange(40, dtype=np.int64)),
                  "text": pa.array(texts)})
    ds = ray.data.from_arrow(t)
    cand = dedup.prefix_jaccard_candidates(ds, 600, 3)
    assert cand.num_rows > 10  # test must exercise real pairs

    driver = dedup.verify_jaccard_pairs(
        ray.data.from_arrow(t), cand, 600, 3)
    monkeypatch.setattr(dedup, "PAIR_VERIFY_DRIVER_MAX_PAIRS", 0)
    dist = dedup.verify_jaccard_pairs(
        ray.data.from_arrow(t), cand, 600, 3, num_partitions=5)
    assert driver.num_rows > 0
    assert dist.equals(driver)


def test_gap_hist_single_row_batches(ray_session):
    """batch_size=1 makes EVERY gap a boundary gap (and first==last in
    each batch's edge rows) — the degenerate all-repair case."""
    from log_analysis_ai_ray.pipelines.queries_ext6 import _user_gap_hist

    users = np.array([0, 0, 0, 1, 1], np.int64)
    ts = np.array([0, 3, 10, 2, 4], np.int64) * 1_000_000
    m = _user_gap_hist(_gap_hist_ds(users, ts), batch_size=1)
    assert _hist_to_dict(m) == {2: 1, 3: 1, 7: 1}
